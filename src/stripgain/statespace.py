"""State-space models, modal splitting about a strip, and signal transport.

The impulse response of a system with no poles on a strip splits into a
forward part driven by the modes left of the strip and a backward part driven
by the modes right of it; both decay once weighted by the exponential rates
the strip allows.  Convolution against sampled inputs steps the two split
subsystems exactly (matrix exponentials), forward for the causal half and
backward for the anticausal half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matkernel
from .errors import (
    ImproperTransferFunction,
    InvalidInput,
    NumericalFailure,
    WindowTooShort,
)
from .rational import Polynomial, RationalFunction
from .regions import Line, Strip, _pole_guard, _rates

TAU_TAIL = 1e-6

# number of interior rates sampled (in addition to the two endpoints) when a
# supremum over a rate interval is discretized
INTERIOR_RATES = 9


def _as_2d(x, rows, cols, name):
    """x as a finite 2-D float array of shape (rows, cols)."""
    M = np.asarray(x, dtype=float)
    if M.ndim != 2:
        raise InvalidInput("%s must be 2-D, got ndim %d" % (name, M.ndim))
    if M.shape != (rows, cols):
        raise InvalidInput(
            "%s must have shape (%d, %d), got %r" % (name, rows, cols, M.shape)
        )
    if M.size and not np.isfinite(M).all():
        raise InvalidInput("%s contains non-finite entries" % name)
    return M


class StateSpace:
    """Linear time-invariant system dx = Ax + Bu, y = Cx + Du with one input
    u and one output y by construction: A is n x n, B n x 1, C 1 x n and D
    1 x 1; _tf is the transfer function of a realization (realize) and _t
    its balancing, None for any other."""

    def __init__(self, A, B, C, D):
        self._tf: RationalFunction | None = None
        self._t: np.ndarray | None = None
        self.A = matkernel.as_square_matrix(A)
        n = self.A.shape[0]
        self.B = _as_2d(B, n, 1, "B")
        self.C = _as_2d(C, 1, n, "C")
        self.D = _as_2d(D, 1, 1, "D")
        for M in (self.A, self.B, self.C, self.D):
            M.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def poles(self) -> np.ndarray:
        """Eigenvalues of A sorted by (real, imag), read-only: schur's, the one spectrum."""
        return self._poles

    @cached_property
    def _poles(self) -> np.ndarray:
        w = np.sort_complex(self.schur.w)
        w.setflags(write=False)
        return w

    def in_given_coordinates(self, P) -> np.ndarray:
        """A form P on the state, in the given coordinates: a realization's P / outer(t, t)."""
        return P if self._t is None else P / np.outer(self._t, self._t)

    @cached_property
    def schur(self) -> matkernel.RealSchur:
        """Real Schur form A = Z T Z' (LAPACK dgees), the one factorisation of
        A, computed once (the matrices are read-only): poles() are its
        eigenvalues, frequency responses read their complex triangular form
        off it (response_form), certificates and modal splits reorder it."""
        return matkernel.real_schur(self.A)

    @cached_property
    def response_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, Z^H B, C Z) for the complex Schur form A = Z T Z^H derived
        from schur; frequency responses back-substitute through sI - T."""
        T, Z = matkernel.complex_schur(self.schur)
        return T, Z.conj().T @ self.B, self.C @ Z

    def __repr__(self):
        return "StateSpace(n=%d)" % self.n


def as_state_space(system: StateSpace | RationalFunction) -> StateSpace:
    """The system itself, or the realization of a transfer function."""
    return system if isinstance(system, StateSpace) else realize(system)


def realize(G: RationalFunction) -> StateSpace:
    """The one conversion of a proper rational function, kept as _tf, whose
    polynomials frequency_response evaluates: its controllable canonical A,
    B, C balanced to inv(T) A T, inv(T) B, C T (matkernel.balance, T = diag(t), kept as _t)."""
    if not G.is_proper:
        raise ImproperTransferFunction(
            "numerator degree %d exceeds denominator degree %d"
            % (G.num_degree, G.den_degree)
        )
    n = G.den_degree
    den = np.asarray(G.den.coeffs)
    if G.num_degree == n:
        d = G.num.lead / G.den.lead
        rem = Polynomial.from_computed(np.polynomial.polynomial.polysub(G.num.coeffs, d * den))
    else:
        d, rem = 0.0, G.num
    A, B, C, t = np.eye(n, k=1), np.zeros((n, 1)), np.zeros((1, n)), np.ones(n)
    if n:
        A[n - 1, :] = -den[:n]
        B[n - 1, 0] = 1.0
        C[0, : rem.degree + 1] = rem.coeffs[:n]
        A, t = matkernel.balance(A)
    ss = StateSpace(A, B / t[:, None], C * t, [[d]])
    ss._tf, ss._t = G, t
    return ss


def _charpoly(w: np.ndarray) -> np.ndarray:
    """Monic polynomial with roots w (closed under conjugation), ascending
    coefficients."""
    coeffs = np.polynomial.polynomial.polyfromroots(w)
    scale = float(np.max(np.abs(coeffs)))
    if float(np.max(np.abs(coeffs.imag))) > 1e-8 * max(1.0, scale):
        raise NumericalFailure("characteristic polynomial has unpaired complex roots")
    out = coeffs.real.copy()
    out[-1] = 1.0
    return out


def tf_of(ss: StateSpace) -> RationalFunction:
    """Transfer function C (sI - A)^-1 B + D of a system.

    Uses the determinant identity det(sI - A + BC) = det(sI - A) * (1 + G0)
    for the strictly proper part G0, with B and C normalized to unit scale so
    the char-poly difference is computed at matched magnitudes.  Only the
    perturbed matrix is eigensolved; the denominator is the cached poles().
    """
    d = float(ss.D[0, 0])
    if ss.n == 0:
        return RationalFunction([d], [1.0])
    den = _charpoly(ss.poles())
    sb = float(np.linalg.norm(ss.B))
    sc = float(np.linalg.norm(ss.C))
    if sb == 0.0 or sc == 0.0:
        num = d * den
    else:
        pert = _charpoly(matkernel.eig(ss.A - (ss.B / sb) @ (ss.C / sc)))
        num = (sb * sc) * (pert - den) + d * den
    return RationalFunction(
        Polynomial.from_computed(num), Polynomial.from_computed(den, rel_tol=0.0)
    )


@dataclass(frozen=True)
class ModalSplit:
    """Block-diagonalization of a system about a strip.

    ``plus`` carries the modes right of the strip (Re > -lo), ``minus`` the
    modes left of it (Re < -hi); ``transform`` T satisfies
    inv(T) A T = blkdiag(A_plus, A_minus).
    """

    transform: np.ndarray
    plus: StateSpace
    minus: StateSpace
    p: int


def modal_split(ss: StateSpace, region: Strip | Line) -> ModalSplit:
    """Split a system into subsystems with spectra on either side of a strip,
    read off the system's cached Schur form (matkernel.split_spectrum) at
    the region's smaller rate: B and C map through the split's closed-form
    inverse and its transform.  Each part, like every StateSpace, has one
    input and one output by construction, and no feedthrough.  A pole on
    the line or in the closed strip raises PoleOnLine or PoleInStrip
    (regions._pole_guard)."""
    p = _pole_guard(ss.poles(), region)
    split = matkernel.split_spectrum(ss.schur, _rates(region)[0], p)
    T = split.transform
    Bt = split.inverse @ ss.B
    Ct = ss.C @ T
    plus = StateSpace(split.T[:p, :p], Bt[:p, :], Ct[:, :p], [[0.0]])
    minus = StateSpace(split.T[p:, p:], Bt[p:, :], Ct[:, p:], [[0.0]])
    return ModalSplit(transform=T, plus=plus, minus=minus, p=p)


def impulse_response(ss: StateSpace, strip: Strip, t: float) -> float:
    """Two-sided impulse response value at time t (feedthrough excluded).

    The forward (t > 0) branch is generated by the modes left of the strip
    and the backward (t <= 0) branch by the modes right of it; this is the
    unique pairing whose transform converges on the strip.
    """
    if not math.isfinite(t):
        raise InvalidInput("time must be finite")
    split = modal_split(ss, strip)
    if t > 0:
        sub = split.minus
        sign = 1.0
    else:
        sub = split.plus
        sign = -1.0
    if sub.n == 0:
        return 0.0
    g = sub.C @ matkernel.propagator(sub.A, t) @ sub.B
    return sign * float(g[0, 0])


@dataclass(frozen=True)
class SampledSignal:
    """Real scalar signal sampled on a uniform grid t0 + k*dt."""

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidInput("values must be a 1-D array with >= 2 samples")
        if not np.all(np.isfinite(vals)):
            raise InvalidInput("signal samples must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidInput("dt must be positive and finite")
        if not math.isfinite(self.t0):
            raise InvalidInput("t0 must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)


def _step_into(y: np.ndarray, sub: StateSpace, dt: float, vals: np.ndarray) -> None:
    """Add C x_k to y[k] for k >= 1, x stepped from x_0 = 0 by dt along the
    samples vals: trapezoidal in the input, exact (expm(A dt)) in the
    dynamics."""
    if not sub.n:
        return
    E = matkernel.propagator(sub.A, dt)
    b = sub.B[:, 0]
    Eb = E @ b
    x = np.zeros(sub.n)
    for k in range(1, vals.size):
        x = E @ x + (0.5 * dt) * (Eb * vals[k - 1] + b * vals[k])
        y[k] += float(sub.C[0, :] @ x)


def convolve(ss: StateSpace, strip: Strip, u: SampledSignal) -> SampledSignal:
    """Response of the system to u on u's own grid.

    Trapezoidal-in-the-input, exact-in-the-dynamics stepping: the causal half
    runs forward from the window start, the anticausal half backward from the
    window end (by steps of -dt along the reversed signal).  The input is
    taken to vanish outside its window.
    """
    split = modal_split(ss, strip)
    vals = u.values
    y = np.zeros(vals.size)
    _step_into(y, split.minus, u.dt, vals)
    _step_into(y[::-1], split.plus, -u.dt, vals[::-1])
    y += float(ss.D[0, 0]) * vals
    return SampledSignal(t0=u.t0, dt=u.dt, values=y)


def weighted_l2_norm(f: SampledSignal, region: Strip | Line) -> float:
    """Largest exponentially weighted L2 norm over the rate interval.

    For each sampled rate lam the integral of exp(2 lam t) f(t)^2 is taken by
    the trapezoid rule; the supremum over a strip is discretized as both
    endpoints plus INTERIOR_RATES interior rates.  If the weighted integrand
    has not decayed at either window edge the window is too short to trust.
    """
    lo, hi = _rates(region)
    rates = [lo] if lo == hi else [lo] + region.interior_rates(INTERIOR_RATES) + [hi]
    t = f.times
    best = 0.0
    for lam in rates:
        w = np.exp(2.0 * lam * t) * f.values**2
        if not np.all(np.isfinite(w)):
            raise NumericalFailure("weighted integrand overflowed; rescale the window")
        total = float(np.trapezoid(w, dx=f.dt))
        if total > 0.0:
            edge = (w[0] + w[-1]) * f.dt
            if edge > TAU_TAIL * total:
                raise WindowTooShort(
                    "weighted integrand at rate %g has not decayed at the "
                    "window edges (edge mass %.3e of total %.3e)" % (lam, edge, total)
                )
        best = max(best, math.sqrt(max(total, 0.0)))
    return best
