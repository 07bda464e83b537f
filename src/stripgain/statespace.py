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
from .regions import Line, Strip

TAU_TAIL = 1e-6

# number of interior rates sampled (in addition to the two endpoints) when a
# supremum over a rate interval is discretized
INTERIOR_RATES = 9


def _as_2d(x, rows, cols, name):
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
    """Linear time-invariant system dx = Ax + Bu, y = Cx + Du; _tf is the
    transfer function of a realization (realize), None for any other."""

    def __init__(self, A, B, C, D):
        self._tf: RationalFunction | None = None
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, 0)
        self.A = matkernel.as_square_matrix(A)
        n = self.A.shape[0]
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(n, 1) if B.size == n else B.reshape(n, -1)
        if B.size == 0:
            B = B.reshape(0, max(1, B.shape[1] if B.ndim == 2 else 1))
        m = B.shape[1]
        self.B = _as_2d(B, n, m, "B")
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C.reshape(1, n) if C.size == n else C.reshape(-1, n)
        if C.size == 0:
            C = C.reshape(max(1, C.shape[0] if C.ndim == 2 else 1), 0)
        q = C.shape[0]
        self.C = _as_2d(C, q, n, "C")
        D = np.asarray(D, dtype=float)
        if D.ndim == 0:
            D = D.reshape(1, 1)
        elif D.ndim == 1:
            D = D.reshape(q, m)
        self.D = _as_2d(D, q, m, "D")
        for M in (self.A, self.B, self.C, self.D):
            M.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @property
    def is_siso(self) -> bool:
        return self.n_inputs == 1 and self.n_outputs == 1

    def poles(self) -> np.ndarray:
        """Eigenvalues of A sorted by (real, imag), read-only (_tf's poles)."""
        return self._poles

    @cached_property
    def _poles(self) -> np.ndarray:
        if self._tf is not None:
            return self._tf.poles
        w = matkernel.eig(self.A)
        w.setflags(write=False)
        return w

    @cached_property
    def schur(self) -> matkernel.RealSchur:
        """Real Schur form A = Z T Z' (LAPACK dgees).

        Computed once per system (the matrices are read-only), like the
        poles, and the one factorisation of A: frequency responses read
        their complex triangular form off it (response_form), dominance
        certificates and modal splits reorder it to any rate line.
        """
        return matkernel.real_schur(self.A)

    @cached_property
    def response_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, Z^H B, C Z) for the complex Schur form A = Z T Z^H derived
        from schur; frequency responses back-substitute through sI - T."""
        T, Z = matkernel.complex_schur(self.schur)
        return T, Z.conj().T @ self.B, self.C @ Z

    def __repr__(self):
        return "StateSpace(n=%d, inputs=%d, outputs=%d)" % (
            self.n,
            self.n_inputs,
            self.n_outputs,
        )


def require_siso(ss: StateSpace, what: str) -> None:
    if not ss.is_siso:
        raise InvalidInput("%s supports single-input single-output systems only" % what)


def as_state_space(system: StateSpace | RationalFunction) -> StateSpace:
    """The system itself, or the realization of a transfer function."""
    return system if isinstance(system, StateSpace) else realize(system)


def realize(G: RationalFunction) -> StateSpace:
    """Controllable-canonical realization of a proper rational function:
    the one conversion of a transfer function, kept as _tf, whose poles are
    poles() and whose polynomials frequency_response evaluates."""
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
    A, B, C = np.eye(n, k=1), np.zeros((n, 1)), np.zeros((1, n))
    if n:
        A[n - 1, :] = -den[:n]
        B[n - 1, 0] = 1.0
        take = min(n, rem.degree + 1)
        C[0, :take] = rem.coeffs[:take]
    ss = StateSpace(A, B, C, [[d]])
    ss._tf = G
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
    """Transfer function C (sI - A)^-1 B + D of a SISO system.

    Uses the determinant identity det(sI - A + BC) = det(sI - A) * (1 + G0)
    for the strictly proper part G0, with B and C normalized to unit scale so
    the char-poly difference is computed at matched magnitudes.  Only the
    perturbed matrix is eigensolved; the denominator is the cached poles().
    """
    require_siso(ss, "tf_of")
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


def _band_of(region) -> tuple[float, float]:
    if isinstance(region, Strip):
        return -region.hi, -region.lo
    if isinstance(region, Line):
        return -region.lam, -region.lam
    raise InvalidInput("expected a Strip or Line, got %r" % (region,))


def modal_split(ss: StateSpace, region: Strip | Line) -> ModalSplit:
    """Split a system into subsystems with spectra on either side of a strip,
    read off the system's cached Schur form (matkernel.split_spectrum): B
    and C map through the split's closed-form inverse and its transform."""
    split = matkernel.split_spectrum(ss.schur, *_band_of(region))
    p, T = split.p, split.transform
    Bt = split.inverse @ ss.B
    Ct = ss.C @ T
    zero_d = np.zeros((ss.n_outputs, ss.n_inputs))
    plus = StateSpace(split.T[:p, :p], Bt[:p, :], Ct[:, :p], zero_d)
    minus = StateSpace(split.T[p:, p:], Bt[p:, :], Ct[:, p:], zero_d)
    return ModalSplit(transform=T, plus=plus, minus=minus, p=p)


def impulse_response(ss: StateSpace, strip: Strip, t: float) -> float:
    """Two-sided impulse response value at time t (feedthrough excluded).

    The forward (t > 0) branch is generated by the modes left of the strip
    and the backward (t <= 0) branch by the modes right of it; this is the
    unique pairing whose transform converges on the strip.
    """
    require_siso(ss, "impulse_response")
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


def convolve(ss: StateSpace, strip: Strip, u: SampledSignal) -> SampledSignal:
    """Response of the system to u on u's own grid.

    Trapezoidal-in-the-input, exact-in-the-dynamics stepping: the causal half
    runs forward from the window start, the anticausal half backward from the
    window end.  The input is taken to vanish outside its window.
    """
    require_siso(ss, "convolve")
    split = modal_split(ss, strip)
    vals = u.values
    N = vals.size
    dt = u.dt
    y = np.zeros(N)

    minus = split.minus
    if minus.n:
        E = matkernel.propagator(minus.A, dt)
        Bm = minus.B[:, 0]
        EB = E @ Bm
        x = np.zeros(minus.n)
        for k in range(1, N):
            x = E @ x + (0.5 * dt) * (EB * vals[k - 1] + Bm * vals[k])
            y[k] += float(minus.C[0, :] @ x)

    plus = split.plus
    if plus.n:
        Ei = matkernel.propagator(plus.A, -dt)
        Bp = plus.B[:, 0]
        EiB = Ei @ Bp
        z = np.zeros(plus.n)
        for k in range(N - 2, -1, -1):
            z = Ei @ z + (0.5 * dt) * (Bp * vals[k] + EiB * vals[k + 1])
            y[k] -= float(plus.C[0, :] @ z)

    y += float(ss.D[0, 0]) * vals
    return SampledSignal(t0=u.t0, dt=dt, values=y)


def weighted_l2_norm(f: SampledSignal, region: Strip | Line) -> float:
    """Largest exponentially weighted L2 norm over the rate interval.

    For each sampled rate lam the integral of exp(2 lam t) f(t)^2 is taken by
    the trapezoid rule; the supremum over a strip is discretized as both
    endpoints plus INTERIOR_RATES interior rates.  If the weighted integrand
    has not decayed at either window edge the window is too short to trust.
    """
    if isinstance(region, Line):
        rates = [region.lam]
    elif isinstance(region, Strip):
        rates = [region.lo] + region.interior_rates(INTERIOR_RATES) + [region.hi]
    else:
        raise InvalidInput("expected a Strip or Line, got %r" % (region,))
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
