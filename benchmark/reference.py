"""Independent reference computations for the benchmark's output checks.

Nothing here imports stripgain.  Transfer functions are evaluated from
their poles and zeros found by mpmath at 40 digits, and the final value of
every supremum is re-evaluated from the coefficients at 40 digits.  State
space models are evaluated in modal form on dense grids and by a direct
linear solve at the refined maxima.  Eigenvalue counts come from the same
pole sets, so a verdict is never read off the program under test.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import minimize_scalar

DPS = 40
# A pole this close (relative) to a rate line makes an eigenvalue count
# meaningless; generated inputs keep far clear of it.
COUNT_MARGIN = 1e-6


class ReferenceError(Exception):
    """The reference itself cannot judge an input (a benchmark input bug)."""


def _mp_roots(coeffs_asc) -> np.ndarray:
    c = [mpmath.mpf(float(x)) for x in coeffs_asc]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if len(c) == 1:
        return np.zeros(0, dtype=complex)
    with mpmath.workdps(DPS):
        roots = mpmath.polyroots(c[::-1], maxsteps=400, extraprec=2 * DPS)
    return np.array([complex(r) for r in roots], dtype=complex)


class TFModel:
    """Ratio of two real polynomials with ascending coefficients."""

    def __init__(self, num, den):
        self.num = [float(x) for x in num]
        self.den = [float(x) for x in den]
        while len(self.num) > 1 and self.num[-1] == 0.0:
            self.num.pop()
        while len(self.den) > 1 and self.den[-1] == 0.0:
            self.den.pop()
        self.poles = _mp_roots(self.den)
        self.zeros = _mp_roots(self.num) if self.num != [0.0] else np.zeros(0, complex)
        self.k = self.num[-1] / self.den[-1]
        biproper = len(self.num) == len(self.den)
        self.limit = abs(self.k) if biproper else 0.0

    @property
    def n(self) -> int:
        return len(self.den) - 1

    def eval(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.full(s.shape, self.k, dtype=complex)
        for z in self.zeros:
            out = out * (s - z)
        for p in self.poles:
            out = out / (s - p)
        return out

    def eval_exact(self, s: complex) -> complex:
        with mpmath.workdps(DPS):
            z = mpmath.mpc(s.real, s.imag)
            num = mpmath.polyval([mpmath.mpf(c) for c in self.num[::-1]], z)
            den = mpmath.polyval([mpmath.mpf(c) for c in self.den[::-1]], z)
            return complex(num / den)

    def realization(self):
        """Controllable canonical form (A, B, C, D) of the monic-normalized
        function, the form a certificate printed for a tf file refers to."""
        lead = self.den[-1]
        den = np.array(self.den) / lead
        num = np.array(self.num) / lead
        n = len(den) - 1
        if len(num) == n + 1:
            d = float(num[n])
            rem = num[:n] - d * den[:n]
        else:
            d = 0.0
            rem = np.concatenate([num, np.zeros(n - len(num))])
        A = np.zeros((n, n))
        if n > 1:
            A[: n - 1, 1:] = np.eye(n - 1)
        A[n - 1, :] = -den[:n]
        B = np.zeros((n, 1))
        B[n - 1, 0] = 1.0
        return A, B, rem.reshape(1, n), np.array([[d]])


class SSModel:
    """SISO state space x' = Ax + Bu, y = Cx + Du."""

    def __init__(self, A, B, C, D):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.C = np.asarray(C, dtype=float)
        self.D = np.asarray(D, dtype=float)
        self.d = float(self.D[0, 0])
        w, V = np.linalg.eig(self.A)
        if np.linalg.cond(V) > 1e8:
            raise ReferenceError("modal basis too ill-conditioned for the reference")
        self.poles = w
        self._res = (self.C @ V)[0] * np.linalg.solve(V, self.B)[:, 0]
        self.limit = abs(self.d)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def eval(self, s):
        s = np.asarray(s, dtype=complex)
        return self.d + (self._res / (s[..., None] - self.poles)).sum(axis=-1)

    def eval_exact(self, s: complex) -> complex:
        x = np.linalg.solve(s * np.eye(self.n) - self.A, self.B[:, 0])
        return complex(self.C[0] @ x) + self.d

    def realization(self):
        return self.A, self.B, self.C, self.D


def model_from_json(obj):
    if obj["kind"] == "tf":
        return TFModel(obj["num"], obj["den"])
    return SSModel(obj["A"], obj["B"], obj["C"], obj["D"])


def count_right(poles, lam: float) -> int:
    """Eigenvalues of A + lam I in the open right half plane."""
    shifted = np.asarray(poles).real + lam
    if np.any(np.abs(shifted) <= COUNT_MARGIN * (1.0 + np.abs(poles))):
        raise ReferenceError("a pole lies within the count margin of rate %g" % lam)
    return int(np.count_nonzero(shifted > 0))


def line_sup(model, lam: float):
    """(value, omega) of sup |G(-lam + i omega)| over omega >= 0.

    A log grid over eight decades around the pole scale, augmented with the
    pole frequencies, locates the local maxima; each is refined by bounded
    scalar search and re-evaluated exactly.  omega is math.inf when the
    supremum is only approached at infinite frequency.
    """
    poles = model.poles
    if np.any(np.abs(poles.real + lam) <= COUNT_MARGIN * (1.0 + np.abs(poles))):
        raise ReferenceError("pole on the line at rate %g" % lam)
    scale = max(1.0, float(np.max(np.abs(poles)))) if poles.size else 1.0
    imag = np.abs(poles.imag)
    grid = np.unique(
        np.concatenate([[0.0], np.logspace(-4, 4, 2001) * scale, imag[imag > 0]])
    )
    mags = np.abs(model.eval(-lam + 1j * grid))
    top = float(np.max(mags))
    if top == 0.0:
        return model.limit, (math.inf if model.limit > 0 else 0.0)

    def neg(w):
        return -abs(complex(model.eval(np.array([-lam + 1j * w]))[0]))

    n = grid.size
    peaks = [
        k for k in range(n)
        if mags[k] >= 0.5 * top
        and (k == 0 or mags[k - 1] <= mags[k])
        and (k == n - 1 or mags[k + 1] <= mags[k])
    ]
    peaks = sorted(peaks, key=lambda k: -mags[k])[:8]
    best_w, best_v = 0.0, -1.0
    for k in peaks:
        a, b = float(grid[max(k - 1, 0)]), float(grid[min(k + 1, n - 1)])
        w, v = float(grid[k]), float(mags[k])
        if b > a:
            res = minimize_scalar(
                neg, bounds=(a, b), method="bounded",
                options={"xatol": 1e-13 * (1.0 + b), "maxiter": 500},
            )
            if -res.fun > v:
                w, v = float(res.x), float(-res.fun)
        if v > best_v:
            best_w, best_v = w, v
    exact = abs(model.eval_exact(complex(-lam, best_w)))
    if abs(exact - best_v) > 1e-8 * max(exact, 1e-300):
        raise ReferenceError("grid evaluator disagrees with the exact one")
    if model.limit > exact:
        return model.limit, math.inf
    return exact, best_w


def strip_sup(model, lo: float, hi: float, edge_sup=line_sup):
    """sup |G| over the strip lo <= rate <= hi (no poles inside it):
    (value, per-edge values) by the maximum modulus principle.  edge_sup
    (model, rate) -> (value, omega) computes each edge, line_sup by default."""
    inside = (-model.poles.real >= lo) & (-model.poles.real <= hi)
    if np.any(inside):
        raise ReferenceError("pole inside the strip")
    v_lo = edge_sup(model, lo)[0]
    v_hi = edge_sup(model, hi)[0]
    return max(v_lo, v_hi), (v_lo, v_hi)


def gain_lmi_max_eig(A, B, C, D, P, gamma: float, lam: float):
    """(largest eigenvalue, norm) of the weighted-gain matrix inequality

        [(A + lam I)' P + P (A + lam I) + C'C,  P B + C'D ]
        [ B'P + D'C,                            D'D - gamma^2 ]

    which is negative exactly when P certifies the level gamma at rate lam."""
    n = A.shape[0]
    At = A + lam * np.eye(n)
    top = np.hstack([At.T @ P + P @ At + C.T @ C, P @ B + C.T @ D])
    bot = np.hstack([(P @ B + C.T @ D).T, D.T @ D - gamma * gamma * np.eye(1)])
    M = np.vstack([top, bot])
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1]), float(np.linalg.norm(M))


def signature(P):
    """(negative, zero, positive) eigenvalue counts with a tight zero band."""
    w = np.linalg.eigvalsh(0.5 * (P + P.T))
    tol = 1e-13 * max(1.0, float(np.max(np.abs(w))))
    neg = int(np.count_nonzero(w < -tol))
    pos = int(np.count_nonzero(w > tol))
    return neg, len(w) - neg - pos, pos


def feedback_poles(m1, m2) -> np.ndarray:
    """Closed-loop poles of the negative feedback u1 = w - y2, u2 = y1."""
    A1, B1, C1, D1 = m1.realization()
    A2, B2, C2, D2 = m2.realization()
    n1, n2 = A1.shape[0], A2.shape[0]
    d1, d2 = float(D1[0, 0]), float(D2[0, 0])
    den = 1.0 + d1 * d2
    # y1 = Y x for w = 0; u1 = -y2 = -(C2 x2 + d2 y1).
    Y = np.hstack([C1, -d1 * C2]) / den
    U1 = -np.hstack([np.zeros((1, n1)), C2]) - d2 * Y
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = A1
    A[n1:, n1:] = A2
    A[:n1, :] += B1 @ U1
    A[n1:, :] += B2 @ Y
    return np.linalg.eigvals(A)


def sec5_closed_poles(tau: float, d: float, ki: float) -> np.ndarray:
    """Roots of s^2 (s + d)(1 + tau s) + ki, the lag-closed loop's poles."""
    # ascending: ki + 0 s + d s^2 + (1 + tau d) s^3 + tau s^4
    return _mp_roots([ki, 0.0, d, 1.0 + tau * d, tau])


def sec5_slope_model(k: float, d: float, ki: float) -> TFModel:
    """Injection-to-output map k L / (1 - k L) of the slope-k loop with
    L = -ki / (s^2 (s + d)): equal to -k ki / (s^2 (s + d) + k ki)."""
    return TFModel([-k * ki], [k * ki, 0.0, d, 1.0])


def sec5_lag_model(tau: float) -> TFModel:
    """Multiplicative lag perturbation -tau s / (1 + tau s)."""
    return TFModel([0.0, -tau], [1.0, tau])
