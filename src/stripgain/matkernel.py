"""Dense matrix facilities used by the rest of the package.

Thin wrappers around numpy/scipy routines (eigensolvers, Lyapunov solves,
matrix exponentials, ordered Schur splits) that add the input validation and
residual checks the higher-level modules rely on.  Matrices are plain float64
ndarrays throughout; complex input is rejected at the boundary.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import (
    EigenvalueInStrip,
    InvalidInput,
    NumericalFailure,
    SingularSylvester,
)
from .regions import TAU_LINE

TAU_SYM = 1e-12
TAU_LYAP = 1e-9


def as_square_matrix(A, name="A") -> np.ndarray:
    """Validate and return a finite real square matrix as float64."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput("%s must be square, got shape %r" % (name, M.shape))
    if M.size and not np.all(np.isfinite(M)):
        raise InvalidInput("%s contains non-finite entries" % name)
    return M


def eig(A) -> np.ndarray:
    """Eigenvalues of a real square matrix, or of each matrix in a stack of
    shape (..., n, n), each row sorted by (real, imag)."""
    M = np.asarray(A, dtype=float)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise InvalidInput("A must be square, got shape %r" % (M.shape,))
    if M.size and not np.all(np.isfinite(M)):
        raise InvalidInput("A contains non-finite entries")
    if M.size == 0:
        return np.zeros(M.shape[:-1], dtype=complex)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue iteration failed: %s" % exc) from exc
    return np.sort_complex(w)


def schur_complex(A) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form A = Z T Z^H: (T upper triangular, Z unitary)."""
    M = as_square_matrix(A)
    try:
        return sla.schur(M, output="complex")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailure("Schur reduction failed: %s" % exc) from exc


def sym_eig(M) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    The input must be symmetric to within TAU_SYM relative; anything worse is
    a caller bug, not noise to be hidden.
    """
    A = as_square_matrix(M, "M")
    if A.shape[0] == 0:
        return np.zeros(0)
    scale = np.linalg.norm(A)
    if scale > 0 and np.linalg.norm(A - A.T) > TAU_SYM * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def lyap_solve(A, Q) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric P.

    Raises SingularSylvester when eigenvalues of A pair to (near) zero sums,
    which is exactly when the equation loses unique solvability.
    """
    Am = as_square_matrix(A)
    Qm = as_square_matrix(Q, "Q")
    if Am.shape != Qm.shape:
        raise InvalidInput("A and Q must share a shape")
    n = Am.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    w = np.linalg.eigvals(Am)
    scale = max(1.0, np.linalg.norm(Am))
    pair_sums = np.abs(w[:, None] + w[None, :])
    if pair_sums.min() <= 1e-12 * scale:
        raise SingularSylvester(
            "spectrum of A has (near) mirror-symmetric eigenvalue pair; "
            "Lyapunov equation is singular"
        )
    try:
        P = sla.solve_continuous_lyapunov(Am.T, -Qm)
    except Exception as exc:
        raise NumericalFailure("Lyapunov solve failed: %s" % exc) from exc
    P = 0.5 * (P + P.T)
    resid = np.linalg.norm(Am.T @ P + P @ Am + Qm)
    bound = TAU_LYAP * (np.linalg.norm(Am) * np.linalg.norm(P) + np.linalg.norm(Qm) + 1.0)
    if resid > bound:
        raise NumericalFailure(
            "Lyapunov residual %.3e exceeds tolerance %.3e" % (resid, bound)
        )
    return P


def propagator(A, h: float) -> np.ndarray:
    """Matrix exponential expm(A h) for signed h (convenience for steppers)."""
    Am = as_square_matrix(A)
    if Am.shape[0] == 0:
        return np.zeros((0, 0))
    if not np.isfinite(h):
        raise InvalidInput("propagation time must be finite")
    return sla.expm(Am * h)


def split_spectrum(A, band_lo: float, band_hi: float):
    """Similarity transform separating spectrum about a closed real-part band.

    Returns (T, A_plus, A_minus, p) with inv(T) @ A @ T block diagonal,
    A_plus (p x p) carrying eigenvalues with Re > band_hi and A_minus the
    eigenvalues with Re < band_lo.  An eigenvalue whose real part falls inside
    the band widened by TAU_LINE * (1 + |Re|) makes the split meaningless
    and raises EigenvalueInStrip.
    """
    Am = as_square_matrix(A)
    n = Am.shape[0]
    if band_lo > band_hi:
        raise InvalidInput("band_lo must not exceed band_hi")
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), 0
    w = np.linalg.eigvals(Am)
    re = w.real
    tol = TAU_LINE * (1.0 + np.abs(re))
    inside = (re >= band_lo - tol) & (re <= band_hi + tol)
    if np.any(inside):
        bad = w[inside][0]
        raise EigenvalueInStrip(
            "eigenvalue %s lies within tolerance of the band [%g, %g]"
            % (bad, band_lo, band_hi)
        )
    mid = 0.5 * (band_lo + band_hi)
    p = int(np.count_nonzero(re > mid))
    if p == 0:
        return np.eye(n), np.zeros((0, 0)), Am.copy(), 0
    if p == n:
        return np.eye(n), Am.copy(), np.zeros((0, 0)), n

    T_schur, Z, sdim = sla.schur(Am, output="real", sort=lambda r, i: r > mid)
    if sdim != p:
        raise NumericalFailure(
            "Schur reordering selected %d eigenvalues, expected %d" % (sdim, p)
        )
    T11 = T_schur[:p, :p]
    T12 = T_schur[:p, p:]
    T22 = T_schur[p:, p:]
    try:
        X = sla.solve_sylvester(T11, -T22, -T12)
    except Exception as exc:
        raise NumericalFailure("block decoupling solve failed: %s" % exc) from exc
    T = Z.copy()
    # right-multiply by [[I, X], [0, I]]
    T[:, p:] = Z[:, p:] + Z[:, :p] @ X
    resid = np.linalg.norm(T[:, :p] @ T11 - Am @ T[:, :p]) + np.linalg.norm(
        T[:, p:] @ T22 - Am @ T[:, p:]
    )
    if resid > 1e-7 * max(1.0, np.linalg.norm(Am)) * max(1.0, np.linalg.norm(T)):
        raise NumericalFailure("spectral split residual too large: %.3e" % resid)
    return T, T11.copy(), T22.copy(), p
