"""Dense matrix facilities used by the rest of the package.

Thin wrappers around numpy/scipy/LAPACK routines (eigensolvers, Lyapunov
solves, matrix exponentials, spectral splits) that add the input validation
and residual checks the higher-level modules rely on.  Matrices are plain
float64 ndarrays throughout; complex input is rejected at the boundary.

A matrix is factored once into its real Schur form (``real_schur``), and
everything that needs the factorisation is read off that form: the complex
triangular form of the frequency responses (``complex_schur``), the one
split about a line (``split_spectrum``; dtrsen, Bai and Demmel, LAA 1993),
and Lyapunov solves by back substitution (``lyap_quasi``; Bartels and
Stewart, CACM 1972).  A split at a new line costs only an O(n^2) reordering
per swap and triangular Sylvester solves, no new factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, NumericalFailure, SingularSylvester

TAU_SYM = 1e-12
TAU_LYAP = 1e-9

_dgebal, _dgees, _dtrsen, _dtrsyl = sla.get_lapack_funcs(("gebal", "gees", "trsen", "trsyl"))


def as_square_matrix(A, name="A") -> np.ndarray:
    """Validate and return a finite real square matrix as float64."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput("%s must be square, got shape %r" % (name, M.shape))
    if M.size and not np.isfinite(M).all():
        raise InvalidInput("%s contains non-finite entries" % name)
    return M


def eig(A) -> np.ndarray:
    """Eigenvalues of a real square matrix, or of each matrix in a stack of
    shape (..., n, n), each row sorted by (real, imag)."""
    M = np.asarray(A, dtype=float)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise InvalidInput("A must be square, got shape %r" % (M.shape,))
    if M.size and not np.isfinite(M).all():
        raise InvalidInput("A contains non-finite entries")
    if M.size == 0:
        return np.zeros(M.shape[:-1], dtype=complex)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue iteration failed: %s" % exc) from exc
    return np.sort_complex(w)


def balance(A) -> tuple[np.ndarray, np.ndarray]:
    """(inv(T) A T, t): A balanced by the diagonal T = diag(t) of powers of two,
    an exact similarity (LAPACK dgebal, no permutation; Parlett and Reinsch 1969)."""
    Ab, _, _, t, _ = _dgebal(as_square_matrix(A), scale=1, permute=0)
    return Ab, t


@dataclass(frozen=True)
class RealSchur:
    """Real Schur form A = Z T Z' (LAPACK dgees), T, Z and w read-only.

    Z is orthogonal and T upper quasi-triangular: each complex pair is a
    standardized 2 x 2 diagonal block [[a, b], [c, a]] with b c < 0.  w
    holds T's eigenvalues in diagonal order, the first of a pair with
    positive imaginary part.  A is the factored matrix, kept for the
    residual checks of what is derived from the form.
    """

    A: np.ndarray
    T: np.ndarray
    Z: np.ndarray
    w: np.ndarray


def real_schur(A) -> RealSchur:
    """Factor a real square matrix into its real Schur form."""
    M = as_square_matrix(A)
    if M.shape[0] == 0:
        T, Z, w = np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=complex)
    else:
        T, _, wr, wi, Z, _, info = _dgees(lambda re, im: None, M)
        if info:
            raise NumericalFailure("Schur reduction failed (LAPACK info %d)" % info)
        w = wr + 1j * wi
    for X in (T, Z, w):
        X.setflags(write=False)
    return RealSchur(M, T, Z, w)


def complex_schur(S: RealSchur) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form A = Z T Z^H (T upper triangular, Z unitary)
    derived from the real one.

    The unitary G = [[g, -s], [s, conj(g)]], (g, s) = (w_k - a, c) / r,
    triangularizes the 2 x 2 block [[a, b], [c, a]] at rows k, k + 1 (the
    rotation of scipy's rsf2csf).  The blocks are disjoint, so each rotation
    reads only its own block, and all of them apply at once: T <- G^H T G
    and Z <- Z G for the block-diagonal G, whose products with a matrix M
    are M d + M[:, swap] e and conj(d) M + e M[swap] for G's diagonal d,
    its off-diagonal entries e (s at k, -s at k + 1) and the swap of each
    block's two indices.
    """
    k = np.flatnonzero(np.diag(S.T, -1))
    if not k.size:
        return S.T.astype(complex), S.Z.astype(complex)
    n = S.T.shape[0]
    mu, c = S.w[k] - S.T[k + 1, k + 1], S.T[k + 1, k]
    r = np.hypot(np.abs(mu), c)
    d = np.ones(n, dtype=complex)
    d[k], d[k + 1] = mu / r, mu.conj() / r
    e = np.zeros(n)
    e[k], e[k + 1] = c / r, -c / r
    swap = np.arange(n)
    swap[k], swap[k + 1] = k + 1, k
    T = S.T * d + S.T[:, swap] * e
    T = d.conj()[:, None] * T + e[:, None] * T[swap]
    T[k + 1, k] = 0.0
    return T, S.Z * d + S.Z[:, swap] * e


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


def lyap_quasi(T, w, Q) -> np.ndarray:
    """Solve T' P + P T = -Q for symmetric P, T upper quasi-triangular (a
    real Schur form) with eigenvalues w, by back substitution (LAPACK
    dtrsyl).

    Raises SingularSylvester when eigenvalues of T pair to (near) zero sums,
    which is exactly when the equation loses unique solvability, and
    NumericalFailure when the residual exceeds TAU_LYAP of the scale.
    """
    scale = max(1.0, np.linalg.norm(T))
    if np.abs(w[:, None] + w[None, :]).min() <= 1e-12 * scale:
        raise SingularSylvester(
            "spectrum of A has (near) mirror-symmetric eigenvalue pair; "
            "Lyapunov equation is singular"
        )
    P, shrink, info = _dtrsyl(T, T, -Q, trana="T")
    if info < 0:
        raise NumericalFailure("Lyapunov solve failed (LAPACK info %d)" % info)
    return _lyap_checked(T, P / shrink, Q)


def _lyap_checked(A, P, Q) -> np.ndarray:
    """Symmetrized P, once A' P + P A + Q is within the residual bound."""
    P = 0.5 * (P + P.T)
    resid = np.linalg.norm(A.T @ P + P @ A + Q)
    bound = TAU_LYAP * (np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q) + 1.0)
    if resid > bound:
        raise NumericalFailure(
            "Lyapunov residual %.3e exceeds tolerance %.3e" % (resid, bound)
        )
    return P


def lyap_solve(A, Q) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric P.

    Solved by lyap_quasi on the real Schur form of A, whose errors it
    raises; the residual bound is checked again on A itself.
    """
    Am = as_square_matrix(A)
    Qm = as_square_matrix(Q, "Q")
    if Am.shape != Qm.shape:
        raise InvalidInput("A and Q must share a shape")
    if Am.shape[0] == 0:
        return np.zeros((0, 0))
    S = real_schur(Am)
    P = S.Z @ lyap_quasi(S.T, S.w, S.Z.T @ Qm @ S.Z) @ S.Z.T
    return _lyap_checked(Am, P, Qm)


def propagator(A, h: float) -> np.ndarray:
    """Matrix exponential expm(A h) for signed h (convenience for steppers)."""
    Am = as_square_matrix(A)
    if Am.shape[0] == 0:
        return np.zeros((0, 0))
    if not np.isfinite(h):
        raise InvalidInput("propagation time must be finite")
    return sla.expm(Am * h)


@dataclass(frozen=True)
class SchurSplit:
    """A real Schur form reordered so that its first p eigenvalues lie
    right of a vertical line, and decoupled there.

    With T = [[T11, T12], [0, T22]] (T11 p x p) and T11 X - X T22 = -T12,
    the transform S = Z [[I, X], [0, I]] gives inv(S) A S =
    blkdiag(T11, T22), and inv(S) = [[I, -X], [0, I]] Z' in closed form.
    w holds T's eigenvalues in diagonal order.
    """

    T: np.ndarray
    Z: np.ndarray
    w: np.ndarray
    X: np.ndarray
    p: int

    @property
    def transform(self) -> np.ndarray:
        S = self.Z.copy()
        S[:, self.p :] += self.Z[:, : self.p] @ self.X
        return S

    @property
    def inverse(self) -> np.ndarray:
        Si = self.Z.T.copy()
        Si[: self.p] -= self.X @ self.Z.T[self.p :]
        return Si


def reorder_schur(S: RealSchur, select) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(T, Z, w, m): S with the m eigenvalues flagged in select (one flag per
    diagonal entry of S.T, a 2 x 2 block's either flag counts) moved first
    by LAPACK dtrsen, no new factorisation; w in T's diagonal order."""
    if not S.T.size:  # dtrsen rejects empty arrays
        return S.T, S.Z, S.w, 0
    T, Z, wr, wi, m, _, _, info = _dtrsen(select, S.T, S.Z, job="N")
    if info:
        raise NumericalFailure("Schur reordering failed (LAPACK info %d)" % info)
    return T, Z, wr + 1j * wi, int(m)


def split_spectrum(S, lam: float, p: int) -> SchurSplit:
    """Split a real Schur form at the line Re s = -lam, right of which the
    caller has counted p eigenvalues.

    S is a RealSchur (a model's cached form) or a matrix, factored here.
    The eigenvalues of the form with real part above -lam are moved to the
    top (reorder_schur) and the diagonal blocks are decoupled by a
    triangular Sylvester solve (LAPACK dtrsyl), so that inv(transform) A
    transform = blkdiag(T11, T22) with T11 p x p.  Whether an eigenvalue
    sits on the line is the caller's verdict.  A count of a model's poles()
    is this reordering's by construction; any other count it misses (a raw
    matrix's caller), or a split that misses A beyond its residual bound,
    raises NumericalFailure.
    """
    S = S if isinstance(S, RealSchur) else real_schur(S)
    n = S.T.shape[0]
    T, Z, w, m = reorder_schur(S, np.diag(S.T) > -lam)
    if m != p:
        raise NumericalFailure(
            "Schur reordering selected %d eigenvalues, expected %d" % (m, p)
        )
    X = np.zeros((p, n - p))
    if 0 < p < n:
        X, shrink, info = _dtrsyl(T[:p, :p], T[p:, p:], -T[:p, p:], isgn=-1)
        if info < 0:
            raise NumericalFailure("block decoupling solve failed (LAPACK info %d)" % info)
        X /= shrink
    split = SchurSplit(T, Z, w, X, p)
    A, St = S.A, split.transform
    resid = np.linalg.norm(St[:, :p] @ T[:p, :p] - A @ St[:, :p]) + np.linalg.norm(
        St[:, p:] @ T[p:, p:] - A @ St[:, p:]
    )
    if resid > 1e-7 * max(1.0, np.linalg.norm(A)) * max(1.0, np.linalg.norm(St)):
        raise NumericalFailure("spectral split residual too large: %.3e" % resid)
    return split
