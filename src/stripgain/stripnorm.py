"""Supremum norms and energy norms on vertical lines and strips.

Two independent engines estimate the supremum of |G| along a vertical line:
a refined frequency grid (certified lower bound) and a level iteration on a
Hamiltonian matrix whose imaginary-axis eigenvalues are the frequencies
where |G| crosses the level (two-sided bracket whose lower end is a
measured |G|; the method keeps the name "bisection").  The level iteration
starts from the best point of a coarse grid, polished by parabolic steps,
so a search typically settles at its first Hamiltonian test.  It runs over
a batch of same-size systems, one rate per member, so a sweep of closed
loops, or the two edges of a strip, share each stacked eigensolve.  A
function bounded on a strip attains its supremum on the boundary, so strip
norms reduce to the two boundary lines plus an interior spot check.  The
norms take a state-space model or a transfer function, realized once, and
measure it through ``frequency_response``; only the response tables also
take a bare transfer function, which may be improper.  The line energy
norm solves its Gramians on the blocks of its realization's split form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from . import matkernel
from .errors import (
    DivergentIntegral,
    ImproperTransferFunction,
    InvalidInput,
    NumericalFailure,
)
from .rational import Polynomial, RationalFunction, partial_fractions, recombine
from .regions import Line, Strip, _pole_guard
from .statespace import StateSpace, as_state_space, tf_of

TAU_HAM = 1e-7

GRID_POINTS = 512
GRID_OMEGA_MIN = 1e-3
GRID_OMEGA_MAX = 1e3
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0
# cap on the rounds of _polish; a round that moves a member's best point
# and gains less than tol/8 ends that member first
_POLISH_ROUNDS = 20
# LAPACK upper-triangular solve; solve_triangular's checks cost more than
# the solve itself on a few states
(_ztrtrs,) = sla.get_lapack_funcs(("trtrs",), (np.zeros(1, dtype=complex),))


def maxmod_slack(value: float) -> float:
    """Allowed numerical excess of interior samples over a boundary max."""
    return 1e-9 + 1e-6 * value


@dataclass(frozen=True)
class NormResult:
    """Outcome of a norm computation.

    ``value`` is a lower bound for the grid method and the bracket midpoint
    for bisection.  ``peak_frequency`` is where the maximum was found, for
    bisection where the bracket's lower end was measured (math.inf when that
    is the limit as omega grows).
    """

    value: float
    method: str
    peak_frequency: float
    tolerance: float | None = None
    bracket: tuple[float, float] | None = None
    attaining_boundary: str | None = None
    boundary_values: tuple[float, float] | None = None


def frequency_response(system: StateSpace, lam, omegas):
    """Complex G(-lam + i omega) at each omega, with lam broadcast against
    omegas (one rate, or one per frequency), in the broadcast shape.

    A realization of a transfer function is evaluated from its polynomials
    by Horner's rule (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 5; inf or NaN at a pole, with numpy's warning).  Any
    other StateSpace goes through the complex Schur form A = Z T Z^H that
    its cached real Schur form gives (StateSpace.response_form): one O(n^2)
    back-substitution through sI - T per frequency, the Python loop running
    over the states or the frequencies, whichever are fewer; G is NaN
    there, without a warning, where s is a pole (a diagonal entry of T).
    """
    s = -lam + 1j * omegas
    if system._tf is not None:
        return system._tf.eval_unchecked(s)
    T, b, c = system.response_form
    s = np.asarray(s)
    flat = s.reshape(-1)
    n = system.n
    X = np.empty((n, flat.size), dtype=complex)
    if flat.size < n:
        for k, sk in enumerate(flat):
            M = -T
            M.flat[:: n + 1] += sk
            X[:, k], info = _ztrtrs(M, b[:, 0])
            if info:  # sk is a pole: LAPACK left the column unsolved
                X[:, k] = np.nan
    else:
        # a pole's column is solved at a point outside the spectrum instead
        # (no division by zero) and then reported as NaN, as the loop does
        pole = (flat == np.diag(T)[:, None]).any(axis=0)
        if pole.any():
            flat = np.where(pole, 1.0 + np.abs(np.diag(T)).max(), flat)
        for i in range(n - 1, -1, -1):
            X[i] = (b[i, 0] + T[i, i + 1 :] @ X[i + 1 :]) / (flat - T[i, i])
        X[:, pole] = np.nan
    return (c[0] @ X + system.D[0, 0]).reshape(s.shape)


@functools.cache
def _log_grid(points: int) -> np.ndarray:
    log = np.logspace(math.log10(GRID_OMEGA_MIN), math.log10(GRID_OMEGA_MAX), points)
    log.setflags(write=False)
    return log


def coarse_grid(poles: np.ndarray, points: int) -> np.ndarray:
    """Frequency 0, a log grid of the given size over [GRID_OMEGA_MIN,
    GRID_OMEGA_MAX] (built once per size), and the pole resonance
    frequencies, sorted: the one row of _grid_rows for one spectrum."""
    row = _grid_rows(poles[None], points)[0]
    return row[~np.isnan(row)]


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    """Ascending indices k with vals[k] >= both neighbours (a missing
    neighbour counts as -inf)."""
    padded = np.concatenate([[-math.inf], vals, [-math.inf]])
    return np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]))


def line_norm_grid(system: StateSpace | RationalFunction, line: Line) -> NormResult:
    """Grid estimate (lower bound) of sup |G| on a vertical line.

    Every local maximum of |G| on coarse_grid(poles, GRID_POINTS) is
    polished between its grid neighbours by _polish, the level search's
    refiner, all of them with one response call per round, to a gain below
    1e-9 of the best grid value.  A lightly damped mode peaks just below
    its pole frequency, a grid point; so a maximum at the last point is
    polished on its one interval, as the triple (a, b, b), when that point
    is a pole frequency above GRID_OMEGA_MAX, and stays as sampled at
    GRID_OMEGA_MAX itself.  One at omega = 0 stays too: |G| of a real
    system is stationary there.  For a biproper G the limiting value at
    infinite frequency competes as a candidate as well.
    """
    ss = as_state_space(system)
    _pole_guard(ss.poles(), line)
    return _grid_sup(ss, line)


def _grid_sup(ss: StateSpace, line: Line) -> NormResult:
    """line_norm_grid of a system with no pole on the line, unchecked."""
    limit = abs(float(ss.D[0, 0]))
    omegas = coarse_grid(ss.poles(), GRID_POINTS)
    vals = np.abs(frequency_response(ss, line.lam, omegas))
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("magnitude overflow on the frequency grid")
    j = int(np.argmax(vals))
    best_w, best_v = float(omegas[j]), float(vals[j])
    # repeating the last point gives it the triple (a, b, b)
    w3, v3 = np.append(omegas, omegas[-1]), np.append(vals, vals[-1])
    top = omegas.size if omegas[-1] > GRID_OMEGA_MAX else omegas.size - 1
    starts = [
        (k, tuple(w3[k - 1 : k + 2].tolist()), tuple(v3[k - 1 : k + 2].tolist()))
        for k in _local_maxima(vals)
        if 0 < k < top
    ]

    def response(members, w):
        return frequency_response(ss, line.lam, w)

    for w, v in _polish(starts, response, 1e-9 * max(1.0, best_v)).values():
        if v > best_v:
            best_w, best_v = w, v
    peak = best_w
    if limit > best_v:
        best_v = limit
        peak = math.inf
    return NormResult(value=best_v, method="grid", peak_frequency=peak)


def _near_feedthrough(d, gamma):
    """Whether the level gamma lies within 1e-12 (relative to the larger of
    d^2 and gamma^2) of |d|, where R = d^2 - gamma^2 in the Hamiltonian loses
    its precision (elementwise)."""
    return np.abs(d * d - gamma * gamma) <= 1e-12 * np.maximum(d * d, gamma * gamma)


def _hamiltonians(A, B, C, d, lam, gamma) -> np.ndarray:
    """Stack of Hamiltonians [[F, -(gamma/R) B B'], [(gamma/R) C'C, -F']]
    with R = d^2 - gamma^2 and F = A + lam I - (d/R) B C, one per member of
    A (K, n, n), B (K, n, 1), C (K, 1, n), d (K,), lam (K,) and gamma (K,).
    A level whose R or H overflows raises NumericalFailure; one within the
    _near_feedthrough guard of |d| InvalidInput (after R's check)."""
    n = A.shape[-1]
    H = np.empty((d.size, 2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        R = d * d - gamma * gamma
        _require_finite(np.isfinite(R), gamma)
        near = _near_feedthrough(d, gamma)
        if near.any():
            k = int(near.argmax())
            raise InvalidInput(
                "level %g is too close to the feedthrough magnitude %g" % (gamma[k], abs(d[k]))
            )
        F = A + lam[:, None, None] * np.eye(n) - (d / R)[:, None, None] * (B @ C)
        H[:, :n, :n] = F
        H[:, :n, n:] = -(gamma / R)[:, None, None] * (B @ B.transpose(0, 2, 1))
        H[:, n:, :n] = (gamma / R)[:, None, None] * (C.transpose(0, 2, 1) @ C)
        H[:, n:, n:] = -F.transpose(0, 2, 1)
    _require_finite(np.isfinite(H).all(axis=(1, 2)), gamma)
    return H


def _require_finite(finite, gamma) -> None:
    """NumericalFailure naming the first level gamma[k] with finite[k] False."""
    if not finite.all():
        raise NumericalFailure("the level test at %g overflows" % gamma[int(finite.argmin())])


def build_hamiltonian(ss: StateSpace, gamma: float, line: Line) -> np.ndarray:
    """The Hamiltonian (2n x 2n) whose imaginary-axis eigenvalues mark the
    frequencies where |G(-lam + i omega)| crosses the level gamma."""
    if ss.n == 0:
        raise InvalidInput("Hamiltonian requires at least one state")
    H = _hamiltonians(
        ss.A[None], ss.B[None], ss.C[None], ss.D[0], np.array([line.lam]), np.array([gamma])
    )
    return H[0]


def _require_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidInput("tolerance must be positive and finite")


def _vertex(a: float, b: float, c: float, fa: float, fb: float, fc: float) -> float:
    """Next polish point inside (a, c) for |G| values fb >= fa, fc: the
    vertex of the parabola through the three points of 1/|G|^2 (exact at an
    isolated mode), or a golden step into the wider side when that vertex is
    undefined or outside (a, c)."""
    try:
        ua, ub, uc = 1.0 / (fa * fa), 1.0 / (fb * fb), 1.0 / (fc * fc)
        p, q = (b - a) * (ub - uc), (b - c) * (ub - ua)
        x = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q)
    except ZeroDivisionError:
        x = math.nan
    if a < x < c:
        return x
    return b + _GOLD * (c - b) if c - b > b - a else b - _GOLD * (b - a)


def _polish(starts, response, tol: float) -> dict:
    """Refine grid maxima, one response call per round for all members.

    starts holds (member, (a, b, c), (|G(a)|, |G(b)|, |G(c)|)) with b the
    member's best grid point between its grid neighbours a < b < c (c = b
    at the grid's last point, where _vertex steps into (a, b)).  Each
    round measures the _vertex x and the two points |x - b|/2 either side
    of it; the best point and its nearest neighbours become the new
    a < b < c.  A round that leaves b in place still narrows (a, c), so
    the member goes on; it stops once a round moves b and gains less than
    tol/8, or after _POLISH_ROUNDS rounds.  Returns member -> best
    (omega, |G|), both measured.
    """
    best = {}
    for _ in range(_POLISH_ROUNDS):
        if not starts:
            break
        probes = []
        for _, (a, b, c), f in starts:
            x = _vertex(a, b, c, *f)
            h = 0.5 * abs(x - b)
            probes.append((max(x - h, 0.5 * (a + x)), x, min(x + h, 0.5 * (x + c))))
        members = np.repeat([k for k, _, _ in starts], 3)
        mags = np.abs(response(members, np.array(probes).reshape(-1))).reshape(-1, 3)
        going = []
        for (k, w, f), xs, fx in zip(starts, probes, mags.tolist()):
            # a and c stay the outermost points; b, the best so far, is inside
            pts = sorted(zip(w + xs, f + tuple(fx)))
            j = max(range(1, 5), key=lambda i: pts[i][1])
            w_new, f_new = zip(*pts[j - 1 : j + 2])
            best[k] = (w_new[1], f_new[1])
            if w_new[1] == w[1] or f_new[1] - f[1] >= 0.125 * tol:
                going.append((k, w_new, f_new))
        starts = going
    return best


def _unique_rows(*parts) -> np.ndarray:
    """np.unique of 0 and the non-NaN entries of each row of parts (K-row
    arrays side by side), NaN-padded: one sort, repeats blanked, one more."""
    X = np.sort(np.concatenate((np.zeros((parts[0].shape[0], 1)),) + parts, axis=1), axis=1)
    X[:, 1:][X[:, 1:] == X[:, :-1]] = np.nan
    return np.sort(X, axis=1)


def _grid_rows(poles: np.ndarray, points: int = 64) -> np.ndarray:
    """coarse_grid(poles[k], points) of each row of a stack (K, n) of spectra."""
    return _unique_rows(np.tile(_log_grid(points), (len(poles), 1)), np.abs(poles.imag))


def _crossing_rows(w: np.ndarray, band: np.ndarray) -> np.ndarray:
    """0 and the |Im w| of the eigenvalues in each row of w within band."""
    return _unique_rows(np.where(np.abs(w.real) <= band[:, None], np.abs(w.imag), np.nan))


def _measured_rows(response, members, rows: np.ndarray):
    """|response| on rows (row i at members[i]; -inf at NaN) and each row's argmax."""
    kept = ~np.isnan(rows)
    mags = np.full(rows.shape, -math.inf)
    if kept.any():
        mags[kept] = np.abs(response(members[np.nonzero(kept)[0]], rows[kept]))
    return mags, mags.argmax(axis=1).tolist()


def _level_search(A, B, C, D, poles, lams, tol: float, response) -> list[NormResult]:
    """Bracket sup |G_k| for K SISO systems of one size at once, member k
    on the line of rate lams[k].

    A (K, n, n), B (K, n, 1), C (K, 1, n), D (K,), poles (K, n) and lams
    (K,) stack the members, poles[k] being member k's spectrum (checked
    against its line by the caller); response(members, omegas), members
    ascending, returns G_members[i](-lams[members[i]] + i omegas[i]).  Each
    member's lower end starts at the larger of |D| and the best point of its
    coarse grid, which _polish refines between its grid neighbours unless it
    is omega = 0 (where |G| of a real system is stationary) or the last grid
    point.  Then every step tests the levels lo + tol/2 of all unsettled
    members with one stacked eigensolve and measures all their crossing
    midpoints with one response call (see line_norm_bisection); from the
    polished start a search typically settles at its first test.  Grids and
    crossings are rows of one array, sorted at once.  A member with no
    states or a zero lower end is settled at once with the bracket (lo, lo).
    """
    K, n = D.size, A.shape[-1]
    lo = np.abs(D).tolist()
    peak = [math.inf] * K
    if n:
        grids = _grid_rows(poles)
        vals, best = _measured_rows(response, np.arange(K), grids)
        starts = []  # (member, (a, b, c), (|G(a)|, |G(b)|, |G(c)|)) to polish
        for k, (j, size) in enumerate(zip(best, (~np.isnan(grids)).sum(axis=1).tolist())):
            if vals[k, j] > lo[k]:
                lo[k], peak[k] = float(vals[k, j]), float(grids[k, j])
                if 0 < j < size - 1:
                    w3, v3 = grids[k, j - 1 : j + 2].tolist(), vals[k, j - 1 : j + 2].tolist()
                    starts.append((k, tuple(w3), tuple(v3)))
        for k, (w, v) in _polish(starts, response, tol).items():
            lo[k], peak[k] = v, w
    live = [k for k in range(K) if n and lo[k] > 0.0]
    hi = list(lo)
    peak = [f if k in live else 0.0 for k, f in enumerate(peak)]
    for _ in range(50):
        if not live:
            break
        stack = tuple(X[live] for X in (A, B, C, D, lams))
        # lo + tol would let rounding push the bracket width past tol
        gamma = np.array([lo[k] for k in live]) + 0.5 * tol
        try:
            H = _hamiltonians(*stack, gamma)
        except InvalidInput as exc:
            # the one level rejected here is one within the guard of |D|:
            # the request is well formed, the tolerance too fine
            d = stack[3][_near_feedthrough(stack[3], gamma)][0]
            raise NumericalFailure(
                "tolerance %g is below what the level test can resolve at |D| = %g"
                % (tol, abs(d))
            ) from exc
        w = matkernel.eig(H)
        band = 3.0 * TAU_HAM * np.maximum(1.0, np.sqrt(np.einsum("kij,kij->k", H, H)))
        cands = _crossing_rows(w, band)
        mids = 0.5 * (cands[:, :-1] + cands[:, 1:])
        mags, best = _measured_rows(response, np.array(live), mids)
        unsettled = []
        for i, (k, g, j) in enumerate(zip(live, gamma.tolist(), best)):
            if mags[i, j] <= lo[k]:  # -inf when there is no midpoint
                hi[k] = g
            else:
                lo[k], peak[k] = float(mags[i, j]), float(mids[i, j])
                unsettled.append(k)
        live = unsettled
    if live:
        raise NumericalFailure("level iteration did not settle in 50 steps")
    return [
        NormResult(
            value=0.5 * (a + b),
            method="bisection",
            peak_frequency=f,
            tolerance=tol,
            bracket=(a, b),
        )
        for a, b, f in zip(lo, hi, peak)
    ]


def _line_searches(ss: StateSpace, lines, tol: float) -> list[NormResult]:
    """line_norm_bisection on each of the given lines of one system,
    whose poles the caller has kept off them, run as one batch: every step
    makes one stacked eigensolve and one response call for all lines."""
    K = len(lines)
    lams = np.array([line.lam for line in lines])

    def response(members, omegas):
        return frequency_response(ss, lams[members], omegas)

    A, B, C, P = (np.array([X] * K) for X in (ss.A, ss.B, ss.C, ss.poles()))
    return _level_search(A, B, C, np.repeat(ss.D[0], K), P, lams, tol, response)


def line_norm_bisection(
    system: StateSpace | RationalFunction, line: Line, tol: float = 1e-6
) -> NormResult:
    """Bracket sup |G| on a line by the measured-midpoint level iteration.

    The lower end lo is always a measured |G|: first the feedthrough limit
    and the best point of a coarse grid, polished inside its grid interval
    (see _level_search).  Each step tests the level
    gamma = lo + tol/2: the imaginary-axis eigenvalues of the Hamiltonian
    at gamma are the frequencies where |G| crosses gamma, and between two
    consecutive crossings |G| - gamma keeps one sign, so |G| at the interval
    midpoints shows every interval above gamma.  The best midpoint above lo
    becomes the new lo; when none is, (lo, gamma) brackets the supremum
    (Boyd and Balakrishnan 1990, Bruinsma and Steinbuch 1990).  The name is
    kept from the bisection this iteration replaced.
    """
    ss = as_state_space(system)
    _require_tol(tol)
    _pole_guard(ss.poles(), line)
    return _line_searches(ss, [line], tol)[0]


def singular_value_test(
    ss: StateSpace, gamma: float, omega0: float, line: Line
) -> bool:
    """Whether gamma is attained as |G(-lam + i omega0)| according to the
    Hamiltonian criterion: the shifted test matrix is singular at i omega0."""
    if not math.isfinite(omega0):
        raise InvalidInput("test frequency must be finite")
    H = build_hamiltonian(ss, gamma, line)
    M = H - 1j * omega0 * np.eye(H.shape[0])
    smin = float(np.linalg.svd(M, compute_uv=False)[-1])
    return smin <= TAU_HAM * max(1.0, float(np.linalg.norm(H)))


def strip_norm(
    system: StateSpace | RationalFunction,
    strip: Strip,
    method: str = "bisection",
    tol: float = 1e-6,
) -> NormResult:
    """Supremum of |G| over a strip with no poles in its closure.

    Computed as the max of the two boundary line norms (the level search
    runs both lines as one batch), attained on the side 'lo' or 'hi'.  |G|
    at five interior rates, sampled on coarse_grid(poles, 64) with one
    response call, then cross-checks the boundary-maximum principle: no
    sample may exceed the reported value by more than maxmod_slack of it.
    """
    ss = as_state_space(system)
    _pole_guard(ss.poles(), strip)  # it covers the edges too
    if method == "bisection":
        _require_tol(tol)
    elif method != "grid":
        raise InvalidInput("unknown method %r (expected 'grid' or 'bisection')" % method)
    return _strip_sup(ss, strip, method, tol)


def _strip_sup(ss: StateSpace, strip: Strip, method: str, tol: float) -> NormResult:
    """strip_norm of a system with no pole on the closed strip, unchecked."""
    edges = (strip.lower_line, strip.upper_line)
    if method == "grid":
        lo_res, hi_res = (_grid_sup(ss, line) for line in edges)
    else:
        lo_res, hi_res = _line_searches(ss, edges, tol)
    value = max(lo_res.value, hi_res.value)
    rates = strip.interior_rates(5)
    mags = np.abs(frequency_response(ss, np.array(rates)[:, None], coarse_grid(ss.poles(), 64)))
    for lam, worst in zip(rates, mags.max(axis=1)):
        if worst > value + maxmod_slack(value):
            raise NumericalFailure(
                "interior magnitude %.6g exceeds boundary maximum %.6g at rate %g"
                % (worst, value, lam)
            )
    side, res = ("lo", lo_res) if lo_res.value >= hi_res.value else ("hi", hi_res)
    return replace(res, attaining_boundary=side, boundary_values=(lo_res.value, hi_res.value))


def h2_line_norm(G: StateSpace | RationalFunction, line: Line) -> float:
    """Energy (L2) norm of G along a vertical line via split Gramians.

    The realization's Schur form is split at the line (one factorisation in
    all).  Shifted by lam, the stable block T22 is integrated forward and
    the antistable block T11 backward, i.e. as the stable -T11; each
    contributes B' Q B for its observability Gramian Q, solved on its
    quasi-triangular block, and the two time supports are disjoint so there
    is no cross term.  A model with no states has norm 0; one with a
    feedthrough, or an improper transfer function, diverges.
    """
    ss = as_state_space(G) if isinstance(G, StateSpace) or G.is_proper else None
    if ss is None or ss.D.any():
        raise DivergentIntegral("line energy norm diverges unless strictly proper")
    p, n = _pole_guard(ss.poles(), line), ss.n
    split = matkernel.split_spectrum(ss.schur, line.lam, p)
    T, w = split.T + line.lam * np.eye(n), split.w + line.lam
    Bt = split.inverse @ ss.B
    Ct = ss.C @ split.transform
    total = 0.0
    if n - p:
        Q = matkernel.lyap_quasi(T[p:, p:], w[p:], Ct[:, p:].T @ Ct[:, p:])
        total += float((Bt[p:].T @ Q @ Bt[p:])[0, 0])
    if p:
        Q = matkernel.lyap_quasi(-T[:p, :p], -w[:p], Ct[:, :p].T @ Ct[:, :p])
        total += float((Bt[:p].T @ Q @ Bt[:p])[0, 0])
    if total < -1e-12:
        raise NumericalFailure("energy norm computed negative: %g" % total)
    return math.sqrt(max(total, 0.0))


def decompose_line(G: StateSpace | RationalFunction, line: Line):
    """Split G into the parts analytic right and left of a vertical line.

    Returns (g_minus, g_plus): g_minus collects the partial-fraction terms
    whose poles lie left of the line, g_plus those right of it; they sum back
    to G.  The line is guarded on the poles of the expansion (clustered and
    conjugate-paired, as laplace.inverse classifies them).  A state-space
    model is split as its transfer function (its realized one, or tf_of).
    """
    if isinstance(G, StateSpace):
        G = G._tf if G._tf is not None else tf_of(G)
    if not G.is_strictly_proper:
        raise ImproperTransferFunction("line decomposition needs a strictly proper G")
    _, terms = partial_fractions(G)
    _pole_guard(np.array([t.pole for t in terms]), line)
    mterms = [t for t in terms if t.pole.real < -line.lam]
    pterms = [t for t in terms if t.pole.real > -line.lam]
    zero = Polynomial((0.0,))
    g_minus = recombine(zero, mterms) if mterms else RationalFunction([0.0], [1.0])
    g_plus = recombine(zero, pterms) if pterms else RationalFunction([0.0], [1.0])
    return g_minus, g_plus


def frequency_response_data(
    system: StateSpace | RationalFunction, line: Line, omegas, uncertainty: float = 0.0
) -> np.ndarray:
    """Tabulate G along a line: rows (omega, re, im, mag, uncertainty * mag).
    It alone also takes a bare RationalFunction, which may be improper."""
    if not (uncertainty >= 0 and math.isfinite(uncertainty)):
        raise InvalidInput("uncertainty scale must be finite and >= 0")
    bare = isinstance(system, RationalFunction)  # possibly improper
    _pole_guard(system.poles if bare else system.poles(), line)
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInput("omegas must be a non-empty 1-D array")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("omegas must be finite")
    s = -line.lam + 1j * w
    z = system.eval_unchecked(s) if bare else frequency_response(system, line.lam, w)
    mag = np.abs(z)
    return np.column_stack([w, z.real, z.imag, mag, uncertainty * mag])
