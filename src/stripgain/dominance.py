"""Dominance certificates and exponentially weighted gain bounds.

A system is p-dominant at rate lam when exactly p eigenvalues of A + lam I
lie in the open right half plane; the certificate is a symmetric P with p
negative and n - p positive eigenvalues making A'P + PA + 2 lam P strictly
negative.  Gains at rate lam bound the weighted input-output map and combine
across a feedback loop by the small-gain product test.  Both certificates
read real Schur forms reordered by matkernel: the model's cached one, split
at the rate line, and the Hamiltonian's, for its stable subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import matkernel
from .errors import (
    IllPosed,
    InvalidInput,
    MarginalRate,
    NotPDominant,
    NotPDominantAtSlope,
    NumericalFailure,
    StripgainError,
)
from .rational import Polynomial, RationalFunction
from .regions import Line, Strip, _on_band
from .statespace import StateSpace, as_state_space, realize
from .stripnorm import (
    _level_search,
    _line_searches,
    _require_tol,
    _strip_sup,
    build_hamiltonian,
    frequency_response,
)

TAU_INERTIA = 1e-8


class Inertia(NamedTuple):
    negative: int
    zero: int
    positive: int


def inertia(M) -> Inertia:
    """Signature of a symmetric matrix with a scale-relative zero band."""
    A = matkernel.as_square_matrix(M, "M")
    if A.shape[0] == 0:
        return Inertia(0, 0, 0)
    w = matkernel.sym_eig(A)
    tol = TAU_INERTIA * max(1.0, float(np.max(np.abs(w))))
    neg = int(np.count_nonzero(w < -tol))
    pos = int(np.count_nonzero(w > tol))
    return Inertia(neg, len(w) - neg - pos, pos)


@dataclass(frozen=True)
class DominanceCertificate:
    """Symmetric certificate for p-dominance at a rate."""

    P: np.ndarray
    epsilon: float
    lmi_residual: float
    p: int
    rate: float


def _shifted(ss: StateSpace, lam: float) -> np.ndarray:
    return ss.A + lam * np.eye(ss.n)


def require_dominance(ss: StateSpace, p: int, rate: float) -> None:
    """Check p-dominance at the given rate by counting eigenvalues.

    Counts the system's cached poles right of the line Re(s) = -rate: a pole
    on the line by the rule of regions._on_band raises MarginalRate, a count
    other than p raises NotPDominant.  No certificate is built.
    """
    if not isinstance(ss, StateSpace):
        raise InvalidInput("dominance_check expects a StateSpace")
    _require_count(ss.poles(), p, rate)


def _require_count(poles: np.ndarray, p: int, rates) -> None:
    """require_dominance on a spectrum at a rate, or at each of a sequence of
    rates in order, all counted by one broadcast _on_band call."""
    lams = np.reshape(rates, (-1, 1))
    for lam, count, on in zip(lams[:, 0].tolist(), *_on_band(poles, lams, lams)):
        error = _count_error(poles, p, lam, count, on)
        if error is not None:
            raise error


def _count_error(eigs: np.ndarray, p: int, rate: float, count: int, on: np.ndarray):
    """The error require_dominance raises for eigs at the rate, given their
    _on_band count and mask there; None when they are p-dominant."""
    n = eigs.size
    if p < 0 or p > n:
        return InvalidInput("p must lie in [0, %d], got %d" % (n, p))
    if not math.isfinite(rate) or rate < 0:
        return InvalidInput("rate must be finite and >= 0")
    if on.any():
        return MarginalRate(
            "eigenvalue %s of the shifted matrix sits on the axis; "
            "dominance at rate %g is marginal" % (eigs[on][0] + rate, rate)
        )
    if count != p:
        return NotPDominant(
            "expected %d eigenvalues right of the shifted axis, found %d" % (p, count),
            expected=p,
            actual=int(count),
        )
    return None


def dominance_check(ss: StateSpace, p: int, rate: float) -> DominanceCertificate:
    """Verify p-dominance at the given rate and build a certificate.

    After require_dominance counts poles(), the spectrum of the system's one
    real Schur form, that form is split at the rate line at that count
    (matkernel.split_spectrum), and P is assembled from Lyapunov solutions on
    the two diagonal blocks, mapped back by the split's inverse.  A residual
    A'P + PA + 2 rate P below -n u ||.||_F (the symmetric eigensolver's error)
    fixes P's signature at (p, 0, n - p) by the inertia theorem of Ostrowski
    and Schneider (1962).  P, epsilon and lmi_residual are in the model's
    coordinates: a realization's are its balanced ones (realize).
    """
    require_dominance(ss, p, rate)
    n = ss.n
    if n == 0:
        return DominanceCertificate(
            P=np.zeros((0, 0)), epsilon=0.0, lmi_residual=0.0, p=0, rate=rate
        )
    split = matkernel.split_spectrum(ss.schur, rate, p)
    T, w, Si = split.T + rate * np.eye(n), split.w + rate, split.inverse
    P = np.zeros((n, n))
    if p:
        P_plus = matkernel.lyap_quasi(T[:p, :p], w[:p], -np.eye(p))
        P -= Si[:p].T @ P_plus @ Si[:p]
    if n - p:
        P_minus = matkernel.lyap_quasi(T[p:, p:], w[p:], np.eye(n - p))
        P += Si[p:].T @ P_minus @ Si[p:]
    P = 0.5 * (P + P.T)
    At = _shifted(ss, rate)
    M0 = At.T @ P + P @ At
    eps, residual = _strict_margin(0.5 * (M0 + M0.T), n)
    return DominanceCertificate(
        P=P, epsilon=eps, lmi_residual=residual, p=p, rate=rate
    )


def _strict_margin(M0: np.ndarray, k: int, formed: float = 0.0) -> tuple[float, float]:
    """(eps, residual) of a certificate inequality M0 + eps diag(I_k, 0) < 0,
    M0 symmetric: eps = -mu_max / 2 for mu_max = lambda_max(M0), residual =
    lambda_max of the strict matrix.  Both must lie below -size u ||M0||_F, the
    symmetric eigensolver's error (||M0|| bounds the strict matrix's norm),
    less formed, the caller's bound on the rounding error of forming M0."""
    mu_max = float(matkernel.sym_eig(M0)[-1])
    err = M0.shape[0] * np.finfo(float).eps * float(np.linalg.norm(M0)) + formed
    if mu_max >= -err:
        raise NumericalFailure("certificate residual %g is not below -%g" % (mu_max, err))
    eps = 0.5 * (-mu_max)
    residual = float(matkernel.sym_eig(M0 + eps * np.diag(np.arange(M0.shape[0]) < k))[-1])
    if residual >= -err:
        raise NumericalFailure("strict certificate residual %g is not below -%g" % (residual, err))
    return eps, residual


@dataclass(frozen=True)
class GainLmiReport:
    """Largest eigenvalue of the gain matrix inequality plus the P signature."""

    residual: float
    p_inertia: Inertia

    @property
    def valid(self) -> bool:
        return self.residual <= 0.0


def _gain_matrix(ss: StateSpace, P: np.ndarray, gamma: float, rate: float) -> np.ndarray:
    """The gain inequality's symmetric matrix at eps = 0: P certifies gamma at
    the rate when adding eps > 0 to its first n diagonal entries makes it < 0."""
    At = _shifted(ss, rate)
    TL = At.T @ P + P @ At + ss.C.T @ ss.C
    TR = P @ ss.B + ss.C.T @ ss.D
    BR = ss.D.T @ ss.D - gamma * gamma
    M = np.block([[TL, TR], [TR.T, BR]])
    return 0.5 * (M + M.T)


def _forming_error(ss: StateSpace, P: np.ndarray, rate: float) -> float:
    """Norm bound on _gain_matrix's rounding: gamma_{n+2} |X||Y| per product X Y (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3); for a realization, plus that of
    its printed P in the given coordinates, mapped back by diag(T, I): times max(1, t)^2."""
    norm, t = np.linalg.norm, ss._t
    P_part = norm(P) * (2.0 * norm(_shifted(ss, rate)) + norm(ss.B))
    C_part = norm(ss.C) * (norm(ss.C) + norm(ss.D))
    error = (ss.n + 2) * np.finfo(float).eps * float(P_part + C_part)
    if t is None:
        return error
    given = StateSpace(ss.A * np.outer(t, 1.0 / t), t[:, None] * ss.B, ss.C / t, ss.D)
    return error + _forming_error(given, ss.in_given_coordinates(P), rate) * max(1.0, t.max()) ** 2


def verify_gain_lmi(
    ss: StateSpace, P, gamma: float, rate: float, eps: float = 0.0
) -> GainLmiReport:
    """Assemble the gain certificate inequality and report its largest
    eigenvalue (negative means P certifies the level gamma at this rate).
    ``valid`` is a bare floating-point sign test of it, weaker than the
    margin the certificate builders accept P by (_strict_margin)."""
    Pm = matkernel.as_square_matrix(P, "P")
    if Pm.shape[0] != ss.n:
        raise InvalidInput("P must be %d x %d" % (ss.n, ss.n))
    if gamma < 0 or eps < 0:
        raise InvalidInput("gamma and eps must be >= 0")
    M = _gain_matrix(ss, Pm, gamma, rate)
    M[: ss.n, : ss.n] += eps * np.eye(ss.n)
    residual = float(matkernel.sym_eig(M)[-1])
    return GainLmiReport(residual=residual, p_inertia=inertia(Pm) if ss.n else Inertia(0, 0, 0))


@dataclass(frozen=True)
class GainCertificate:
    """Weighted-gain bound at one rate (or the worse of a strip's two edges).

    ``P`` (optional) certifies the slightly inflated level
    ``certified_gamma`` through the gain matrix inequality.
    """

    gamma: float
    rate: float
    p: int
    P: np.ndarray | None = None
    epsilon: float = 0.0
    lmi_residual: float | None = None
    certified_gamma: float | None = None
    bracket: tuple[float, float] | None = None
    boundary_gammas: tuple[float, float] | None = None


def _riccati_certificate(ss: StateSpace, gamma: float, line: Line, tol: float):
    """Try to build a gain certificate P from the Hamiltonian's stable
    invariant subspace (its real Schur form with the eigenvalues of negative
    real part reordered first) at a level inflated above gamma (the bracket
    top); return None when no rung passes _strict_margin, the one acceptance
    rule: its strict gain inequality makes A'P + PA + 2 rate P < 0, which
    fixes P's signature at (p, 0, n - p) by the inertia theorem; as P is
    printed, its margin must also clear the rounding of forming that
    inequality from it.

    Two ladders guard the construction.  The exact subspace solution at the
    build level leaves the certificate matrix only negative semidefinite
    (level inflation adds margin in the rank-one input direction alone), so
    the output weight is regularized to C^T C + eta I before extracting P
    and eta is walked down until the strict inequality verifies.  When the
    build level itself sits too close to the supremum for the subspace to be
    computed accurately, the inflation factor is walked up instead; the
    certified level is always reported, never assumed.
    """
    n = ss.n
    d = abs(float(ss.D[0, 0]))
    c_scale = max(1.0, float(np.linalg.norm(ss.C) ** 2))
    for inflation in (10.0 * tol, 1e-4, 1e-3):
        gamma_build = gamma * (1.0 + inflation)
        try:
            H0 = build_hamiltonian(ss, gamma_build, line)
        except (InvalidInput, NumericalFailure, ValueError):
            continue
        R = d * d - gamma_build * gamma_build
        cert_gamma = gamma_build * (1.0 + inflation)
        for eta_rel in (tol, 1e-8, 1e-10):
            eta = eta_rel * c_scale
            H = H0.copy()
            H[n:, :n] += (gamma_build / R) * eta * np.eye(n)
            try:
                S = matkernel.real_schur(H)
                _, Z, _, sdim = matkernel.reorder_schur(S, np.diag(S.T) < 0)
            except (InvalidInput, NumericalFailure):
                continue
            if sdim != n:
                continue
            X1, X2 = Z[:n, :n], Z[n:, :n]
            try:
                P = gamma_build * np.linalg.solve(X1.T, X2.T).T  # gamma_build X2 X1^-1
                P = 0.5 * (P + P.T)
                M0 = _gain_matrix(ss, P, cert_gamma, line.lam)
                eps, residual = _strict_margin(M0, n, _forming_error(ss, P, line.lam))
            except (np.linalg.LinAlgError, NumericalFailure):
                continue
            return P, eps, residual, cert_gamma
    return None


def _gain_certificate(
    ss: StateSpace, p: int, line: Line, res, tol: float, with_certificate: bool
) -> GainCertificate:
    """GainCertificate of a level-search result on one line, with P built
    when asked for (and when it can be)."""
    P = None
    eps = 0.0
    lmi_residual = None
    cert_gamma = None
    if with_certificate and ss.n > 0 and res.value > 0:
        built = _riccati_certificate(ss, res.bracket[1], line, tol)
        if built is not None:
            P, eps, lmi_residual, cert_gamma = built
    return GainCertificate(
        gamma=res.value,
        rate=line.lam,
        p=p,
        P=P,
        epsilon=eps,
        lmi_residual=lmi_residual,
        certified_gamma=cert_gamma,
        bracket=res.bracket,
    )


def l2p_gain(
    system: StateSpace | RationalFunction,
    p: int,
    line: Line,
    tol: float = 1e-6,
    with_certificate: bool = False,
) -> GainCertificate:
    """Weighted gain of a p-dominant system at one rate.

    Dominance at the rate is checked first (_on_band, whose rates broadcast
    too, also keeps every pole off the line); the gain itself equals the
    supremum of |G| on the line, computed by the Hamiltonian level iteration.
    """
    ss = as_state_space(system)
    _require_count(ss.poles(), p, line.lam)
    _require_tol(tol)
    res = _line_searches(ss, [line], tol)[0]
    return _gain_certificate(ss, p, line, res, tol, with_certificate)


def strip_gain(
    system: StateSpace | RationalFunction,
    p: int,
    strip: Strip,
    tol: float = 1e-6,
    with_certificate: bool = False,
) -> GainCertificate:
    """Worst weighted gain over a rate interval (attained at an endpoint).

    Both endpoint rates must show p-dominance, lo first, counted at once
    (_on_band's rates broadcast too).  That covers the whole interval: the
    count of poles right of -rate never decreases as the rate grows, so a
    pole inside the strip already fails the count at the upper edge.  The
    gain is strip_norm's supremum, with its bracket, boundary values and
    attaining side (and its interior spot check); a certificate, when asked
    for, is built on the attaining edge only.
    """
    ss = as_state_space(system)
    _require_count(ss.poles(), p, (strip.lo, strip.hi))
    _require_tol(tol)
    res = _strip_sup(ss, strip, "bisection", tol)
    line = strip.lower_line if res.attaining_boundary == "lo" else strip.upper_line
    best = _gain_certificate(ss, p, line, res, tol, with_certificate)
    return replace(best, boundary_gammas=res.boundary_values)


def feedback_compose(ss1: StateSpace, ss2: StateSpace) -> StateSpace:
    """Negative feedback interconnection u1 = w - y2, u2 = y1 of two systems,
    each with one input and one output by construction.

    The returned system maps the injection w at the first subsystem's input
    to the first subsystem's output y1 over the stacked state (x1, x2).  The
    feedthroughs d1, d2 close the algebraic loop 1 + d1 d2, which must not
    be 0.
    """
    A1, B1, C1, d1 = ss1.A, ss1.B, ss1.C, float(ss1.D[0, 0])
    A2, B2, C2, d2 = ss2.A, ss2.B, ss2.C, float(ss2.D[0, 0])
    loop = 1.0 + d1 * d2
    if loop == 0.0:
        raise IllPosed("algebraic loop I + D1 D2 is singular")
    phi = 1.0 / loop
    k = 1.0 - d2 * phi * d1  # equals 1 / (1 + d2 d1)
    A = np.block(
        [
            [A1 - B1 * d2 * phi @ C1, -B1 * k @ C2],
            [B2 * phi @ C1, A2 - B2 * phi * d1 @ C2],
        ]
    )
    B = np.vstack([B1 * k, B2 * phi * d1])
    C = np.hstack([phi * C1, -phi * d1 * C2])
    return StateSpace(A, B, C, [[phi * d1]])


@dataclass(frozen=True)
class SmallGainReport:
    """Outcome of the feedback gain product test."""

    gamma1: float
    gamma2: float
    product: float
    conclusive: bool
    closed_p: int | None
    certificate_lo: DominanceCertificate | None
    certificate_hi: DominanceCertificate | None
    message: str


def small_gain_check(
    ss1: StateSpace,
    p1: int,
    ss2: StateSpace,
    p2: int,
    strip: Strip,
    tol: float = 1e-6,
) -> SmallGainReport:
    """Certify (p1 + p2)-dominance of a negative feedback loop.

    When the product of the two strip gains is below one, the closed loop is
    checked for p1 + p2 dominance at both boundary rates and the certificates
    are returned; a product at or above one yields a report marked
    inconclusive (the test proves nothing either way).
    """
    g1 = strip_gain(ss1, p1, strip, tol)
    g2 = strip_gain(ss2, p2, strip, tol)
    product = g1.gamma * g2.gamma
    if product >= 1.0:
        return SmallGainReport(
            gamma1=g1.gamma,
            gamma2=g2.gamma,
            product=product,
            conclusive=False,
            closed_p=None,
            certificate_lo=None,
            certificate_hi=None,
            message="gain product %.6g >= 1; small-gain test is inconclusive" % product,
        )
    closed = feedback_compose(ss1, ss2)
    cert_lo = dominance_check(closed, p1 + p2, strip.lo)
    cert_hi = dominance_check(closed, p1 + p2, strip.hi)
    return SmallGainReport(
        gamma1=g1.gamma,
        gamma2=g2.gamma,
        product=product,
        conclusive=True,
        closed_p=p1 + p2,
        certificate_lo=cert_lo,
        certificate_hi=cert_hi,
        message="closed loop is %d-dominant on both boundary rates" % (p1 + p2),
    )


def classify_attractors(p: int) -> str:
    """Qualitative limit-set description license for a p-dominant system."""
    if p < 0:
        raise InvalidInput("p must be >= 0")
    if p == 0:
        return "unique equilibrium point"
    if p == 1:
        return "a (possibly non-unique) equilibrium point"
    if p == 2:
        return "an equilibrium point, a set of equilibria with connected arcs, or a limit cycle"
    return "no classification available"


@dataclass(frozen=True)
class SlopeLoop:
    """Static-nonlinearity loop: linear path from the nonlinearity output
    (plus injection) back to its input, and the admissible slope interval."""

    linear: StateSpace
    slope_lo: float
    slope_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.slope_lo) and math.isfinite(self.slope_hi)):
            raise InvalidInput("slope bounds must be finite")
        if self.slope_lo > self.slope_hi:
            raise InvalidInput("slope interval is empty")


def _slope_family(L: StateSpace, slopes: np.ndarray):
    """Closed loops of L through each slope k, stacked on a leading axis:
    with d = 1 - k D, (A + (k/d) B C, B/d, k C/d, k D/d).  The stack stops
    before the first slope with d = 0, whose algebraic loop is singular."""
    D = float(L.D[0, 0])
    d = 1.0 - slopes * D
    if not d.all():
        d = d[: int(np.argmin(d != 0.0))]
        slopes = slopes[: d.size]
    k = slopes[:, None, None]
    dd = d[:, None, None]
    return L.A + (k / dd) * (L.B @ L.C), L.B / dd, k * L.C / dd, slopes * D / d


def _ill_posed(slope: float) -> IllPosed:
    return IllPosed("algebraic loop 1 - k D is singular at slope %g" % slope)


def slope_closed_loop(loop: SlopeLoop, slope: float) -> StateSpace:
    """Loop linearized at one slope: injection-to-nonlinearity-output map."""
    A, B, C, D = _slope_family(loop.linear, np.array([float(slope)]))
    if D.size == 0:
        raise _ill_posed(slope)
    return StateSpace(A[0], B[0], C[0], D[:, None])


@dataclass(frozen=True)
class SectorGainResult:
    """Worst gain over a sampled slope interval."""

    gamma: float
    slope_at_max: float
    evaluations: tuple[tuple[float, float], ...]


def _sector_sweeps(loop: SlopeLoop, p: int, lines, tol: float, n_slopes: int):
    """sector_slope_gain on each of the given lines, in order, as one batch:
    one slope family, one stack of spectra, one level search."""
    L = loop.linear
    if n_slopes < 1:
        raise InvalidInput("n_slopes must be >= 1")
    if n_slopes < 2 and loop.slope_lo < loop.slope_hi:
        raise InvalidInput(
            "n_slopes must be >= 2 to sample the slope interval [%g, %g]"
            % (loop.slope_lo, loop.slope_hi)
        )
    _require_tol(tol)
    if loop.slope_lo == loop.slope_hi:
        slopes = np.array([loop.slope_lo])
    else:
        slopes = np.linspace(loop.slope_lo, loop.slope_hi, n_slopes)
    A, B, C, D = _slope_family(L, slopes)
    spectra = matkernel.eig(A)
    rates = np.array([line.lam for line in lines])[:, None, None]
    for line, count, on in zip(lines, *_on_band(spectra, rates, rates)):
        for k in np.flatnonzero(on.any(-1) | (count != p))[:1]:
            exc = _count_error(spectra[k], p, line.lam, count[k], on[k])
            if isinstance(exc, NotPDominant):
                raise NotPDominantAtSlope(
                    "closed loop at slope %g is not %d-dominant at rate %g (%s)"
                    % (slopes[k], p, line.lam, exc),
                    slope=float(slopes[k]),
                    expected=p,
                    actual=exc.actual,
                ) from exc
            raise exc
        if D.size < slopes.size:
            raise _ill_posed(slopes[D.size])
    K, m = slopes.size, len(lines)
    lams = np.repeat(rates.ravel(), K)
    A, B, C, D, P, ks = (np.concatenate([X] * m) for X in (A, B, C, D, spectra, slopes))

    def response(members, omegas):
        # One L response per line, as a one-line sweep makes it: a Schur form
        # rounds with the call's size (members ascend: a line's are a slice).
        # At a pole of L the loop tends to -1 (k != 0: at k = 0 it is L, counted)
        ends = np.searchsorted(members, K * np.arange(1, m + 1)).tolist()
        parts = zip(lines, [0] + ends, ends)
        L_jw = np.concatenate(
            [frequency_response(L, x.lam, omegas[a:b]) for x, a, b in parts if b > a]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            kL = ks[members] * L_jw
            return np.where(np.isfinite(kL), kL / (1.0 - kL), -1.0)

    v = np.reshape([r.value for r in _level_search(A, B, C, D, P, lams, tol, response)], (m, K))
    return [
        SectorGainResult(row[j], float(slopes[j]), tuple(zip(slopes.tolist(), row)))
        for row, j in zip(v.tolist(), v.argmax(axis=1).tolist())
    ]


def sector_slope_gain(
    loop: SlopeLoop,
    p: int,
    line: Line,
    tol: float = 1e-6,
    n_slopes: int = 11,
) -> SectorGainResult:
    """Largest weighted gain of the slope-linearized loop over a slope grid.

    Every sampled slope must keep the closed loop p-dominant at the rate;
    a failing slope raises NotPDominantAtSlope.  The returned gamma is the
    max of the per-slope gains (the slope grid, n_slopes >= 2 equally spaced
    slopes from slope_lo to slope_hi or the one slope of a degenerate
    interval, stands in for a continuous sector search).  The slopes are
    checked in order (well-posed loop, then dominance, whose count rejects a
    pole on the line; one count for the stack of all slopes' spectra, the
    first failing slope raising) and then searched as one batch, with the
    closed-loop responses k L / (1 - k L) read from L's frequency_response
    (Horner's rule for a realized tf).
    """
    return _sector_sweeps(loop, p, [line], tol, n_slopes)[0]


@dataclass(frozen=True)
class RobustDominanceReport:
    """robust_dominance's findings: L, its sector gains on the strip's edges,
    the lag's strip gain or (None and) the text of its error, the eigenvalues
    of the loop closed through the lag, and per rate lo, (lo + hi) / 2, hi a
    (rate, count, error): the eigenvalues right of the rate line, None when
    one sits on it, and require_dominance's error for p = 2, None if none."""

    loop: RationalFunction
    sector_lo: SectorGainResult
    sector_hi: SectorGainResult
    lag: GainCertificate | None
    lag_error: str | None
    poles: np.ndarray
    counts: tuple[tuple[float, int | None, StripgainError | None], ...]

    @property
    def product(self) -> float | None:
        """Lag gain times sector gain (the worse edge's), None without the lag's."""
        gamma = max(self.sector_lo.gamma, self.sector_hi.gamma)
        return None if self.lag is None else self.lag.gamma * gamma

    @property
    def confirmed(self) -> bool:
        """Whether the closed loop is 2-dominant at all three rates."""
        return all(error is None for _, _, error in self.counts)


def robust_dominance(
    tau: float, d: float, ki: float, strip: Strip, tol: float = 1e-6, n_slopes: int = 11
) -> RobustDominanceReport:
    """Robust 2-dominance on a strip of the paper's section 5 example: the
    loop L = -ki / (s^2 (s + d)) through a nonlinearity of slope in [0, 1]
    (both edges swept as one batch), the input lag's multiplicative
    perturbation Delta = -tau s / (1 + tau s) (zero at tau = 0), and, as the
    direct check, L closed at slope one through the lag 1 / (1 + tau s)."""
    if not (tau >= 0 and math.isfinite(tau)):
        raise InvalidInput("--tau must be finite and >= 0")
    if not (d > 0 and math.isfinite(d)):
        raise InvalidInput("--d must be finite and > 0")
    if not math.isfinite(ki) or ki == 0:
        raise InvalidInput("--ki must be finite and nonzero")
    L = RationalFunction(Polynomial((-ki,)), Polynomial((0.0, 0.0, d, 1.0)))
    edges = (strip.lower_line, strip.upper_line)
    sector = _sector_sweeps(SlopeLoop(realize(L), 0.0, 1.0), 2, edges, tol, n_slopes)
    delta = RationalFunction(Polynomial((0.0, -tau)), Polynomial((1.0, tau)))
    lag, lag_error = None, None
    try:
        lag = strip_gain(delta, 0, strip, tol)
    except StripgainError as exc:
        lag_error = str(exc)
    minus_one = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-1.0]])
    lag_path = RationalFunction([1.0], Polynomial((1.0, tau)))
    poles = feedback_compose(realize(L * lag_path), minus_one).poles()
    rates = [strip.lo, 0.5 * (strip.lo + strip.hi), strip.hi]
    lams = np.array(rates)[:, None]
    counts = tuple(
        (lam, None if on.any() else int(count), _count_error(poles, 2, lam, count, on))
        for lam, count, on in zip(rates, *_on_band(poles, lams, lams))
    )
    return RobustDominanceReport(L, *sector, lag, lag_error, poles, counts)
