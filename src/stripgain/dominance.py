"""Dominance certificates and exponentially weighted gain bounds.

A system is p-dominant at rate lam when exactly p eigenvalues of A + lam I
lie in the open right half plane; the certificate is a symmetric P with p
negative and n - p positive eigenvalues making A'P + PA + 2 lam P strictly
negative.  Gains at rate lam bound the weighted input-output map and combine
across a feedback loop by the small-gain product test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from . import matkernel
from .errors import (
    IllPosed,
    InvalidInput,
    MarginalRate,
    NotPDominant,
    NotPDominantAtSlope,
    NumericalFailure,
)
from .rational import RationalFunction
from .regions import Line, Strip, _on_band
from .statespace import StateSpace, realize, require_siso
from .stripnorm import (
    _level_search,
    _require_tol,
    build_hamiltonian,
    frequency_response,
    line_norm_bisection,
    strip_norm,
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


def _require_count(poles: np.ndarray, p: int, rate: float) -> None:
    """require_dominance on a given spectrum."""
    n = poles.size
    if p < 0 or p > n:
        raise InvalidInput("p must lie in [0, %d], got %d" % (n, p))
    if not math.isfinite(rate) or rate < 0:
        raise InvalidInput("rate must be finite and >= 0")
    count, near = _on_band(poles, rate, rate)
    if near is not None:
        raise MarginalRate(
            "eigenvalue %s of the shifted matrix sits on the axis; "
            "dominance at rate %g is marginal" % (near + rate, rate)
        )
    if count != p:
        raise NotPDominant(
            "expected %d eigenvalues right of the shifted axis, found %d" % (p, count),
            expected=p,
            actual=count,
        )


def dominance_check(ss: StateSpace, p: int, rate: float) -> DominanceCertificate:
    """Verify p-dominance at the given rate and build a certificate.

    After the eigenvalue count of require_dominance, assembles P from
    Lyapunov solutions of the two split blocks.  A residual A'P + PA + 2 rate P
    below -n u ||.||_F (the symmetric eigensolver's error) fixes P's signature
    at (p, 0, n - p) by the inertia theorem of Ostrowski and Schneider (1962),
    so P's inertia is not measured again.
    """
    require_dominance(ss, p, rate)
    n = ss.n
    if n == 0:
        return DominanceCertificate(
            P=np.zeros((0, 0)), epsilon=0.0, lmi_residual=0.0, p=0, rate=rate
        )
    At = _shifted(ss, rate)
    T, A_plus, A_minus, psplit = matkernel.split_spectrum(At, 0.0, 0.0)
    if psplit != p:
        raise NumericalFailure("spectral split disagrees with eigenvalue count")
    blocks = []
    if p:
        P_plus = matkernel.lyap_solve(A_plus, -np.eye(p))
        blocks.append(-P_plus)
    if n - p:
        P_minus = matkernel.lyap_solve(A_minus, np.eye(n - p))
        blocks.append(P_minus)
    P_tilde = sla.block_diag(*blocks) if blocks else np.zeros((0, 0))
    Ti = np.linalg.inv(T)
    P = Ti.T @ P_tilde @ Ti
    P = 0.5 * (P + P.T)
    M0 = At.T @ P + P @ At
    eps, residual = _strict_margin(0.5 * (M0 + M0.T), n)
    return DominanceCertificate(
        P=P, epsilon=eps, lmi_residual=residual, p=p, rate=rate
    )


def _strict_margin(M0: np.ndarray, k: int) -> tuple[float, float]:
    """(eps, residual) of a certificate inequality M0 + eps diag(I_k, 0) < 0,
    M0 symmetric: eps = -mu_max / 2 for mu_max = lambda_max(M0), residual =
    lambda_max of the strict matrix.  Both must lie below -size u ||M0||_F, the
    symmetric eigensolver's error (||M0|| bounds the strict matrix's norm)."""
    mu_max = float(matkernel.sym_eig(M0)[-1])
    err = M0.shape[0] * np.finfo(float).eps * float(np.linalg.norm(M0))
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
    BR = ss.D.T @ ss.D - gamma * gamma * np.eye(ss.n_inputs)
    M = np.block([[TL, TR], [TR.T, BR]])
    return 0.5 * (M + M.T)


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
    invariant subspace at a level inflated above gamma (the bracket top);
    return None when no rung passes _strict_margin, the one acceptance rule:
    its strict gain inequality makes A'P + PA + 2 rate P < 0, which fixes P's
    signature at (p, 0, n - p) by the inertia theorem.

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
            H0 = build_hamiltonian(ss, gamma_build, line).matrix
        except (InvalidInput, NumericalFailure, ValueError):
            continue
        R = d * d - gamma_build * gamma_build
        cert_gamma = gamma_build * (1.0 + inflation)
        for eta_rel in (tol, 1e-8, 1e-10):
            eta = eta_rel * c_scale
            H = H0.copy()
            H[n:, :n] += (gamma_build / R) * eta * np.eye(n)
            try:
                _, Z, sdim = sla.schur(H, output="real", sort=lambda re, im: re < 0)
            except (NumericalFailure, ValueError):
                continue
            if sdim != n:
                continue
            X1, X2 = Z[:n, :n], Z[n:, :n]
            try:
                P = gamma_build * np.linalg.solve(X1.T, X2.T).T  # gamma_build X2 X1^-1
                P = 0.5 * (P + P.T)
                eps, residual = _strict_margin(_gain_matrix(ss, P, cert_gamma, line.lam), n)
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

    Dominance at the rate is checked first; the gain itself equals the
    supremum of |G| on the line, computed by the Hamiltonian level iteration.
    """
    ss = realize(system) if isinstance(system, RationalFunction) else system
    require_siso(ss, "l2p_gain")
    require_dominance(ss, p, line.lam)
    res = line_norm_bisection(ss, line, tol)
    return _gain_certificate(ss, p, line, res, tol, with_certificate)


def strip_gain(
    system: StateSpace | RationalFunction,
    p: int,
    strip: Strip,
    tol: float = 1e-6,
    with_certificate: bool = False,
) -> GainCertificate:
    """Worst weighted gain over a rate interval (attained at an endpoint).

    Both endpoint rates must show p-dominance.  That covers the whole
    interval: the count of poles right of -rate never decreases as the rate
    grows, so a pole inside the strip already fails the count at the upper
    edge.  The gain is strip_norm's supremum, with its bracket, boundary
    values and attaining side (and its interior spot check); a certificate,
    when asked for, is built on the attaining edge only.
    """
    ss = realize(system) if isinstance(system, RationalFunction) else system
    require_siso(ss, "strip_gain")
    require_dominance(ss, p, strip.lo)
    require_dominance(ss, p, strip.hi)
    res = strip_norm(ss, strip, tol=tol)
    line = strip.lower_line if res.attaining_boundary == "lo" else strip.upper_line
    best = _gain_certificate(ss, p, line, res, tol, with_certificate)
    return replace(best, boundary_gammas=res.boundary_values)


def feedback_compose(ss1: StateSpace, ss2: StateSpace) -> StateSpace:
    """Negative feedback interconnection u1 = w - y2, u2 = y1.

    The returned system maps the injection w at the first subsystem's input
    to the first subsystem's output y1 over the stacked state (x1, x2).
    """
    if ss1.n_inputs != ss2.n_outputs or ss2.n_inputs != ss1.n_outputs:
        raise InvalidInput(
            "feedback dimensions mismatch: (%d in, %d out) against (%d in, %d out)"
            % (ss1.n_inputs, ss1.n_outputs, ss2.n_inputs, ss2.n_outputs)
        )
    A1, B1, C1, D1 = ss1.A, ss1.B, ss1.C, ss1.D
    A2, B2, C2, D2 = ss2.A, ss2.B, ss2.C, ss2.D
    q1 = ss1.n_outputs
    loop = np.eye(q1) + D1 @ D2
    if np.linalg.cond(loop) > 1e12:
        raise IllPosed("algebraic loop I + D1 D2 is singular")
    Phi = np.linalg.inv(loop)
    n1, n2 = ss1.n, ss2.n
    K = np.eye(ss1.n_inputs) - D2 @ Phi @ D1  # equals inv(I + D2 D1)
    A = np.block(
        [
            [A1 - B1 @ D2 @ Phi @ C1, -B1 @ K @ C2],
            [B2 @ Phi @ C1, A2 - B2 @ Phi @ D1 @ C2],
        ]
    )
    B = np.vstack([B1 @ K, B2 @ Phi @ D1])
    C = np.hstack([Phi @ C1, -Phi @ D1 @ C2])
    D = Phi @ D1
    return StateSpace(A, B, C, D)


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


def _minus_one() -> StateSpace:
    return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-1.0]])


def _slope_family(L: StateSpace, slopes: np.ndarray):
    """Closed loops of L through each slope k, stacked on a leading axis:
    with d = 1 - k D, (A + (k/d) B C, B/d, k C/d, k D/d).  The stack stops
    before the first slope with d = 0, whose algebraic loop is singular."""
    D = float(L.D[0, 0])
    d = 1.0 - slopes * D
    if not np.all(d):
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
    max of the per-slope gains (the slope grid stands in for a continuous
    sector search).  The slopes are checked in order (well-posed loop, then
    dominance, whose count rejects a pole on the line) and then searched as
    one batch, with the closed-loop responses k L / (1 - k L) read through
    L's own Schur form.
    """
    L = loop.linear
    require_siso(L, "sector_slope_gain")
    if n_slopes < 1:
        raise InvalidInput("n_slopes must be >= 1")
    _require_tol(tol)
    if loop.slope_lo == loop.slope_hi:
        slopes = np.array([loop.slope_lo])
    else:
        slopes = np.linspace(loop.slope_lo, loop.slope_hi, n_slopes)
    A, B, C, D = _slope_family(L, slopes)
    spectra = matkernel.eig(A)
    for slope, poles in zip(slopes, spectra):
        try:
            _require_count(poles, p, line.lam)
        except NotPDominant as exc:
            raise NotPDominantAtSlope(
                "closed loop at slope %g is not %d-dominant at rate %g (%s)"
                % (slope, p, line.lam, exc),
                slope=float(slope),
                expected=p,
                actual=exc.actual,
            ) from exc
    if D.size < slopes.size:
        raise _ill_posed(slopes[D.size])

    def response(members, omegas):
        # at a pole of L the closed loop tends to -1 (no slope is 0 then:
        # the loop at slope 0 is L, whose poles the count keeps off the line)
        with np.errstate(divide="ignore", invalid="ignore"):
            kL = slopes[members] * frequency_response(L, line.lam, omegas)
            return np.where(np.isfinite(kL), kL / (1.0 - kL), -1.0)

    results = _level_search(A, B, C, D, spectra, np.full(D.size, line.lam), tol, response)
    values = [r.value for r in results]
    best = int(np.argmax(values))
    return SectorGainResult(
        gamma=values[best],
        slope_at_max=float(slopes[best]),
        evaluations=tuple((float(k), v) for k, v in zip(slopes, values)),
    )
