"""Hypothesis properties of the state-space norm path, the batched
sector sweep, the gain certificates and the line energy norm.

Models are drawn from a seed so that every example is a well-conditioned
realization: poles keep a margin from the rate lines and strips analyzed,
and the basis has condition number at most 4.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stripgain import (
    InvalidInput,
    Line,
    MarginalRate,
    NotPDominant,
    NotPDominantAtSlope,
    PoleInStrip,
    PoleOnLine,
    RationalFunction,
    SlopeLoop,
    StateSpace,
    StripgainError,
    Strip,
    decompose_line,
    dominance_check,
    l2p_gain,
    line_norm_bisection,
    line_norm_grid,
    modal_split,
    h2_line_norm,
    realize,
    require_dominance,
    sector_slope_gain,
    slope_closed_loop,
    strip_gain,
    strip_norm,
    tf_of,
    verify_gain_lmi,
)
from stripgain import dominance, matkernel
from stripgain.dominance import _gain_matrix, _require_count, _sector_sweeps
from stripgain.regions import TAU_LINE, _pole_guard
from stripgain.stripnorm import (
    _crossing_rows,
    _grid_rows,
    _line_searches,
    _log_grid,
    coarse_grid,
)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
MARGIN = 0.3


def _poles(rng, n, lo, hi, unstable):
    """n poles (conjugate pairs allowed) with real parts outside the closed
    rate band [lo, hi] widened by MARGIN; right of it only when unstable."""
    out = []
    while len(out) < n:
        if unstable and rng.random() < 0.4:
            re = rng.uniform(-lo + MARGIN, 2.0)
        else:
            re = rng.uniform(-hi - 4.0, -hi - MARGIN)
        if n - len(out) >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.1, 4.0)
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, 0.0))
    return out


def _block_form(poles):
    """Real block-diagonal matrix with the given (conjugate-closed) spectrum."""
    n = len(poles)
    A = np.zeros((n, n))
    k = 0
    while k < n:
        p = poles[k]
        if p.imag:
            A[k : k + 2, k : k + 2] = [[p.real, p.imag], [-p.imag, p.real]]
            k += 2
        else:
            A[k, k] = p.real
            k += 1
    return A


def _change_basis(rng, A, B, C, D):
    n = A.shape[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(0.5, 2.0, n)
    Vi = np.linalg.inv(V)
    return StateSpace(V @ A @ Vi, V @ B, C @ Vi, D)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    unstable=st.booleans(),
)
def test_grid_never_exceeds_bisection_bracket_top(seed, n, unstable):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0)
    A = _block_form(_poles(rng, n, lam, lam, unstable))
    ss = _change_basis(
        rng, A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[0.0]]
    )
    grid = line_norm_grid(ss, Line(lam))
    res = line_norm_bisection(ss, Line(lam))
    lo, hi = res.bracket
    assert grid.value <= hi
    # |G| at the reported peak, by a dense solve rather than the Schur evaluator
    w = res.peak_frequency
    if math.isinf(w):
        at_peak = abs(ss.D[0, 0])
    else:
        x = np.linalg.solve((-lam + 1j * w) * np.eye(n) - ss.A, ss.B[:, 0])
        at_peak = abs(ss.C[0] @ x + ss.D[0, 0])
    assert lo * (1.0 - 1e-9) <= at_peak <= hi


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(1, 3),
    hidden=st.integers(0, 27),
    unstable=st.booleans(),
)
def test_strip_norm_of_ss_matches_its_transfer_function(seed, order, hidden, unstable):
    """A low-order G realized with extra uncontrollable states in a mixed
    basis has the strip norm of G itself."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0)
    strip = Strip(lo, lo + rng.uniform(0.5, 1.5))
    poles = _poles(rng, order, strip.lo, strip.hi, unstable)
    den = np.real(np.polynomial.polynomial.polyfromroots(poles))
    G = RationalFunction(rng.standard_normal(int(rng.integers(1, order + 1))), den)
    core = realize(G)
    n = core.n + hidden
    A = np.zeros((n, n))
    A[: core.n, : core.n] = core.A
    A[: core.n, core.n :] = rng.standard_normal((core.n, hidden))
    A[core.n :, core.n :] = _block_form(_poles(rng, hidden, strip.lo, strip.hi, unstable))
    B = np.vstack([core.B, np.zeros((hidden, 1))])
    C = np.hstack([core.C, rng.standard_normal((1, hidden))])
    ss = _change_basis(rng, A, B, C, core.D)

    want = strip_norm(G, strip)
    got = strip_norm(ss, strip)
    assert got.value == pytest.approx(want.value, abs=2.0 * want.tolerance)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    unstable=st.booleans(),
    feedthrough=st.booleans(),
)
def test_batched_strip_edges_match_separate_line_searches(seed, n, unstable, feedthrough):
    """The two edges of a strip searched as one batch give the brackets of
    two separate line searches, to within the tolerance."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0)
    strip = Strip(lo, lo + rng.uniform(0.2, 1.5))
    A = _block_form(_poles(rng, n, strip.lo, strip.hi, unstable))
    d = rng.uniform(-1.0, 1.0) if feedthrough else 0.0
    ss = _change_basis(
        rng, A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[d]]
    )
    tol = 1e-6
    lines = (strip.lower_line, strip.upper_line)
    for got, line in zip(_line_searches(ss, lines, tol), lines):
        want = line_norm_bisection(ss, line, tol)
        assert got.bracket[0] <= want.bracket[1] and want.bracket[0] <= got.bracket[1]
        assert got.value == pytest.approx(want.value, abs=tol)


def _kept(row):
    """The non-NaN head of a NaN-padded row, checking that NaN only pads."""
    size = int(np.count_nonzero(~np.isnan(row)))
    assert np.isnan(row[size:]).all()
    return row[:size]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6), n=st.integers(1, 8))
def test_batched_rows_are_the_per_member_grids_and_candidates(seed, K, n):
    """The level search's grid and crossing-candidate rows hold, row by row
    and bit for bit, what np.unique gives each member alone (the per-member
    grid and candidates it replaced), in the same order.  The spectra mix
    conjugate pairs, |Im| repeated within and across rows, real poles, pole
    frequencies on log-grid points and eigenvalues exactly on the axis."""
    rng = np.random.default_rng(seed)
    freqs = np.concatenate([rng.uniform(0.0, 5.0, 3), _log_grid(64)[rng.integers(0, 64, 3)]])
    freqs[0] = 0.0
    im = rng.choice(freqs, (K, n)) * rng.choice([-1.0, 1.0], (K, n))
    re = rng.choice([0.0, -1.0, 1.0], (K, n)) * rng.uniform(0.5, 2.0, (K, n))
    spectra = re + 1j * im
    pairs = rng.random(K) < 0.5  # conjugate halves in the second half of a row
    half = n // 2
    spectra[pairs, n - half :] = spectra[pairs, :half].conj()
    for row, w in zip(_grid_rows(spectra), spectra):
        imag = np.abs(w.imag)
        want = np.unique(np.concatenate([[0.0], _log_grid(64), imag[imag > 0.0]]))
        assert _kept(row).tobytes() == want.tobytes()
        assert coarse_grid(w, 64).tobytes() == want.tobytes()
    band = rng.choice([0.0, 1.0, 10.0], K)
    for row, w, b in zip(_crossing_rows(spectra, band), spectra, band):
        want = np.unique(np.concatenate([[0.0], np.abs(w.imag[np.abs(w.real) <= b])]))
        assert _kept(row).tobytes() == want.tobytes()


def _stable_model(rng, n, tf, lo, hi):
    """A model with every pole left of the rate band [lo, hi] widened by
    MARGIN: a StateSpace of n states, or a transfer function of degree
    1 + n % 8 (strictly proper or biproper)."""
    if tf:
        poles = _poles(rng, 1 + n % 8, lo, hi, False)
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        return RationalFunction(rng.standard_normal(int(rng.integers(1, len(poles) + 2))), den)
    A = _block_form(_poles(rng, n, lo, hi, False))
    return _change_basis(
        rng, A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[0.0]]
    )


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), tf=st.booleans())
def test_gain_at_p0_is_the_supremum_norm(seed, n, tf):
    """On a stable model the weighted gain at p = 0 is the supremum of |G|:
    l2p_gain certifies line_norm_bisection's result, and strip_gain
    strip_norm's, with the same value, bracket, peak, boundary values and
    attaining side."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0)
    strip = Strip(lo, lo + rng.uniform(0.2, 1.5))
    line = Line(rng.uniform(0.0, strip.hi))
    G = _stable_model(rng, n, tf, strip.lo, strip.hi)
    with mock.patch.object(
        dominance, "_gain_certificate", wraps=dominance._gain_certificate
    ) as certify:
        line_gain = l2p_gain(G, 0, line)
        edge_gain = strip_gain(G, 0, strip)
    line_norm = line_norm_bisection(G, line)
    norm = strip_norm(G, strip)
    assert [call.args[3] for call in certify.call_args_list] == [line_norm, norm]
    assert (line_gain.gamma, line_gain.bracket) == (line_norm.value, line_norm.bracket)
    assert (edge_gain.gamma, edge_gain.bracket) == (norm.value, norm.bracket)
    assert edge_gain.boundary_gammas == norm.boundary_values
    assert edge_gain.rate == (strip.lo if norm.attaining_boundary == "lo" else strip.hi)


def _sweep_slope_by_slope(loop, p, line, tol, slopes):
    """The sector sweep as separate closed loops: every slope is checked,
    in order, before any level search."""
    closed = []
    for k in slopes:
        ss = slope_closed_loop(loop, k)
        try:
            require_dominance(ss, p, line.lam)
        except NotPDominant as exc:
            raise NotPDominantAtSlope("", slope=k, expected=p, actual=exc.actual) from exc
        closed.append(ss)
    return [line_norm_bisection(ss, line, tol).value for ss in closed]


def _outcome(fn):
    try:
        return fn(), None
    except StripgainError as exc:
        return None, exc


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    feedthrough=st.booleans(),
    n_slopes=st.integers(1, 12),
    p=st.integers(0, 1),
)
# a loop closed to |G| = 1568 at its second slope, where the two paths
# differ by 1.2e-12 relative
@example(seed=248418, n=4, feedthrough=True, n_slopes=2, p=0)
def test_sector_sweep_matches_slope_by_slope_searches(seed, n, feedthrough, n_slopes, p):
    """The batched sweep gives every slope the value of its own closed
    loop's level search, or fails where the slope-by-slope sweep fails; one
    slope cannot sample an interval with slope_lo < slope_hi."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0)
    poles = [complex(rng.uniform(-lam + MARGIN, 2.0), 0.0) for _ in range(min(p, n))]
    poles += _poles(rng, n - len(poles), lam, lam, False)
    d = rng.uniform(-1.0, 1.0) if feedthrough else 0.0
    ss = _change_basis(
        rng, _block_form(poles), rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[d]]
    )
    lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
    loop = SlopeLoop(ss, lo, hi)
    line, tol = Line(lam), 1e-6
    if n_slopes == 1 and lo < hi:
        with pytest.raises(InvalidInput, match="n_slopes must be >= 2"):
            sector_slope_gain(loop, p, line, tol, n_slopes)
        return
    slopes = [float(k) for k in np.linspace(lo, hi, n_slopes)]

    got, err = _outcome(lambda: sector_slope_gain(loop, p, line, tol, n_slopes))
    want, want_err = _outcome(lambda: _sweep_slope_by_slope(loop, p, line, tol, slopes))
    if want_err is not None:
        assert type(err) is type(want_err)
        assert getattr(err, "slope", None) == getattr(want_err, "slope", None)
        assert getattr(err, "actual", None) == getattr(want_err, "actual", None)
        return
    assert err is None
    assert [k for k, _ in got.evaluations] == slopes
    # both paths measure |G| with a relative error of about eps * max(1, |G|)
    # (k L / (1 - k L) against the closed loop's own Schur form), so large
    # gains agree to a correspondingly looser relative tolerance
    for (_, value), ref in zip(got.evaluations, want):
        assert value == pytest.approx(ref, rel=1e-12 * max(1.0, ref), abs=0.0)
    assert got.gamma == pytest.approx(max(want), rel=1e-12 * max(1.0, max(want)), abs=0.0)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    tf=st.booleans(),
    feedthrough=st.booleans(),
    n_slopes=st.integers(1, 13),
)
def test_one_sweep_over_two_lines_is_two_single_line_sweeps(seed, n, tf, feedthrough, n_slopes):
    """A sweep over a strip's two edges returns, bit for bit, the results of
    two single-line sweeps, or raises what the first of them to fail raises.
    The slopes reach up to 1.5 over the loop's gain on the upper edge, so
    some loops lose dominance at one edge or both."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0)
    strip = Strip(lo, lo + rng.uniform(0.2, 1.0))
    poles = _poles(rng, n, strip.lo, strip.hi, False)
    if tf:
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.standard_normal(n + 1 if feedthrough else int(rng.integers(1, n + 1)))
        L = realize(RationalFunction(num, den))
    else:
        d = rng.uniform(-1.0, 1.0) if feedthrough else 0.0
        B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
        L = _change_basis(rng, _block_form(poles), B, C, [[d]])
    k_hi = rng.uniform(0.2, 1.5) / line_norm_bisection(L, strip.upper_line).value
    loop = SlopeLoop(L, -k_hi * rng.uniform(0.0, 1.0), k_hi)
    lines, tol = (strip.lower_line, strip.upper_line), 1e-6

    got, err = _outcome(lambda: _sector_sweeps(loop, 0, lines, tol, n_slopes))
    want, want_err = [], None
    for line in lines:
        res, want_err = _outcome(lambda: sector_slope_gain(loop, 0, line, tol, n_slopes))
        if want_err is not None:
            break
        want.append(res)
    if want_err is not None:
        assert type(err) is type(want_err) and str(err) == str(want_err)
        assert getattr(err, "slope", None) == getattr(want_err, "slope", None)
        return
    assert err is None
    assert repr(got) == repr(want)


def test_sweep_failing_at_the_upper_edge_raises_that_edges_error():
    # L = 1/(s + 1): the loop at slope k has its pole at k - 1, so slopes
    # 0, 0.25, 0.5 keep it left of the line at rate 0.2 and the last two
    # put it right of the line at rate 0.8
    L = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    loop = SlopeLoop(L, 0.0, 0.5)
    lower, upper = Line(0.2), Line(0.8)
    assert len(sector_slope_gain(loop, 0, lower, 1e-6, 3).evaluations) == 3
    with pytest.raises(NotPDominantAtSlope) as single:
        sector_slope_gain(loop, 0, upper, 1e-6, 3)
    with pytest.raises(NotPDominantAtSlope) as swept:
        _sector_sweeps(loop, 0, (lower, upper), 1e-6, 3)
    for info in (single, swept):
        assert (info.value.slope, info.value.expected, info.value.actual) == (0.25, 0, 1)
        assert str(info.value) == (
            "closed loop at slope 0.25 is not 0-dominant at rate 0.8 "
            "(expected 0 eigenvalues right of the shifted axis, found 1)"
        )


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    unstable=st.booleans(),
    feedthrough=st.booleans(),
)
def test_gain_certificate_has_the_signature_its_margin_implies(seed, n, unstable, feedthrough):
    """Every printed gain certificate clears the eigensolver's error margin,
    and P's signature, counted in 50-digit arithmetic, is (p, 0, n - p) as the
    inertia theorem says."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0)
    poles = _poles(rng, n, lam, lam, unstable)
    p = sum(1 for z in poles if z.real + lam > 0)
    d = rng.uniform(-1.0, 1.0) if feedthrough else 0.0
    ss = _change_basis(
        rng, _block_form(poles), rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[d]]
    )
    cert = l2p_gain(ss, p, Line(lam), with_certificate=True)
    if cert.P is None:
        return
    gamma, eps = cert.certified_gamma, cert.epsilon
    M = _gain_matrix(ss, cert.P, gamma, lam)
    M[:n, :n] += eps * np.eye(n)
    u = np.finfo(float).eps / 2.0
    assert verify_gain_lmi(ss, cert.P, gamma, lam, eps).residual < -(n + 1) * u * np.linalg.norm(M)
    with mpmath.workdps(50):
        w = mpmath.eigsy(mpmath.matrix(cert.P.tolist()), eigvals_only=True)
        signs = [mpmath.sign(x) for x in w]
    assert (signs.count(-1), signs.count(0), signs.count(1)) == (p, 0, n - p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    rate=st.floats(0.0, 1e3),
    delta=st.floats(-3e-8, 3e-8),
)
@example(seed=0, n=1, rate=100.0, delta=5e-7 / 101.0)
def test_one_rule_decides_whether_a_pole_sits_on_the_line(seed, n, rate, delta):
    """A pole placed either side of the edge of the on-line band gets one
    verdict from the dominance count, the grid norm and the modal split, and
    when none rejects it the count is the split's p."""
    rng = np.random.default_rng(seed)
    poles = -rate + rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 50.0, n)
    poles[rng.integers(n)] = -rate - delta * (1.0 + rate)
    ss = StateSpace(np.diag(poles), np.ones((n, 1)), np.ones((1, n)), [[0.0]])
    line = Line(rate)
    try:
        p = modal_split(ss, line).p
    except PoleOnLine:
        p = None
    try:
        line_norm_grid(ss, line)
        grid_on_line = False
    except PoleOnLine:
        grid_on_line = True
    assert grid_on_line == (p is None)
    if p is None:
        with pytest.raises(MarginalRate):
            require_dominance(ss, 0, rate)
    else:
        require_dominance(ss, p, rate)


def _mp_abs(G, s):
    """|G(s)| from G's coefficients in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        num = mpmath.polyval(list(reversed(G.num.coeffs)), z)
        den = mpmath.polyval(list(reversed(G.den.coeffs)), z)
        return float(abs(num / den))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, 8),
    unstable=st.booleans(),
    feedthrough=st.booleans(),
)
def test_realized_tf_is_measured_through_its_polynomials(seed, degree, unstable, feedthrough):
    """A proper tf of degree 1-8 (conjugate pairs allowed) and its
    realization are one model: the same grid result in every field, and a
    bisection lower end within 1e-12 of |G| at its peak in 40-digit
    arithmetic.  Their poles are the sorted spectrum of the balanced
    realization's one Schur form, each within 1e-6 (1 + |p|) of the
    denominator's root p it sorts against (over 3,000 draws of this
    generator the largest gap was 1.6e-7 (1 + |p|))."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0)
    line = Line(lam)
    poles = _poles(rng, degree, lam, lam, unstable)
    den = np.real(np.polynomial.polynomial.polyfromroots(poles))
    num = rng.standard_normal(degree + 1 if feedthrough else int(rng.integers(1, degree + 1)))
    G = RationalFunction(num, den)
    ss = realize(G)
    assert ss.poles().tobytes() == np.sort_complex(ss.schur.w).tobytes()
    assert (np.abs(ss.poles() - G.poles) <= 1e-6 * (1.0 + np.abs(G.poles))).all()
    assert line_norm_grid(ss, line) == line_norm_grid(G, line)
    res = line_norm_bisection(G, line)
    if math.isfinite(res.peak_frequency):
        want = _mp_abs(G, complex(-lam, res.peak_frequency))
        assert res.bracket[0] == pytest.approx(want, rel=1e-12)


def _two_sided_poles(rng, degree, lam):
    """degree poles (conjugate pairs allowed), at least one on each side of
    Re s = -lam when degree >= 2, each at least MARGIN from it."""
    right = int(rng.integers(1, degree)) if degree > 1 else int(rng.integers(0, 2))
    out = []
    for count, sign in ((right, 1.0), (degree - right, -1.0)):
        side = []
        while len(side) < count:
            re = -lam + sign * rng.uniform(MARGIN, 2.0)
            if count - len(side) >= 2 and rng.random() < 0.5:
                im = rng.uniform(0.1, 3.0)
                side += [complex(re, im), complex(re, -im)]
            else:
                side.append(complex(re, 0.0))
        out += side
    return out


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 6))
def test_h2_line_norm_matches_quadrature_with_one_factorisation(seed, degree):
    """The energy norm of a strictly proper tf with poles on both sides of a
    line at rate lam in [0, 2] equals (1/2pi) times the integral of
    |G(-lam + i omega)|^2 over omega, by mpmath quadrature on the input
    polynomials, and costs one real Schur factorisation."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 2.0)
    poles = _two_sided_poles(rng, degree, lam)
    den = np.real(np.polynomial.polynomial.polyfromroots(poles))
    num = rng.standard_normal(int(rng.integers(1, degree + 1)))
    with mock.patch.object(matkernel, "real_schur", wraps=matkernel.real_schur) as spy:
        got = h2_line_norm(RationalFunction(num, den), Line(lam))
    assert spy.call_count == 1
    with mpmath.workdps(30):
        nums, dens = list(reversed(num.tolist())), list(reversed(den.tolist()))

        def energy(w):
            s = mpmath.mpc(-lam, w)
            return abs(mpmath.polyval(nums, s) / mpmath.polyval(dens, s)) ** 2

        cuts = sorted({0.0} | {abs(z.imag) for z in poles} | {-abs(z.imag) for z in poles})
        integral = mpmath.quad(energy, [-mpmath.inf] + cuts + [mpmath.inf])
        want = mpmath.sqrt(integral / (2 * mpmath.pi))
    assert got == pytest.approx(float(want), rel=1e-9)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_h2_line_norm_and_decompose_line_take_a_state_space(seed, n):
    """A plain state-space model with poles on both sides of a line has the
    energy norm of its transfer function (tf_of), to 1e-12 relative, and its
    line decomposition sums back to it off the line."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 2.0)
    B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    ss = _change_basis(rng, _block_form(_two_sided_poles(rng, n, lam)), B, C, [[0.0]])
    want = h2_line_norm(tf_of(ss), Line(lam))
    assert h2_line_norm(ss, Line(lam)) == pytest.approx(want, rel=1e-12, abs=0.0)
    g_minus, g_plus = decompose_line(ss, Line(lam))
    s = -lam + rng.uniform(-0.2, 0.2, 4) + 1j * rng.uniform(-3.0, 3.0, 4)
    G = np.array([(ss.C @ np.linalg.solve(z * np.eye(n) - ss.A, ss.B))[0, 0] for z in s])
    got = g_minus.eval_unchecked(s) + g_plus.eval_unchecked(s)
    assert np.allclose(got, G, rtol=1e-9, atol=1e-12)


def _placed_poles(rng, n, lo, hi):
    """n poles (conjugate pairs allowed) whose real parts sit on an edge of
    the rate band [lo, hi], a half or twice TAU_LINE (relative) either side
    of one, strictly inside it, or at least MARGIN outside it."""
    out = []
    while len(out) < n:
        edge = -lo if rng.random() < 0.5 else -hi
        near = rng.choice([-2.0, -0.5, 0.5, 2.0]) * TAU_LINE * (1.0 + abs(edge))
        right = rng.random() < 0.5
        outside = rng.uniform(-lo + MARGIN, 2.0) if right else -hi - rng.uniform(MARGIN, 3.0)
        kind = rng.choice(4, p=[0.15, 0.3, 0.1, 0.45])
        re = [edge, edge + near, rng.uniform(-hi, -lo), outside][kind]
        if n - len(out) >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.1, 4.0)
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, 0.0))
    return out


def _raised(fn):
    """fn()'s result, or the type and message of the StripgainError it raised."""
    res, exc = _outcome(fn)
    return res if exc is None else (type(exc), str(exc))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    lo=st.sampled_from([0.0, 0.3, 1.0]),
    width=st.sampled_from([1e-3, 0.5, 2.0]),
)
def test_gains_and_strip_norms_guard_once_as_their_public_compositions(seed, n, lo, width):
    """l2p_gain and strip_gain count dominance once and search without a
    guard of their own; strip_norm guards the closed strip and measures its
    edges without re-checking them.  Each raises what the public
    composition it replaces raises, or returns what it returns: a gain is
    require_dominance at each edge, then the public norm verb; a grid strip
    norm is the strip's guard, then line_norm_grid at each edge.  The strip's
    guard passes exactly when both edges count the same poles, none marginal,
    and a bisection strip norm is then the strip gain at that count."""
    rng = np.random.default_rng(seed)
    hi = lo + width
    A = _block_form(_placed_poles(rng, n, lo, hi))
    ss = StateSpace(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[0.0]])
    strip, edges = Strip(lo, hi), (Line(lo), Line(hi))
    counts = [sum(float(z.real) > -lam for z in ss.poles()) for lam in (lo, hi)]
    tol = 1e-6

    for p in sorted(set(counts)):
        def l2p_composition():
            require_dominance(ss, p, lo)
            return line_norm_bisection(ss, edges[0], tol)

        got, want = _raised(lambda: l2p_gain(ss, p, edges[0], tol)), _raised(l2p_composition)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.gamma, got.bracket, got.rate) == (want.value, want.bracket, lo)

        def strip_composition():
            require_dominance(ss, p, lo)
            require_dominance(ss, p, hi)
            return strip_norm(ss, strip, tol=tol)

        got, want = _raised(lambda: strip_gain(ss, p, strip, tol)), _raised(strip_composition)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.gamma, got.bracket) == (want.value, want.bracket)
            assert got.boundary_gammas == want.boundary_values
            assert got.rate == (lo if want.attaining_boundary == "lo" else hi)

    def grid_composition():
        _pole_guard(ss.poles(), strip)
        return [line_norm_grid(ss, line) for line in edges]

    got, want = _raised(lambda: strip_norm(ss, strip, method="grid")), _raised(grid_composition)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.boundary_values == (want[0].value, want[1].value)
        best = want[0] if want[0].value >= want[1].value else want[1]
        assert (got.value, got.peak_frequency) == (best.value, best.peak_frequency)
        assert got.method == "grid"

    def dominant():
        require_dominance(ss, counts[0], lo)
        require_dominance(ss, counts[0], hi)

    got = _raised(lambda: strip_norm(ss, strip, tol=tol))
    if _raised(dominant) is None:
        gain = _raised(lambda: strip_gain(ss, counts[0], strip, tol))
        if isinstance(gain, tuple):
            assert got == gain
        else:
            assert (got.value, got.bracket) == (gain.gamma, gain.bracket)
            assert got.boundary_values == gain.boundary_gammas
    else:
        assert got == _raised(lambda: _pole_guard(ss.poles(), strip))
        assert got[0] is PoleInStrip


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    lo=st.sampled_from([0.0, 0.3, 1.0]),
    width=st.sampled_from([1e-3, 0.5, 2.0]),
)
def test_splits_select_the_count_of_the_one_spectrum(seed, n, lo, width):
    """poles() is the spectrum of the Schur form the splits reorder, so
    with poles on, near and off the edges of a rate band, in a random
    basis, dominance_check at either edge and modal_split at either edge
    or the strip raise their guard's typed error or split at the count of
    poles() right of the line, its P of that signature; no reordering
    selects another count."""
    rng = np.random.default_rng(seed)
    hi = lo + width
    B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    ss = _change_basis(rng, _block_form(_placed_poles(rng, n, lo, hi)), B, C, [[0.0]])
    for region in (Line(lo), Line(hi), Strip(lo, hi)):
        lam = region.lo if isinstance(region, Strip) else region.lam
        count = int(np.count_nonzero(ss.poles().real > -lam))
        split, exc = _outcome(lambda: modal_split(ss, region))
        if exc is None:
            assert (split.p, split.plus.n) == (count, count)
            assert (split.plus.poles().real > -lam).all()
            assert (split.minus.poles().real < -lam).all()
        else:
            assert type(exc) is (PoleInStrip if isinstance(region, Strip) else PoleOnLine)
        if isinstance(region, Strip):
            continue
        for p in range(n + 1):
            cert, exc = _outcome(lambda: dominance_check(ss, p, lam))
            if exc is None:
                assert cert.p == p == count
                assert np.count_nonzero(np.linalg.eigvalsh(cert.P) < 0) == p
            else:
                assert type(exc) in (MarginalRate, NotPDominant)
                assert type(exc) is MarginalRate or p != count


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 5),
    shift=st.sampled_from([-1, 0, 0, 1]),
    rates=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=4),
    bad=st.sampled_from([None, None, -1.0, math.inf, math.nan]),
    at=st.integers(0, 4),
)
def test_one_count_for_many_rates_raises_what_one_count_per_rate_raises(
    seed, n, shift, rates, bad, at
):
    """_require_count at a sequence of rates (one _on_band call) raises the
    error of the first rate that fails alone, with its message, or nothing.
    Eigenvalues sit on the rate lines, within TAU_LINE of them, or 0.5 or
    1.5 away; p is the count at the first rate, or one off it."""
    rng = np.random.default_rng(seed)
    edge = -np.array(rates)[rng.integers(0, len(rates), n)]
    near = rng.choice([0.0, -0.5, 0.5, -2.0, 2.0], n) * TAU_LINE
    re = edge + np.where(rng.random(n) < 0.25, near, rng.choice([-1.5, -0.5, 0.5, 1.5], n))
    poles = np.sort_complex(re + 1j * rng.choice([0.0, 1.0], n) * rng.uniform(0.1, 2.0, n))
    p = int(np.count_nonzero(poles.real > -rates[0])) + shift
    if bad is not None:
        rates = rates[:at] + [bad] + rates[at:]

    def one_per_rate():
        for rate in rates:
            _require_count(poles, p, rate)

    assert _raised(lambda: _require_count(poles, p, rates)) == _raised(one_per_rate)
    with mock.patch.object(dominance, "_on_band", wraps=dominance._on_band) as on_band:
        _raised(lambda: _require_count(poles, p, rates))
    assert on_band.call_count == 1
