import math
from dataclasses import replace

import numpy as np
import pytest

from stripgain import (
    DivergentIntegral,
    ImproperTransferFunction,
    InvalidInput,
    Line,
    NumericalFailure,
    PoleInStrip,
    PoleOnLine,
    Polynomial,
    RationalFunction,
    StateSpace,
    Strip,
    build_hamiltonian,
    decompose_line,
    frequency_response_data,
    h2_line_norm,
    line_norm_bisection,
    line_norm_grid,
    realize,
    singular_value_test,
    strip_gain,
    strip_norm,
)
from stripgain import matkernel, stripnorm
from stripgain.stripnorm import GRID_OMEGA_MAX, GRID_POINTS, coarse_grid, frequency_response

# Damped oscillator 1/(s^2 + 2 zeta s + 1), zeta = 0.1.  The magnitude peak
# 1/(2 zeta sqrt(1 - zeta^2)) and its location sqrt(1 - 2 zeta^2) were
# evaluated with 40-digit mpmath arithmetic and frozen here.
RESONANCE_PEAK = 5.025189076296060377
RESONANCE_OMEGA = 0.9899494936611665342


def resonant():
    return RationalFunction([1.0], [1.0, 0.2, 1.0])


def test_line_norm_grid_first_order():
    res = line_norm_grid(RationalFunction([1.0], [1.0, 1.0]), Line(0.0))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.peak_frequency == pytest.approx(0.0, abs=1e-4)


def test_line_norm_grid_resonance():
    res = line_norm_grid(resonant(), Line(0.0))
    assert res.value == pytest.approx(RESONANCE_PEAK, abs=1e-9)
    assert res.peak_frequency == pytest.approx(RESONANCE_OMEGA, abs=1e-5)


def test_line_norm_bisection_resonance():
    res = line_norm_bisection(resonant(), Line(0.0), 1e-8)
    assert res.value == pytest.approx(RESONANCE_PEAK, abs=2e-8)
    assert res.bracket[1] - res.bracket[0] <= 1e-8


def test_line_norm_bisection_biproper_peak_at_zero():
    # (s - 2)/(s + 1): |G(i w)|^2 = (4 + w^2)/(1 + w^2), maximal at w = 0
    G = RationalFunction([-2.0, 1.0], [1.0, 1.0])
    res = line_norm_bisection(G, Line(0.0), 1e-7)
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.peak_frequency == pytest.approx(0.0, abs=1e-3)


def test_line_norm_bisection_allpass_sup_at_infinity():
    # (s - 1)/(s + 1) has constant unit magnitude on the imaginary axis
    G = RationalFunction([-1.0, 1.0], [1.0, 1.0])
    res = line_norm_bisection(G, Line(0.0), 1e-6)
    assert res.value == pytest.approx(1.0, abs=5e-6)


def test_line_norm_bisection_feedthrough_limit():
    # on Re(s) = -0.5 |G| stays below its limit 3.25 at infinite frequency
    G = RationalFunction([16.0, 13.5, 3.25], [21.0, 8.7, 1.0])
    res = line_norm_bisection(G, Line(0.5), 1e-6)
    assert res.bracket[0] <= 3.25 <= res.bracket[1]
    assert res.peak_frequency == math.inf


def test_line_norm_bisection_tolerance_below_feedthrough_resolution():
    # tested levels come within build_hamiltonian's guard of |D| = 3.25 once
    # the tolerance is below about 2e-12 |D|: a numerical limit, not bad input
    G = RationalFunction([16.0, 13.5, 3.25], [21.0, 8.7, 1.0])
    res = line_norm_bisection(G, Line(0.5), 1e-11)
    assert res.bracket[0] <= 3.25 <= res.bracket[1]
    with pytest.raises(NumericalFailure, match="tolerance 1e-12"):
        line_norm_bisection(G, Line(0.5), 1e-12)


def test_line_norm_shifted_line():
    # |1/(s+1)| on Re(s) = -0.5 peaks at s = -0.5: value 2
    res = line_norm_bisection(RationalFunction([1.0], [1.0, 1.0]), Line(0.5), 1e-8)
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_pole_on_line_rejected():
    G = RationalFunction([1.0], [1.0, 1.0])
    with pytest.raises(PoleOnLine):
        line_norm_bisection(G, Line(1.0), 1e-6)
    with pytest.raises(PoleOnLine):
        line_norm_grid(G, Line(1.0))


def test_improper_rejected():
    G = RationalFunction([0.0, 0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ImproperTransferFunction):
        line_norm_grid(G, Line(0.0))
    with pytest.raises(ImproperTransferFunction):
        strip_norm(G, Strip(0.0, 1.0))


def test_build_hamiltonian_rejects_level_at_feedthrough():
    ss = realize(RationalFunction([-1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(InvalidInput):
        build_hamiltonian(ss, 1.0, Line(0.0))


def test_hamiltonian_crossing_matches_magnitude():
    """The Hamiltonian is singular at i w0 exactly at gamma = |G(i w0)|."""
    ss = realize(resonant())
    for w0 in (0.0, 0.5, 1.3):
        gamma = abs(resonant().eval_unchecked(1j * w0))
        assert singular_value_test(ss, gamma, w0, Line(0.0))
    # and not singular at a frequency with a different magnitude
    gamma = abs(resonant().eval_unchecked(1j * 0.5))
    assert not singular_value_test(ss, gamma, 3.0, Line(0.0))


def test_strip_norm_between_poles():
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    res = strip_norm(G, Strip(0.0, 2.0))
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert res.boundary_values[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert res.boundary_values[1] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_strip_norm_rejects_pole_inside():
    G = RationalFunction([1.0], [1.0, 1.0])
    with pytest.raises(PoleInStrip):
        strip_norm(G, Strip(0.5, 1.5))


def _strip_gain_at_p0(G, strip):
    return strip_gain(G, 0, strip)


@pytest.mark.parametrize("supremum", [strip_norm, _strip_gain_at_p0])
def test_interior_spot_check_rejects_a_low_boundary_maximum(monkeypatch, supremum):
    """Edge searches that report half the true supremum of 1/(s + 5) on
    the strip (0, 1) are caught by the interior spot check: at rate 1/6,
    |G| = 0.207 exceeds the halved edge maximum 0.125."""
    searches = stripnorm._line_searches

    def halved(system, lines, tol):
        return [
            replace(r, value=0.5 * r.value, bracket=(0.5 * r.bracket[0], 0.5 * r.bracket[1]))
            for r in searches(system, lines, tol)
        ]

    monkeypatch.setattr(stripnorm, "_line_searches", halved)
    with pytest.raises(NumericalFailure, match="interior magnitude .* exceeds boundary maximum"):
        supremum(RationalFunction([1.0], [5.0, 1.0]), Strip(0.0, 1.0))


def test_strip_norm_interior_never_exceeds_boundary_seeded():
    rng = np.random.RandomState(23)
    done = 0
    while done < 10:
        lo = rng.uniform(0.0, 1.0)
        hi = lo + rng.uniform(0.4, 1.5)
        n = rng.randint(2, 6)
        poles = []
        while len(poles) < n:
            re = rng.uniform(-4, 2)
            if -hi - 0.1 <= re <= -lo + 0.1:
                continue
            if rng.rand() < 0.5 and n - len(poles) >= 2:
                im = rng.uniform(0.2, 5)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(re, 0.0))
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, n + 1))
        G = RationalFunction(Polynomial(num), Polynomial(den))
        strip = Strip(lo, hi)
        res = strip_norm(G, strip, method="grid")
        slack = 1e-9 + 1e-6 * res.value
        omegas = np.linspace(0.0, 50.0, 400)
        for lam in strip.interior_rates(4):
            mags = np.abs(G.eval_unchecked(-lam + 1j * omegas))
            assert np.max(mags) <= res.value + slack
        done += 1


def test_h2_line_norm_first_order():
    # impulse response e^{-t} for t > 0: energy 1/2
    got = h2_line_norm(RationalFunction([1.0], [1.0, 1.0]), Line(0.0))
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_h2_line_norm_two_sided():
    # 1/((s-1)(s+3)) on Re(s) = 0: kernel -e^{t}/4 (t<=0), -e^{-3t}/4 (t>0);
    # energy (1/16)(1/2 + 1/6) = 1/24
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    assert h2_line_norm(G, Line(0.0)) == pytest.approx(math.sqrt(1.0 / 24.0), abs=1e-9)


def test_h2_line_norm_rejects_biproper():
    with pytest.raises(DivergentIntegral):
        h2_line_norm(RationalFunction([1.0, 1.0], [2.0, 1.0]), Line(0.0))


def test_h2_line_norm_of_a_state_space():
    empty = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.0]])
    assert h2_line_norm(empty, Line(0.5)) == 0.0
    with pytest.raises(DivergentIntegral):
        h2_line_norm(StateSpace(empty.A, empty.B, empty.C, [[2.0]]), Line(0.5))
    # the plain matrices of 1/((s-1)(s+3)), without its transfer function
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    R = realize(G)
    ss = StateSpace(R.A, R.B, R.C, R.D)
    assert h2_line_norm(ss, Line(0.0)) == pytest.approx(math.sqrt(1.0 / 24.0), abs=1e-9)
    assert h2_line_norm(R, Line(0.0)) == h2_line_norm(G, Line(0.0))
    with pytest.raises(PoleOnLine):
        h2_line_norm(ss, Line(3.0))


def test_decompose_line_splits_by_side():
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    R = realize(G)
    s = -1.0 + 0.8j
    # the transfer function, its realization, and the realization's plain matrices
    for model in (G, R, StateSpace(R.A, R.B, R.C, R.D)):
        g_minus, g_plus = decompose_line(model, Line(1.0))
        assert np.allclose(g_minus.poles.real, [-3.0], atol=1e-8)
        assert np.allclose(g_plus.poles.real, [1.0], atol=1e-8)
        total = g_minus.eval_unchecked(s) + g_plus.eval_unchecked(s)
        assert total == pytest.approx(G.eval_unchecked(s), rel=1e-9)


def test_decompose_line_guards_the_poles_it_expands():
    # the roots -1 +- 5e-7 lie clear of the line Re(s) = -1, but the
    # expansion clusters them into the double pole -1, which lies on it
    den = np.polynomial.polynomial.polyfromroots([-1.0 - 5e-7, -1.0 + 5e-7])
    G = RationalFunction([1.0], den)
    with pytest.raises(PoleOnLine, match="on the line Re"):
        decompose_line(G, Line(1.0))


def test_frequency_response_data_columns():
    G = RationalFunction([1.0], [1.0, 1.0])
    w = np.array([0.0, 1.0, 2.0])
    data = frequency_response_data(G, Line(0.0), w, uncertainty=0.5)
    assert data.shape == (3, 5)
    z = G.eval_unchecked(1j * w)
    assert np.allclose(data[:, 1], z.real)
    assert np.allclose(data[:, 2], z.imag)
    assert np.allclose(data[:, 3], np.abs(z))
    assert np.allclose(data[:, 4], 0.5 * np.abs(z))


def test_local_maxima_match_neighbour_scan():
    from stripgain.stripnorm import _local_maxima

    rng = np.random.default_rng(4)
    cases = [rng.integers(0, 3, 40).astype(float), rng.standard_normal(25), np.ones(5)]
    for vals in cases + [np.array([1.0])]:
        n = len(vals)
        want = [
            k
            for k in range(n)
            if (k == 0 or vals[k] >= vals[k - 1]) and (k == n - 1 or vals[k] >= vals[k + 1])
        ]
        assert _local_maxima(vals).tolist() == want


def test_frequency_response_of_ss_matches_direct_solve():
    from stripgain import StateSpace
    from stripgain.stripnorm import frequency_response

    rng = np.random.default_rng(8)
    n = 12
    ss = StateSpace(
        rng.standard_normal((n, n)) - 4.0 * np.eye(n),
        rng.standard_normal((n, 1)),
        rng.standard_normal((1, n)),
        [[0.3]],
    )
    lam = 0.5

    def direct(w):
        return [
            complex(ss.C[0] @ np.linalg.solve((-lam + 1j * wk) * np.eye(n) - ss.A, ss.B[:, 0]))
            + 0.3
            for wk in w
        ]

    w = np.array([0.0, 0.1, 1.0, 3.0, 40.0])
    want = direct(w)
    # fewer frequencies than states, then more: both loop orders
    assert np.allclose(frequency_response(ss, lam, w), want, rtol=1e-12, atol=0.0)
    long = np.linspace(0.0, 40.0, 3 * n)
    assert np.allclose(frequency_response(ss, lam, long), direct(long), rtol=1e-12, atol=0.0)
    assert frequency_response(ss, lam, 1.0) == pytest.approx(want[2], rel=1e-12)
    # G is undefined at a pole; the solve reports it rather than returning b
    at_pole = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    assert np.isnan(frequency_response(at_pole, 1.0, 0.0))
    # more frequencies than states: the vectorised path, without a warning
    # (warnings are errors), NaN only at the pole
    got = frequency_response(at_pole, 1.0, np.array([0.0, 1.0, 2.0]))
    assert np.isnan(got[0])
    assert np.allclose(got[1:], [1 / 1j + 1 / (1 + 1j), 1 / 2j + 1 / (1 + 2j)], rtol=1e-15)
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-2.0]])
    assert np.array_equal(frequency_response(static, lam, w), np.full(5, -2.0 + 0j))


def test_coarse_grid_reuses_a_read_only_log_grid():
    poles = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -3.0])
    for points in (64, 512):
        log = np.logspace(-3.0, 3.0, points)
        want = np.unique(np.concatenate([[0.0], log, [2.0]]))
        first = coarse_grid(poles, points)
        first[:] = -1.0  # a caller may write to what it gets back
        assert np.array_equal(coarse_grid(poles, points), want)


def test_lightly_damped_strip_settles_in_one_eigensolve_per_edge(monkeypatch):
    """A 40-state model with a pole pair 0.06 left of the strip: the coarse
    grid misses the sharp peak on the upper edge, the polish finds it, and
    both edges settle at their first level test, in one stacked call."""
    rng = np.random.default_rng(40)
    n = 40
    A = np.zeros((n, n))
    A[:2, :2] = [[-0.26, 2.7], [-2.7, -0.26]]
    for k in range(2, n, 2):
        re, im = rng.uniform(-4.0, -0.6), rng.uniform(0.1, 4.0)
        A[k : k + 2, k : k + 2] = [[re, im], [-im, re]]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(0.5, 2.0, n)
    Vi = np.linalg.inv(V)
    ss = StateSpace(
        V @ A @ Vi, V @ rng.standard_normal((n, 1)), rng.standard_normal((1, n)) @ Vi, [[0.0]]
    )
    strip = Strip(0.0, 0.2)
    ss.poles()  # cached before counting
    stacks = []
    eig = matkernel.eig

    def counting(M):
        stacks.append(np.shape(M))
        return eig(M)

    monkeypatch.setattr(matkernel, "eig", counting)
    res = strip_norm(ss, strip)
    assert stacks == [(2, 2 * n, 2 * n)]
    assert res.attaining_boundary == "hi"
    grid = coarse_grid(ss.poles(), 64)
    on_grid = np.max(np.abs(frequency_response(ss, strip.hi, grid)))
    assert res.bracket[0] - on_grid > res.tolerance
    assert res.bracket[1] - res.bracket[0] <= res.tolerance


def test_grid_polish_is_batched(monkeypatch):
    """The grid and its polish make a handful of response calls, not one
    per polish point."""
    from stripgain import stripnorm

    calls = []
    evaluate = stripnorm.frequency_response

    def counting(system, lam, omegas):
        calls.append(omegas)
        return evaluate(system, lam, omegas)

    monkeypatch.setattr(stripnorm, "frequency_response", counting)
    res = line_norm_grid(resonant(), Line(0.0))
    assert len(calls) <= 10
    assert res.value == pytest.approx(1.0 / (0.2 * math.sqrt(0.99)), rel=1e-12)


@pytest.mark.parametrize("wn, zeta", [(2000.0, 0.01), (1e4, 0.3)])
def test_grid_polishes_a_maximum_at_its_last_point(wn, zeta):
    """A mode above GRID_OMEGA_MAX ends the grid at its damped frequency,
    which then holds the grid's maximum; the peak lies in the last
    interval, below it."""
    G = RationalFunction([wn * wn], [wn * wn, 2.0 * zeta * wn, 1.0])
    grid = coarse_grid(G.poles, GRID_POINTS)
    vals = np.abs(frequency_response(realize(G), 0.0, grid))
    assert grid[-1] > GRID_OMEGA_MAX and vals.argmax() == grid.size - 1
    res = line_norm_grid(G, Line(0.0))
    assert res.value == pytest.approx(1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2)), rel=1e-12)
    assert grid[-2] < res.peak_frequency < grid[-1]


def test_polish_goes_on_after_a_round_without_gain():
    """On this degree-6 model the first parabolic vertex overshoots the
    peak and the round finds no better point; the narrowed interval still
    leads the polish to the supremum, found in 50-digit arithmetic on the
    coefficients, which the level search's bracket contains."""
    import mpmath

    from stripgain.stripnorm import _polish

    G = RationalFunction(
        [
            -283.91202056225006, -246.19517430867344, -42.80950771271851,
            57.24252040385567, 35.39146011374194, 5.399652442619187,
        ],
        [
            393.89132483582944, 765.0391048708017, 651.4304483239368, 312.5756329984233,
            88.62363176587641, 14.129122355045478, 1.0,
        ],
    )
    lam = 1.4650042186844854
    w = (1.740622130818937, 1.788323913381938, 1.837332964202303)
    ss = realize(G)
    f = tuple(np.abs(frequency_response(ss, lam, np.array(w))).tolist())

    def response(members, omegas):
        return frequency_response(ss, lam, omegas)

    ((peak, value),) = _polish([(0, w, f)], response, 1e-9 * f[1]).values()
    with mpmath.workdps(50):
        num, den = (list(reversed(P.coeffs)) for P in (G.num, G.den))

        def mag(x):
            s = mpmath.mpc(-lam, x)
            return abs(mpmath.polyval(num, s) / mpmath.polyval(den, s))

        want = float(mag(mpmath.findroot(lambda x: mpmath.diff(mag, x), peak)))
    assert want == pytest.approx(6.3670964042382, rel=1e-12)
    assert value == pytest.approx(want, rel=1e-12)
    lo, hi = line_norm_bisection(G, Line(lam)).bracket
    assert lo <= want <= hi
