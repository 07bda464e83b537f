import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stripgain import (
    InvalidInput,
    Line,
    NoCommonROC,
    NumericalFailure,
    PoleInROC,
    Polynomial,
    RationalFunction,
    ROC,
    SignalSpec,
    SignalTerm,
    Strip,
    PoleOnLine,
    Unsupported,
    decompose_line,
    eval_signal,
    forward,
    inverse,
    roc_options,
)
from stripgain.rational import partial_fractions


def term(c, k, a, side):
    return SignalTerm(coefficient=c, power=k, rate=a, side=side)


def test_roc_validation():
    with pytest.raises(InvalidInput):
        ROC(1.0, 1.0)
    with pytest.raises(InvalidInput):
        ROC(2.0, -1.0)
    assert ROC(-math.inf, 0.0).contains(-5.0)


def test_roc_strip_round_trip():
    strip = Strip(1.0, 2.0)
    roc = ROC.from_strip(strip)
    assert roc.re_lo == -2.0 and roc.re_hi == -1.0
    back = roc.to_strip()
    assert back.lo == 1.0 and back.hi == 2.0


def test_signal_term_validation():
    with pytest.raises(InvalidInput):
        term(1.0, -1, 0.0, "causal")
    with pytest.raises(InvalidInput):
        term(1.0, 0, 0.0, "sideways")


def test_forward_causal_exponential():
    pair = forward(SignalSpec((term(1.0, 0, -1.0, "causal"),)))
    assert np.allclose(pair.F.num.coeffs, [1.0])
    assert np.allclose(pair.F.den.coeffs, [1.0, 1.0])
    assert pair.roc.re_lo == -1.0
    assert pair.roc.re_hi == math.inf


def test_forward_monomial_weight():
    # t e^{-t} for t > 0 maps to 1/(s+1)^2
    pair = forward(SignalSpec((term(1.0, 1, -1.0, "causal"),)))
    assert np.allclose(pair.F.num.coeffs, [1.0])
    assert np.allclose(pair.F.den.coeffs, [1.0, 2.0, 1.0])


def test_forward_two_sided_exponential():
    spec = SignalSpec((term(1.0, 0, -1.0, "causal"), term(1.0, 0, 1.0, "anticausal")))
    pair = forward(spec)
    assert np.allclose(pair.F.num.coeffs, [-2.0])
    assert np.allclose(pair.F.den.coeffs, [-1.0, 0.0, 1.0])
    assert pair.roc.re_lo == -1.0 and pair.roc.re_hi == 1.0


def test_forward_no_common_roc():
    spec = SignalSpec((term(1.0, 0, 1.0, "causal"), term(1.0, 0, -1.0, "anticausal")))
    with pytest.raises(NoCommonROC):
        forward(spec)


def test_forward_needs_conjugate_closure():
    spec = SignalSpec((term(1.0, 0, complex(-1.0, 2.0), "causal"),))
    with pytest.raises(NumericalFailure):
        forward(spec)


def test_forward_conjugate_pair_gives_real_transform():
    # cos(2t) e^{-t} for t > 0: (s+1)/((s+1)^2 + 4)
    spec = SignalSpec(
        (
            term(0.5, 0, complex(-1.0, 2.0), "causal"),
            term(0.5, 0, complex(-1.0, -2.0), "causal"),
        )
    )
    pair = forward(spec)
    assert np.allclose(pair.F.num.coeffs, [1.0, 1.0], atol=1e-12)
    assert np.allclose(pair.F.den.coeffs, [5.0, 2.0, 1.0], atol=1e-12)


def test_inverse_side_rule_between_poles():
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    spec = inverse(G, ROC(-3.0, 1.0))
    sides = {}
    for t in spec.terms:
        sides[round(t.rate.real)] = (t.side, t.coefficient)
    assert sides[-3][0] == "causal"
    assert sides[-3][1] == pytest.approx(-0.25)
    assert sides[1][0] == "anticausal"
    assert sides[1][1] == pytest.approx(-0.25)


def test_inverse_right_half_plane_is_all_causal():
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    spec = inverse(G, ROC(1.0, math.inf))
    assert all(t.side == "causal" for t in spec.terms)
    by_rate = {round(t.rate.real): t.coefficient for t in spec.terms}
    assert by_rate[1] == pytest.approx(0.25)
    assert by_rate[-3] == pytest.approx(-0.25)


def test_inverse_rejects_pole_inside_roc():
    G = RationalFunction([1.0], [1.0, 1.0])
    with pytest.raises(PoleInROC):
        inverse(G, ROC(-2.0, 0.0))


def test_inverse_rejects_biproper():
    with pytest.raises(Unsupported):
        inverse(RationalFunction([1.0, 1.0], [2.0, 1.0]), ROC(-2.0, math.inf))


def test_roc_options_enumerates_bands():
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    opts = roc_options(G)
    assert len(opts) == 3
    assert opts[0].re_lo == -math.inf and opts[0].re_hi == pytest.approx(-3.0)
    assert opts[1].re_lo == pytest.approx(-3.0)
    assert opts[1].re_hi == pytest.approx(1.0)
    assert opts[2].re_hi == math.inf


def test_roc_options_merges_conjugate_pair():
    G = RationalFunction([1.0], [2.0, 2.0, 1.0])  # poles -1 +/- i
    opts = roc_options(G)
    assert len(opts) == 2


def test_eval_signal_step_midpoint():
    step = SignalSpec((term(1.0, 0, 0.0, "causal"),))
    assert eval_signal(step, 0.0) == pytest.approx(0.5)
    assert eval_signal(step, 1e-9) == pytest.approx(1.0)
    assert eval_signal(step, -1e-9) == pytest.approx(0.0)


def test_eval_signal_values():
    spec = SignalSpec((term(2.0, 1, -0.5, "causal"), term(-1.0, 0, 1.0, "anticausal")))
    assert eval_signal(spec, 2.0) == pytest.approx(4.0 * math.exp(-1.0))
    assert eval_signal(spec, -1.0) == pytest.approx(-math.exp(-1.0))


def test_round_trip_all_roc_options_seeded():
    rng = np.random.RandomState(41)
    done = 0
    while done < 12:
        k = rng.randint(2, 5)
        reals = np.sort(rng.uniform(-3, 3, size=k))
        if np.min(np.diff(reals)) < 0.3:
            continue
        poles = []
        for re in reals:
            if rng.rand() < 0.4:
                im = rng.uniform(0.3, 2.0)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(re, 0.0))
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, len(poles)))
        F = RationalFunction(Polynomial(num), Polynomial(den))
        num_scale = max(1.0, float(np.max(np.abs(F.num.coeffs))))
        den_scale = max(1.0, float(np.max(np.abs(F.den.coeffs))))
        for roc in roc_options(F):
            back = forward(inverse(F, roc))
            assert np.allclose(back.F.num.coeffs, F.num.coeffs, atol=1e-9 * num_scale)
            assert np.allclose(back.F.den.coeffs, F.den.coeffs, atol=1e-9 * den_scale)
            assert back.roc.re_lo == pytest.approx(roc.re_lo, abs=1e-9)
            assert back.roc.re_hi == pytest.approx(roc.re_hi, abs=1e-9)
        done += 1


# a pair of poles 10^gap apart about a centre: two real poles ("real"), a
# near-double complex pole and its conjugate ("double"), or two complex
# poles whose real parts differ by the gap and whose imaginary parts do not
# ("line"), with their conjugates
CLOSE_PAIR = st.tuples(
    st.sampled_from([-2.0, -1.0, 0.0, 0.7, 2.0]),
    st.floats(-9.0, -5.0),
    st.sampled_from(["real", "double", "line"]),
)


def _close_pair_poles(centre, gap, shape):
    half = 0.5 * 10.0**gap
    if shape == "real":
        return [centre - half, centre + half]
    im = (1.3, 1.3) if shape == "double" else (0.8, 2.1)
    upper = [complex(centre - half, im[0]), complex(centre + half, im[1])]
    return upper + [z.conjugate() for z in upper]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pairs=st.lists(CLOSE_PAIR, min_size=1, max_size=3, unique_by=lambda pair: pair[0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(pairs=[(-1.0, -6.0, "real")], seed=0)
@example(pairs=[(-2.0, -6.0, "real"), (0.0, -8.0, "line")], seed=0)
def test_bands_and_line_splits_read_the_poles_the_expansion_reads(pairs, seed):
    """Poles 1e-9 to 1e-5 apart, which the expansion may cluster: every
    band roc_options lists inverts, and transforms back to that band, and
    wherever decompose_line splits, its parts sum back to G.  The terms of
    an unclustered close pair are about 1/gap times G and cancel, and the
    computed poles err at the limit of their conditioning, so the sum is
    held to the expansion's own scale, the sum of the terms' magnitudes: a
    term left out of both parts misses it by far more."""
    poles = [z for pair in pairs for z in _close_pair_poles(*pair)]
    rng = np.random.default_rng(seed)
    num = rng.standard_normal(rng.integers(1, len(poles) + 1))
    G = RationalFunction(num, np.real(np.polynomial.polynomial.polyfromroots(poles)))
    for roc in roc_options(G):
        assert forward(inverse(G, roc)).roc == roc
    s = np.array([0.25 + 3.5j, -1.5 - 4.0j, 2.2 + 5.0j])
    scale = sum(np.abs(t.coefficient / (s - t.pole) ** t.order) for t in partial_fractions(G)[1])
    centres = {pair[0] for pair in pairs} | {-0.5, -1.5}
    for re in sorted(centres | {z.real for z in poles}):
        if re > 0:
            continue
        try:
            g_minus, g_plus = decompose_line(G, Line(-re))
        except PoleOnLine:
            continue
        total = g_minus.eval_unchecked(s) + g_plus.eval_unchecked(s)
        assert np.all(np.abs(total - G.eval_unchecked(s)) <= 1e-6 * scale)
