import numpy as np
import pytest

from stripgain import (
    InvalidInput,
    PoleInStrip,
    Polynomial,
    RationalFunction,
    Strip,
    partial_fractions,
    poly_roots,
    recombine,
)
from stripgain.regions import _pole_guard


def test_polynomial_trims_exact_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1
    assert Polynomial((0.0, 0.0)).is_zero


def test_polynomial_eval_and_derivative():
    p = Polynomial((1.0, -3.0, 2.0))  # 1 - 3s + 2s^2
    assert p(2.0) == pytest.approx(3.0)
    assert p.derivative().coeffs == (-3.0, 4.0)


def test_poly_roots_of_factored_cubic():
    # (s - 1)(s + 2)(s + 5) = s^3 + 6 s^2 + 3 s - 10
    r = poly_roots(Polynomial((-10.0, 3.0, 6.0, 1.0)))
    assert np.allclose(sorted(r.real), [-5.0, -2.0, 1.0], atol=1e-8)
    assert np.allclose(r.imag, 0.0, atol=1e-8)


def test_rational_normalizes_denominator_to_monic():
    G = RationalFunction([2.0], [4.0, 2.0])
    assert G.den.coeffs[-1] == 1.0
    assert G.eval_unchecked(0.0) == pytest.approx(0.5)


def test_rational_cancels_matched_factor():
    # (2s + 2) / (2 (s + 1)^2) reduces to 1/(s + 1)
    G = RationalFunction([2.0, 2.0], [2.0, 4.0, 2.0])
    assert G.den_degree == 1
    assert len(G.cancelled) == 1
    assert G.cancelled[0] == pytest.approx(-1.0)
    assert G.eval_unchecked(1.0) == pytest.approx(0.5)


def test_reduction_solves_for_numerator_roots_only_near_a_pole(monkeypatch):
    """The reduction's denominator roots are the poles.  The numerator's are
    computed only when it is small at some pole: not for (s + 0.5)(s + 4)
    over (s + 1)(s + 2)(s + 3), but for a numerator root 1e-10 from -1,
    which is still cancelled."""
    from stripgain import rational

    calls = []
    roots = rational.poly_roots
    monkeypatch.setattr(rational, "poly_roots", lambda p: calls.append(p) or roots(p))
    den = [6.0, 11.0, 6.0, 1.0]
    G = RationalFunction([2.0, 4.5, 1.0], den)
    assert np.allclose(G.poles, [-3.0, -2.0, -1.0]) and not G.poles.flags.writeable
    assert len(calls) == 1 and G.cancelled == ()
    near = np.polynomial.polynomial.polyfromroots([-1.0 - 1e-10, -4.0])
    H = RationalFunction(near, den)
    assert len(calls) == 3
    assert H.cancelled == pytest.approx([-1.0]) and H.den_degree == 2
    assert np.allclose(H.poles, [-3.0, -2.0])


def test_rational_arithmetic_matches_pointwise():
    G = RationalFunction([1.0], [1.0, 1.0])
    H = RationalFunction([0.0, 1.0], [2.0, 0.0, 1.0])
    pts = np.array([0.3 + 0.1j, -0.2 + 2.0j, 1.5 - 0.7j])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        got = op(G, H).eval_unchecked(pts)
        want = op(G.eval_unchecked(pts), H.eval_unchecked(pts))
        assert np.allclose(got, want, rtol=1e-10)


def test_partial_fractions_simple_poles():
    # 1/((s+1)(s+2)) = 1/(s+1) - 1/(s+2)
    G = RationalFunction([1.0], [2.0, 3.0, 1.0])
    poly, terms = partial_fractions(G)
    assert poly.is_zero
    by_pole = {round(t.pole.real, 6): t.coefficient for t in terms}
    assert by_pole[-1.0] == pytest.approx(1.0)
    assert by_pole[-2.0] == pytest.approx(-1.0)


def test_partial_fractions_repeated_pole():
    # (s + 2)/(s + 1)^2 = 1/(s+1) + 1/(s+1)^2
    G = RationalFunction([2.0, 1.0], [1.0, 2.0, 1.0])
    _, terms = partial_fractions(G)
    coeffs = {t.order: t.coefficient for t in terms}
    assert coeffs[1] == pytest.approx(1.0)
    assert coeffs[2] == pytest.approx(1.0)


def test_partial_fractions_conjugate_pair():
    G = RationalFunction([1.0], [1.0, 0.0, 1.0])  # 1/(s^2 + 1)
    _, terms = partial_fractions(G)
    assert len(terms) == 2
    t0, t1 = sorted(terms, key=lambda t: t.pole.imag)
    assert t0.pole == pytest.approx(t1.pole.conjugate())
    assert t0.coefficient == pytest.approx(np.conj(t1.coefficient))


def test_recombine_round_trip_seeded():
    """Split-and-recombine must reproduce the function pointwise."""
    rng = np.random.RandomState(11)
    pts = np.array([0.17 + 0.9j, -0.4 + 3.1j, 2.2 - 0.35j, -3.7 + 0.05j])
    for _ in range(20):
        n = rng.randint(2, 6)
        poles = []
        while len(poles) < n:
            if rng.rand() < 0.4 and n - len(poles) >= 2:
                re, im = rng.uniform(-3, 3), rng.uniform(0.3, 3)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(rng.uniform(-3, 3), 0.0))
        # keep poles separated so clustering cannot merge them
        ok = all(
            abs(a - b) > 0.2 for i, a in enumerate(poles) for b in poles[i + 1:]
        )
        if not ok:
            continue
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, n + 1))
        G = RationalFunction(Polynomial(num), Polynomial(den))
        poly, terms = partial_fractions(G)
        back = recombine(poly, terms)
        got = back.eval_unchecked(pts)
        want = G.eval_unchecked(pts)
        assert np.allclose(got, want, rtol=1e-7, atol=1e-10)


def test_pole_partition_counts_sides():
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))  # poles 1 and -3
    right = _pole_guard(G.poles, Strip(0.0, 2.0))
    assert right == 1 and G.poles.size - right == 1


def test_pole_partition_rejects_pole_inside():
    G = RationalFunction([1.0], [1.0, 1.0])  # pole at -1
    with pytest.raises(PoleInStrip):
        _pole_guard(G.poles, Strip(0.5, 1.5))


def test_zero_denominator_rejected():
    with pytest.raises(InvalidInput):
        RationalFunction([1.0], [0.0])
