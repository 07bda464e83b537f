import numpy as np
import pytest

from stripgain import (
    IllPosed,
    InvalidInput,
    Line,
    MarginalRate,
    NotPDominant,
    NotPDominantAtSlope,
    NumericalFailure,
    PoleOnLine,
    Polynomial,
    RationalFunction,
    SlopeLoop,
    StateSpace,
    Strip,
    classify_attractors,
    dominance_check,
    feedback_compose,
    inertia,
    l2p_gain,
    line_norm_bisection,
    line_norm_grid,
    modal_split,
    realize,
    require_dominance,
    sector_slope_gain,
    slope_closed_loop,
    small_gain_check,
    strip_gain,
    strip_norm,
    tf_of,
    verify_gain_lmi,
)
from stripgain import dominance, stripnorm


def siso(A, b, c, d=0.0):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    return StateSpace(A, np.reshape(b, (n, 1)), np.reshape(c, (1, n)), [[d]])


def test_inertia_of_diagonal():
    sig = inertia(np.diag([-2.0, -1.0, 3.0]))
    assert sig == (2, 0, 1)
    sig = inertia(np.diag([1e-12, 1.0]))
    assert sig.zero == 1 and sig.positive == 1


def test_dominance_check_counts_shifted_eigenvalues():
    A = np.diag([0.5, -2.0, -4.0])
    ss = siso(A, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    cert = dominance_check(ss, 1, 0.0)
    assert cert.p == 1
    assert inertia(cert.P) == (1, 0, 2)
    assert cert.lmi_residual <= 0.0
    assert cert.epsilon > 0.0
    # shifting by 3 moves -2 across the axis
    cert2 = dominance_check(ss, 2, 3.0)
    assert inertia(cert2.P) == (2, 0, 1)


def test_dominance_check_wrong_p_reports_actual():
    ss = siso(np.diag([0.5, -2.0]), [1.0, 1.0], [1.0, 0.0])
    with pytest.raises(NotPDominant) as info:
        dominance_check(ss, 0, 0.0)
    assert info.value.expected == 0
    assert info.value.actual == 1


def test_dominance_check_marginal_rate():
    ss = siso(np.diag([-1.0, -3.0]), [1.0, 1.0], [1.0, 0.0])
    with pytest.raises(MarginalRate):
        dominance_check(ss, 1, 1.0)


def test_one_on_line_verdict_for_a_pole_near_a_far_line():
    # 5e-7 from the line at rate 100: inside TAU_LINE * (1 + |Re|), so every
    # entry point calls the pole on the line
    ss = siso([[-100.0 - 5e-7]], [1.0], [1.0])
    for check in (
        lambda: require_dominance(ss, 0, 100.0),
        lambda: dominance_check(ss, 0, 100.0),
        lambda: l2p_gain(ss, 0, Line(100.0)),
        lambda: strip_gain(ss, 0, Strip(1.0, 100.0)),
    ):
        with pytest.raises(MarginalRate):
            check()
    for check in (
        lambda: line_norm_grid(ss, Line(100.0)),
        lambda: modal_split(ss, Line(100.0)),
    ):
        with pytest.raises(PoleOnLine):
            check()


def test_dominance_certificate_seeded():
    """Random matrices: the certificate inertia always matches the count."""
    rng = np.random.RandomState(29)
    done = 0
    while done < 15:
        n = rng.randint(1, 7)
        A = rng.randn(n, n)
        lam = float(rng.uniform(0.0, 2.0))
        w = np.linalg.eigvals(A) + lam
        if np.min(np.abs(w.real)) < 1e-3:
            continue
        p = int(np.count_nonzero(w.real > 0))
        ss = StateSpace(A, np.zeros((n, 1)), np.zeros((1, n)), [[0.0]])
        cert = dominance_check(ss, p, lam)
        assert inertia(cert.P) == (p, 0, n - p)
        assert cert.lmi_residual <= 0.0
        done += 1


def test_l2p_gain_unstable_first_order():
    # |0.5/(s-1)| on Re(s) = -0.5 is maximal at w = 0: 0.5/1.5 = 1/3
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    cert = l2p_gain(ss, 1, Line(0.5), 1e-8)
    assert cert.gamma == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_l2p_gain_certificate_verifies():
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    cert = l2p_gain(ss, 1, Line(0.5), 1e-6, with_certificate=True)
    assert cert.P is not None
    assert cert.lmi_residual <= 0.0
    rep = verify_gain_lmi(ss, cert.P, cert.certified_gamma, 0.5, cert.epsilon)
    assert rep.valid
    assert rep.p_inertia == (1, 0, 0)


def test_verify_gain_lmi_rejects_bad_level():
    # the certificate level cannot be below the actual gain
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    cert = l2p_gain(ss, 1, Line(0.5), 1e-6, with_certificate=True)
    rep = verify_gain_lmi(ss, cert.P, 0.5 * cert.gamma, 0.5)
    assert rep.residual > 0.0


def test_strip_gain_reports_both_edges():
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    cert = strip_gain(ss, 1, Strip(0.5, 1.5), 1e-8)
    assert cert.gamma == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert cert.boundary_gammas[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert cert.boundary_gammas[1] == pytest.approx(0.2, abs=1e-6)


def test_strip_gain_pole_inside_the_strip_fails_the_upper_edge_count():
    # -1 lies inside Re(s) in (-1.5, -0.5): one pole right of -rate at the
    # lower edge, as asked, but two at the upper edge
    ss = siso(np.diag([0.5, -1.0, -4.0]), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(NotPDominant) as exc:
        strip_gain(ss, 1, Strip(0.5, 1.5))
    assert str(exc.value) == "expected 1 eigenvalues right of the shifted axis, found 2"
    assert exc.value.actual == 2


def test_strip_gain_certifies_the_attaining_edge_only(monkeypatch):
    import stripgain.dominance as dom

    built = []
    riccati = dom._riccati_certificate

    def counting(ss, gamma, line, *args, **kwargs):
        built.append(line.lam)
        return riccati(ss, gamma, line, *args, **kwargs)

    monkeypatch.setattr(dom, "_riccati_certificate", counting)
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    cert = strip_gain(ss, 1, Strip(0.5, 1.5), 1e-6, with_certificate=True)
    assert built == [0.5]
    # the certificate the one-line gain builds on that edge
    edge = l2p_gain(ss, 1, Line(0.5), 1e-6, with_certificate=True)
    assert cert.rate == 0.5
    assert np.array_equal(cert.P, edge.P)
    assert (cert.epsilon, cert.lmi_residual, cert.certified_gamma) == (
        edge.epsilon,
        edge.lmi_residual,
        edge.certified_gamma,
    )


def test_feedback_compose_integrator():
    integ = realize(RationalFunction([1.0], [0.0, 1.0]))
    one = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
    closed = feedback_compose(integ, one)
    G = tf_of(closed)
    assert np.allclose(G.num.coeffs, [1.0], atol=1e-12)
    assert np.allclose(G.den.coeffs, [1.0, 1.0], atol=1e-12)


def test_feedback_compose_shifts_pole():
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    one = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
    closed = feedback_compose(ss, one)
    assert np.allclose(np.linalg.eigvals(closed.A), [0.5], atol=1e-12)


def test_feedback_compose_detects_singular_loop():
    a = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
    b = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-1.0]])
    with pytest.raises(IllPosed):
        feedback_compose(a, b)


def test_small_gain_conclusive():
    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    one = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
    report = small_gain_check(ss, 1, one, 0, Strip(0.5, 1.5), 1e-8)
    assert report.conclusive
    assert report.closed_p == 1
    assert report.product < 1.0
    assert report.certificate_lo is not None
    assert report.certificate_hi is not None


def test_small_gain_inconclusive_is_not_an_error():
    ss = realize(RationalFunction([2.0], [-1.0, 1.0]))  # gain 4/3 at rate 0.5
    one = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
    report = small_gain_check(ss, 1, one, 0, Strip(0.5, 1.5), 1e-6)
    assert not report.conclusive
    assert report.closed_p is None
    assert report.product >= 1.0


def test_classify_attractors_strings():
    assert classify_attractors(0) == "unique equilibrium point"
    assert "equilibrium" in classify_attractors(1)
    assert "limit cycle" in classify_attractors(2)
    assert classify_attractors(5) == "no classification available"
    with pytest.raises(InvalidInput):
        classify_attractors(-1)


def bench_loop():
    L = RationalFunction([1.0], Polynomial((0.0, 0.0, 5.0, 1.0)))
    return SlopeLoop(realize(L), 0.0, 1.0)


def test_slope_closed_loop_characteristic():
    closed = slope_closed_loop(bench_loop(), 1.0)
    w = np.sort(np.linalg.eigvals(closed.A).real)
    # roots of s^3 + 5 s^2 - 1, from a 40-digit mpmath solve
    assert np.allclose(
        w, [-4.959341441174160, -0.469832288662973, 0.429173729837133], atol=1e-9
    )


def test_sector_slope_gain_maximal_at_unit_slope():
    res = sector_slope_gain(bench_loop(), 2, Line(1.0), 1e-8, n_slopes=11)
    assert res.slope_at_max == pytest.approx(1.0)
    assert res.gamma == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert len(res.evaluations) == 11
    assert res.evaluations[0][1] == pytest.approx(0.0, abs=1e-9)


def test_sector_slope_gain_flags_failing_slope():
    # closed-loop polynomial of 6/((s+1)(s+2)(s+3)) at slope sigma is
    # s^3 + 6 s^2 + 11 s + 6 (1 - sigma): one real root crosses at sigma = 1,
    # so the first failing grid slope on linspace(0, 12, 11) is 1.2
    L = RationalFunction([6.0], Polynomial((6.0, 11.0, 6.0, 1.0)))
    loop = SlopeLoop(realize(L), 0.0, 12.0)
    with pytest.raises(NotPDominantAtSlope) as info:
        sector_slope_gain(loop, 0, Line(0.0), 1e-6, n_slopes=11)
    assert info.value.slope == pytest.approx(1.2)
    assert info.value.actual == 1


def test_sector_slope_gain_needs_two_slopes_on_an_interval():
    loop = bench_loop()
    with pytest.raises(InvalidInput, match=r"n_slopes must be >= 2 .*\[0, 1\]"):
        sector_slope_gain(loop, 2, Line(1.0), 1e-8, n_slopes=1)
    # a degenerate interval keeps its one slope
    one = SlopeLoop(loop.linear, 1.0, 1.0)
    res = sector_slope_gain(one, 2, Line(1.0), 1e-8, n_slopes=1)
    assert [k for k, _ in res.evaluations] == [1.0]
    assert res.gamma == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_level_searches_make_no_response_call_without_frequencies(monkeypatch):
    """The settling step of a level search, where no crossing midpoint is
    left to measure, does not call the evaluator."""
    sizes = []

    def spy(module):
        evaluate = module.frequency_response

        def recording(system, lam, omegas):
            sizes.append(np.size(omegas))
            return evaluate(system, lam, omegas)

        monkeypatch.setattr(module, "frequency_response", recording)

    spy(dominance)
    spy(stripnorm)
    sector_slope_gain(bench_loop(), 2, Line(1.0), 1e-8, n_slopes=11)
    strip_gain(realize(RationalFunction([1.0], [2.0, 3.0, 1.0])), 0, Strip(0.1, 0.5), 1e-8)
    # two lines whose members do not all polish and settle in the same rounds
    L = siso([[-2.0, 1.0], [-1.0, -2.0]], [1.0, 0.0], [0.0, 1.0])
    dominance._sector_sweeps(SlopeLoop(L, 0.0, 1.0), 0, (Line(0.0), Line(1.2)), 1e-6, 3)
    assert sizes and min(sizes) > 0


def _minus_one():
    return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-1.0]])


def test_slope_closed_loop_matches_feedback_compose_with_feedthrough():
    L = siso([[-1.0, 2.0], [-0.5, -3.0]], [1.0, -0.7], [0.4, 1.3], 0.35)
    loop = SlopeLoop(L, -1.0, 2.0)
    for k in (-1.0, 0.3, 1.7):
        got = slope_closed_loop(loop, k)
        ref = feedback_compose(StateSpace(L.A, L.B, k * L.C, k * L.D), _minus_one())
        for M, R in ((got.A, ref.A), (got.B, ref.B), (got.C, ref.C), (got.D, ref.D)):
            assert np.allclose(M, R, rtol=1e-14, atol=1e-14)


def test_sector_slope_gain_raises_ill_posed_at_singular_slope():
    # L = 0.5 - 1/(s + 1): the loop through slope 1 is 0.5 s - 0.5 over
    # (s + 3) / 2, stable like slope 0; at slope 2, 1 - k D = 0
    L = siso([[-1.0]], [1.0], [-1.0], 0.5)
    loop = SlopeLoop(L, 0.0, 4.0)
    with pytest.raises(IllPosed):
        sector_slope_gain(loop, 0, Line(0.0), 1e-6, n_slopes=5)
    with pytest.raises(IllPosed):
        slope_closed_loop(loop, 2.0)
    # the slopes before the singular one are checked first
    with pytest.raises(NotPDominantAtSlope) as info:
        sector_slope_gain(loop, 1, Line(0.0), 1e-6, n_slopes=5)
    assert info.value.slope == 0.0


def test_sector_slope_gain_through_a_pole_of_the_loop_on_the_line():
    # L = -1/s on the imaginary axis: every loop -k/(s + k) with k in
    # [0.5, 1] peaks at 1 at omega = 0, where L itself has its pole
    loop = SlopeLoop(siso([[0.0]], [1.0], [-1.0]), 0.5, 1.0)
    res = sector_slope_gain(loop, 0, Line(0.0), 1e-9, n_slopes=3)
    for k, value in res.evaluations:
        want = line_norm_bisection(slope_closed_loop(loop, k), Line(0.0), 1e-9).value
        assert value == pytest.approx(want, rel=1e-12)
        assert value == pytest.approx(1.0, abs=1e-9)


def f2_model():
    """Degree 8, one pole at +0.17 and seven at Re <= -4.76."""
    return RationalFunction(
        [
            3.9264279685732659, 88.87398613359936, -53.484650214658032,
            -51.407777190685245, -30.286840442215933, -1.1977501076490453,
            -33.659839327580137, 39.539767519297925,
        ],
        [
            -23323.829083935467, 107555.97787932526, 158138.86527279366,
            90517.021633222961, 28285.744127330305, 5285.7318859186062,
            593.39163517432598, 37.130029173770225, 1.0,
        ],
    )


def test_strip_gain_needs_no_certificate_of_dominance():
    # at these rates the dominance certificate has a near-zero eigenvalue,
    # but a gain only needs the eigenvalue count
    G = f2_model()
    strip = Strip(0.5, 1.5)
    cert = strip_gain(G, 1, strip)
    grid = strip_norm(G, strip, method="grid").value
    assert cert.bracket[1] >= grid
    assert cert.gamma == pytest.approx(grid, rel=2e-6)


def test_dominance_certificate_with_widely_spread_eigenvalues():
    # P's smallest positive eigenvalue is 2e-9 to 3e-9 of its largest, inside
    # the zero band of inertia(); the verified residual alone fixes the
    # signature (inertia theorem), and eigvalsh shows it.  The residual's
    # largest eigenvalue, -2 epsilon, clears the eigensolver's error
    # n u ||M0||_F by far, so its sign is verified.
    ss = realize(f2_model())
    for r in (0.5, 1.0, 1.5):
        cert = dominance_check(ss, 1, r)
        At = ss.A + r * np.eye(ss.n)
        M0 = At.T @ cert.P + cert.P @ At
        assert 2.0 * cert.epsilon > 1e6 * ss.n * np.finfo(float).eps * np.linalg.norm(M0)
        assert cert.lmi_residual < 0.0
        w = np.linalg.eigvalsh(cert.P)
        assert (np.sum(w < 0), np.sum(w == 0), np.sum(w > 0)) == (1, 0, 7)


def test_dominance_check_rejects_a_schur_eigenvalue_on_the_rate_line():
    # poles() is the Schur form's spectrum, so its eigenvalue within
    # TAU_LINE of the line Re(s) = -1, on the line's right, is counted as
    # on the line: the rate is marginal, and no split is attempted
    ss = siso(np.diag([-1.0 + 1e-10, -3.0]), [1.0, 1.0], [1.0, 1.0])
    assert ss.poles()[1] == -1.0 + 1e-10
    with pytest.raises(MarginalRate):
        require_dominance(ss, 0, 1.0)
    with pytest.raises(MarginalRate):
        dominance_check(ss, 0, 1.0)


def test_strict_margin_accepts_only_residuals_below_the_eigensolver_error():
    from stripgain.dominance import _strict_margin

    assert _strict_margin(np.diag([-1.0, -0.5]), 2) == (0.25, -0.25)
    # the strict residual -5e-21 lies inside the margin 2 u ||M0||_F
    with pytest.raises(NumericalFailure):
        _strict_margin(np.diag([-1.0, -1e-20]), 2)
    # eps weights the first k diagonal entries only: diag(-0.75, -0.5)
    assert _strict_margin(np.diag([-1.0, -0.5]), 1) == (0.25, -0.5)


def test_riccati_ladder_moves_on_when_the_margin_fails(monkeypatch):
    import stripgain.dominance as dom

    margin = dom._strict_margin
    calls = []

    def failing_first(M0, k, *formed):
        calls.append(M0)
        if len(calls) == 1:
            raise NumericalFailure("certificate residual is not below the margin")
        return margin(M0, k, *formed)

    ss = realize(RationalFunction([0.5], [-1.0, 1.0]))
    want = l2p_gain(ss, 1, Line(0.5), 1e-6, with_certificate=True)
    monkeypatch.setattr(dom, "_strict_margin", failing_first)
    got = l2p_gain(ss, 1, Line(0.5), 1e-6, with_certificate=True)
    # the first rung's P is rejected; the next eta builds another one
    assert len(calls) == 2
    assert got.P is not None and not np.array_equal(got.P, want.P)
    assert got.certified_gamma == want.certified_gamma
    rep = verify_gain_lmi(ss, got.P, got.certified_gamma, 0.5, got.epsilon)
    assert rep.residual == got.lmi_residual < 0.0


def test_a_realized_certificate_clears_the_rounding_of_its_printed_coordinates():
    """A degree-8 tf with one pole right of the strip (0.5, 1.5): a P
    certifies its balanced realization, given as a plain model, at the
    edge 1.5, but printed in the companion form's coordinates it has norm
    1.3e12, and forming the inequality from it there rounds by more than
    its margin, so the realization's certificate is refused."""
    G = RationalFunction(
        [
            42.6820315402563, 351.7813505578741, -312.9437365597655, 90.10561924869378,
            -29.306238861844502, -16.419731554463546, 8.652302532917421, 2.24692733220244,
        ],
        [
            -175.78266918263657, 298.2747700214878, 1466.2891458903966, 1927.156529811102,
            1314.0784046111146, 528.6524363534611, 127.43968609902277, 17.162996231035674, 1.0,
        ],
    )
    ss = realize(G)
    plain = StateSpace(ss.A, ss.B, ss.C, ss.D)
    assert strip_gain(plain, 1, Strip(0.5, 1.5), with_certificate=True).P is not None
    assert strip_gain(ss, 1, Strip(0.5, 1.5), with_certificate=True).P is None


def test_gain_certificate_margin_clears_the_rounding_of_its_matrix(monkeypatch):
    """_forming_error bounds how far the floating-point gain matrix of a
    printed certificate lies from the exact one (40-digit arithmetic on the
    same P), and a P whose margin lies inside that bound is refused."""
    import mpmath

    import stripgain.dominance as dom

    den = [720.0, 1764.0, 1624.0, 735.0, 175.0, 21.0, 1.0]  # (s + 1) ... (s + 6)
    ss = realize(RationalFunction([1.0], den))
    cert = l2p_gain(ss, 0, Line(0.0), with_certificate=True)
    assert cert.P is not None
    M = dom._gain_matrix(ss, cert.P, cert.certified_gamma, 0.0)
    with mpmath.workdps(40):
        mp = lambda X: mpmath.matrix(np.asarray(X).tolist())  # noqa: E731
        A, B, C, D, P = (mp(X) for X in (ss.A, ss.B, ss.C, ss.D, cert.P))
        TL = A.T * P + P * A + C.T * C
        TR = P * B + C.T * D
        n = ss.n
        exact = mpmath.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                if i < n and j < n:
                    exact[i, j] = (TL[i, j] + TL[j, i]) / 2
                elif i < n or j < n:
                    exact[i, j] = TR[min(i, j), 0]
                else:
                    exact[i, j] = D[0, 0] ** 2 - mpmath.mpf(cert.certified_gamma) ** 2
        gap = np.array((mp(M) - exact).tolist(), dtype=float)
    assert np.linalg.norm(gap, 2) <= dom._forming_error(ss, cert.P, 0.0)
    monkeypatch.setattr(dom, "_forming_error", lambda *args: 1e9)
    assert l2p_gain(ss, 0, Line(0.0), with_certificate=True).P is None
