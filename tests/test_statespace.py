import math

import numpy as np
import pytest

from stripgain import (
    ImproperTransferFunction,
    InvalidInput,
    Line,
    Polynomial,
    RationalFunction,
    SampledSignal,
    StateSpace,
    Strip,
    WindowTooShort,
    convolve,
    impulse_response,
    modal_split,
    realize,
    tf_of,
    weighted_l2_norm,
)


def two_sided_example():
    """1/((s - 1)(s + 3)) with the strip (0, 2) between its poles."""
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    return G, realize(G), Strip(0.0, 2.0)


def test_realize_dimensions_and_poles():
    G = RationalFunction([1.0, 2.0], [2.0, 3.0, 1.0])
    ss = realize(G)
    assert ss.n == 2 and ss.B.shape == (2, 1) and ss.C.shape == (1, 2) and ss.D.shape == (1, 1)
    assert np.allclose(sorted(ss.poles().real), [-2.0, -1.0], atol=1e-9)
    # one eigensolve per system; the cached spectrum cannot be changed
    assert ss.poles() is ss.poles() and not ss.poles().flags.writeable


def test_poles_are_the_sorted_spectrum_of_the_one_schur_form(monkeypatch):
    """A state-space model and a realized tf alike read poles() off their
    one real Schur form: one factorisation each, the tf's made as it is
    loaded and shared with its own poles, and no eigensolve of A."""
    from stripgain import matkernel

    A = [[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.5], [0.0, 0.0, 3.0]]
    calls = {"eig": 0, "real_schur": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(matkernel, name, counted(name, getattr(matkernel, name)))
    models = (
        lambda: StateSpace(A, [[1.0], [0.0], [1.0]], [[1.0, 1.0, 0.0]], [[0.0]]),
        lambda: realize(RationalFunction([1.0, 2.0], [5.0, -3.0, 2.0, 1.0])),
    )
    for model in models:
        before = dict(calls)
        ss = model()
        w = ss.poles()
        if ss._tf is not None:
            assert ss.schur is ss._tf.den.schur and ss._tf.poles.tobytes() == w.tobytes()
        assert ss.schur is ss.schur and ss.poles() is w
        assert w.tobytes() == np.sort_complex(ss.schur.w).tobytes()
        assert (calls["eig"], calls["real_schur"]) == (before["eig"], before["real_schur"] + 1)


def test_realize_balances_the_companion_form_by_powers_of_two():
    """realize's A, B, C are the companion form's under the power-of-two
    diagonal similarity of matkernel.balance, exactly, and a quadratic form
    on its state maps back to the companion coordinates by P / outer(t, t)."""
    from stripgain import matkernel

    G = RationalFunction([0.5, 1.0], [720.0, 1764.0, 1624.0, 735.0, 175.0, 21.0, 1.0])
    ss = realize(G)
    n = 6
    A = np.eye(n, k=1)
    A[-1] = -np.asarray(G.den.coeffs[:n])
    Ab, t = matkernel.balance(A)
    assert np.array_equal(np.log2(t), np.round(np.log2(t))) and not (t == 1.0).all()
    assert np.array_equal(ss.A, Ab) and np.array_equal(Ab, A * t / t[:, None])
    assert np.array_equal(ss.B[:, 0] * t, np.eye(n)[-1])
    assert np.array_equal(ss.C[0] / t, [0.5, 1.0, 0.0, 0.0, 0.0, 0.0])
    P = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(ss.in_given_coordinates(P) * np.outer(t, t), P)


def test_state_space_takes_2d_arrays_only():
    with pytest.raises(InvalidInput, match="B must be 2-D, got ndim 1"):
        StateSpace([[-1.0]], [1.0], [[1.0]], [[0.0]])
    with pytest.raises(InvalidInput, match="D must be 2-D, got ndim 0"):
        StateSpace([[-1.0]], [[1.0]], [[1.0]], 0.0)


def test_state_space_has_one_input_and_one_output():
    A = [[-1.0, 0.5], [0.0, -2.0]]
    B, C, D = [[1.0], [0.0]], [[1.0, 1.0]], [[0.0]]
    with pytest.raises(InvalidInput, match=r"^B must have shape \(2, 1\), got \(2, 2\)$"):
        StateSpace(A, [[1.0, 0.0], [0.0, 1.0]], C, D)
    with pytest.raises(InvalidInput, match=r"^C must have shape \(1, 2\), got \(2, 2\)$"):
        StateSpace(A, B, [[1.0, 1.0], [0.0, 1.0]], D)
    with pytest.raises(InvalidInput, match=r"^D must have shape \(1, 1\), got \(1, 2\)$"):
        StateSpace(A, B, C, [[0.0, 0.0]])
    assert repr(StateSpace(A, B, C, D)) == "StateSpace(n=2)"


def test_realize_rejects_improper():
    with pytest.raises(ImproperTransferFunction):
        realize(RationalFunction([0.0, 0.0, 1.0], [1.0, 1.0]))


def test_realize_static_gain():
    ss = realize(RationalFunction([3.0], [2.0]))
    assert ss.n == 0
    assert ss.D[0, 0] == pytest.approx(1.5)


def test_tf_round_trip_seeded():
    """tf_of(realize(G)) reproduces the coefficients of G."""
    rng = np.random.RandomState(17)
    for _ in range(20):
        n = rng.randint(1, 7)
        poles = []
        while len(poles) < n:
            if rng.rand() < 0.4 and n - len(poles) >= 2:
                re, im = rng.uniform(-3, 3), rng.uniform(0.2, 4)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(rng.uniform(-3, 3), 0.0))
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, n + 2))  # sometimes biproper
        G = RationalFunction(Polynomial(num), Polynomial(den))
        back = tf_of(realize(G))
        scale = max(1.0, np.max(np.abs(G.num.coeffs)))
        assert len(back.num.coeffs) == len(G.num.coeffs)
        assert np.allclose(back.num.coeffs, G.num.coeffs, atol=1e-8 * scale)
        assert np.allclose(back.den.coeffs, G.den.coeffs, atol=1e-8)


def test_tf_of_eigensolves_the_perturbed_matrix_only(monkeypatch):
    ss = StateSpace([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[1.0, 2.0]], [[0.0]])
    ss.poles()
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(A) or eigvals(A))
    G = tf_of(ss)
    # the denominator comes from the cached poles; the other eigensolves are
    # the companion matrices of the result's own polynomials
    pert = ss.A - (ss.B / np.linalg.norm(ss.B)) @ (ss.C / np.linalg.norm(ss.C))
    assert [np.array_equal(A, pert) for A in calls].count(True) == 1
    assert not any(np.array_equal(A, ss.A) for A in calls)
    assert np.allclose(G.num.coeffs, [1.0, 2.0], atol=1e-12)
    assert np.allclose(G.den.coeffs, [2.0, 3.0, 1.0], atol=1e-12)


@pytest.mark.parametrize(
    "A, B, C, D, num",
    [
        (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), 2.5, (2.5,)),
        (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), -0.0, (0.0,)),
        ([[-1.0]], [[0.0]], [[1.0]], 0.5, (0.5,)),
    ],
    ids=["no-states", "no-states-negative-zero", "unreachable"],
)
def test_tf_of_a_static_system_is_its_feedthrough(A, B, C, D, num):
    G = tf_of(StateSpace(A, B, C, [[D]]))
    assert (G.num.coeffs, G.den.coeffs) == (num, (1.0,))


def test_modal_split_separates_poles():
    _, ss, strip = two_sided_example()
    split = modal_split(ss, strip)
    assert split.p == 1
    assert np.allclose(np.linalg.eigvals(split.plus.A).real, [1.0], atol=1e-9)
    assert np.allclose(np.linalg.eigvals(split.minus.A).real, [-3.0], atol=1e-9)


def test_impulse_response_closed_form():
    # partial fractions on the strip: -0.25 e^{-3t} for t > 0, -0.25 e^{t} for t <= 0
    _, ss, strip = two_sided_example()
    for t in (0.2, 1.0, 2.5):
        assert impulse_response(ss, strip, t) == pytest.approx(
            -0.25 * math.exp(-3 * t), rel=1e-10
        )
    for t in (-0.2, -1.0, -2.5):
        assert impulse_response(ss, strip, t) == pytest.approx(
            -0.25 * math.exp(t), rel=1e-10
        )


def test_sampled_signal_validation():
    with pytest.raises(InvalidInput):
        SampledSignal(0.0, -0.1, np.ones(5))
    with pytest.raises(InvalidInput):
        SampledSignal(0.0, 0.1, np.array([1.0]))
    with pytest.raises(InvalidInput):
        SampledSignal(0.0, 0.1, np.array([1.0, np.nan]))


def test_convolve_approximates_impulse_response():
    """A narrow unit-mass pulse drives the output close to the kernel."""
    _, ss, strip = two_sided_example()
    dt = 0.002
    t0 = -8.0
    N = int(round(16.0 / dt)) + 1
    tt = t0 + dt * np.arange(N)
    width = 0.05
    u = np.where(np.abs(tt) <= width, 1.0 / (2 * width), 0.0)
    y = convolve(ss, strip, SampledSignal(t0, dt, u))
    for t_probe in (-2.0, -0.5, 0.5, 2.0):
        k = int(round((t_probe - t0) / dt))
        assert y.values[k] == pytest.approx(
            impulse_response(ss, strip, t_probe), rel=5e-3
        )


def test_convolve_includes_feedthrough():
    ss = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]])
    u = SampledSignal(0.0, 0.1, np.array([1.0, -1.0, 0.5]))
    y = convolve(ss, Strip(0.0, 1.0), u)
    assert np.allclose(y.values, 2.0 * u.values)


def test_weighted_l2_norm_two_sided_exponential():
    # f = e^{-2|t|}: integral of f^2 is 1/2
    dt = 0.001
    t0 = -12.0
    N = int(round(24.0 / dt)) + 1
    tt = t0 + dt * np.arange(N)
    f = SampledSignal(t0, dt, np.exp(-2.0 * np.abs(tt)))
    assert weighted_l2_norm(f, Line(0.0)) == pytest.approx(math.sqrt(0.5), rel=1e-5)


def test_weighted_l2_norm_strip_takes_worst_rate():
    dt = 0.001
    t0 = -20.0
    N = int(round(40.0 / dt)) + 1
    tt = t0 + dt * np.arange(N)
    f = SampledSignal(t0, dt, np.exp(-3.0 * np.abs(tt)))
    # at rate lam the weighted energy is 1/(2(3-lam)) + 1/(2(3+lam))
    want = max(
        math.sqrt(0.5 / (3.0 - lam) + 0.5 / (3.0 + lam))
        for lam in (0.0, 1.0)
    )
    got = weighted_l2_norm(f, Strip(0.0, 1.0))
    assert got == pytest.approx(want, rel=1e-4)


def test_weighted_l2_norm_flags_short_window():
    f = SampledSignal(-1.0, 0.01, np.ones(201))
    with pytest.raises(WindowTooShort):
        weighted_l2_norm(f, Line(0.0))
