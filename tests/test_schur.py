"""One real Schur form per model: the complex form derived from it, the
dominance split read off it, and how often a model is factored.

The references here are independent of the code under test: dense solves for
the frequency response, and, for the dominance certificate, the construction
through scipy's sorted Schur form, Sylvester and Lyapunov solvers and an
explicit inverse.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stripgain import (
    Line,
    MarginalRate,
    NotPDominantAtSlope,
    SlopeLoop,
    StateSpace,
    Strip,
    dominance,
    dominance_check,
    matkernel,
    sector_slope_gain,
    small_gain_check,
    strip_gain,
)
from stripgain.regions import TAU_LINE, _on_band
from stripgain.stripnorm import _hamiltonians, frequency_response

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SPECTRA = ("real", "pairs", "repeated")


def _spectrum(rng, n, kind, right, lam):
    """n eigenvalues closed under conjugation: real only, mixed real and
    complex pairs, or one complex pair repeated; `right` of them (a real one
    when odd) with real part at least 0.3 right of Re s = -lam, the rest at
    least 0.3 left of it."""
    out = []
    if right % 2:
        out.append(complex(-lam + rng.uniform(0.3, 2.0)))
    if kind == "repeated":
        z = complex(rng.uniform(0.3, 2.0), rng.uniform(0.5, 3.0))
        left = complex(-rng.uniform(0.3, 2.0), z.imag)
        for k in range(right // 2):
            out += [-lam + z, -lam + z.conjugate()]
        while len(out) < n - 1:
            out += [-lam + left, -lam + left.conjugate()]
    else:
        while len(out) < right:
            re = -lam + rng.uniform(0.3, 2.0)
            if kind == "pairs" and right - len(out) >= 2:
                im = rng.uniform(0.1, 3.0)
                out += [complex(re, im), complex(re, -im)]
            else:
                out.append(complex(re))
    while len(out) < n:
        re = -lam - rng.uniform(0.3, 4.0)
        if kind == "pairs" and n - len(out) >= 2 and rng.random() < 0.7:
            im = rng.uniform(0.1, 3.0)
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re))
    return out


def _model(rng, poles):
    """A real matrix with the given spectrum in a basis of condition number
    at most 4; a repeated pair gets a coupling block, so it is defective."""
    n = len(poles)
    A = np.zeros((n, n))
    k = 0
    while k < n:
        z = poles[k]
        if z.imag:
            A[k : k + 2, k : k + 2] = [[z.real, z.imag], [-z.imag, z.real]]
            if k >= 2 and poles[k - 2] == z:
                A[k - 2 : k, k : k + 2] = np.eye(2)
            k += 2
        else:
            A[k, k] = z.real
            k += 1
    V = np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(0.5, 2.0, n)
    return V @ A @ np.linalg.inv(V)


def _random_matrix(seed, n, kind):
    rng = np.random.default_rng(seed)
    right = int(rng.integers(0, n + 1))
    return _model(rng, _spectrum(rng, n, kind, right, 0.0))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), kind=st.sampled_from(SPECTRA))
def test_complex_form_derived_from_the_real_one(seed, n, kind):
    A = _random_matrix(seed, n, kind)
    T, Z = matkernel.complex_schur(matkernel.real_schur(A))
    assert np.linalg.norm(Z.conj().T @ Z - np.eye(n)) <= 1e-13
    assert np.array_equal(np.tril(T, -1), np.zeros((n, n)))
    assert np.linalg.norm(Z @ T @ Z.conj().T - A) <= 1e-12 * np.linalg.norm(A)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(SPECTRA),
    lam=st.floats(0.0, 2.0),
)
def test_frequency_response_matches_a_dense_solve(seed, n, kind, lam):
    rng = np.random.default_rng(seed)
    A = _model(rng, _spectrum(rng, n, kind, int(rng.integers(0, n + 1)), lam))
    ss = StateSpace(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[0.2]])
    # fewer frequencies than states, then more: both loop orders
    for omegas in (np.array([0.0, 1.3]), np.linspace(0.0, 5.0, n + 3)):
        want = [
            ss.C[0] @ np.linalg.solve((-lam + 1j * w) * np.eye(n) - A, ss.B[:, 0]) + 0.2
            for w in omegas
        ]
        got = frequency_response(ss, lam, omegas)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * max(1.0, np.abs(want).max()))


def _reference_certificate(A, p, rate):
    """P of the dominance certificate through scipy's sorted real Schur
    form, solve_sylvester, solve_continuous_lyapunov and an explicit inverse."""
    n = A.shape[0]
    At = A + rate * np.eye(n)
    if p in (0, n):
        S = np.eye(n)
        plus, minus = (At, None) if p else (None, At)
    else:
        T, Z, sdim = sla.schur(At, output="real", sort=lambda re, im: re > 0.0)
        assert sdim == p
        X = sla.solve_sylvester(T[:p, :p], -T[p:, p:], -T[:p, p:])
        S = Z @ np.block([[np.eye(p), X], [np.zeros((n - p, p)), np.eye(n - p)]])
        plus, minus = T[:p, :p], T[p:, p:]
    blocks = []
    if p:
        blocks.append(-sla.solve_continuous_lyapunov(plus.T, np.eye(p)))
    if n - p:
        blocks.append(sla.solve_continuous_lyapunov(minus.T, -np.eye(n - p)))
    Si = np.linalg.inv(S)
    P = Si.T @ sla.block_diag(*blocks) @ Si
    return 0.5 * (P + P.T)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(SPECTRA),
    which=st.sampled_from((0, 1, 2, "n")),
    rate=st.floats(0.0, 2.0),
)
def test_dominance_certificate_matches_the_dense_construction(seed, n, kind, which, rate):
    rng = np.random.default_rng(seed)
    p = n if which == "n" else min(which, n)
    A = _model(rng, _spectrum(rng, n, kind, p, rate))
    cert = dominance_check(StateSpace(A, np.ones((n, 1)), np.ones((1, n)), [[0.0]]), p, rate)
    want = _reference_certificate(A, p, rate)
    assert np.linalg.norm(cert.P - want) <= 1e-9 * np.linalg.norm(want)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20))
def test_reordered_hamiltonian_form_matches_scipys_sorted_schur(seed, n):
    """The gain certificate's stable subspace: real_schur plus reorder_schur
    gives the stable count and the projector Z1 Z1' of scipy's sorted real
    Schur form, to 1e-10.  A level below the line's norm puts eigenvalues on
    the imaginary axis, where rounding decides either count (and scipy may
    refuse its own reordering); such Hamiltonians have no stable subspace
    of dimension n and are left out."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0)
    H = _hamiltonians(
        rng.standard_normal((1, n, n)),
        rng.standard_normal((1, n, 1)),
        rng.standard_normal((1, 1, n)),
        np.array([d]),
        np.array([rng.uniform(0.0, 2.0)]),
        np.array([abs(d) + rng.uniform(0.1, 5.0)]),
    )[0]
    assume(np.abs(np.linalg.eigvals(H).real).min() > 1e-8 * np.linalg.norm(H))
    S = matkernel.real_schur(H)
    _, Z, _, m = matkernel.reorder_schur(S, np.diag(S.T) < 0)
    _, Z_ref, m_ref = sla.schur(H, output="real", sort=lambda re, im: re < 0)
    assert m == m_ref
    assert np.abs(Z[:, :m] @ Z[:, :m].T - Z_ref[:, :m] @ Z_ref[:, :m].T).max() <= 1e-10


def _forbid(name):
    def call(*args, **kwargs):
        raise AssertionError("%s called" % name)

    return call


def _count_schur(monkeypatch):
    """Sizes of the matrices given to matkernel.real_schur, in call order."""
    sizes = []
    factor = matkernel.real_schur

    def counting(A):
        sizes.append(np.shape(A)[0])
        return factor(A)

    monkeypatch.setattr(matkernel, "real_schur", counting)
    return sizes


def test_two_dominance_checks_share_one_factorisation(monkeypatch):
    rng = np.random.default_rng(4)
    A = _model(rng, _spectrum(rng, 12, "pairs", 2, 0.5))
    ss = StateSpace(A, np.ones((12, 1)), np.ones((1, 12)), [[0.0]])
    sizes = _count_schur(monkeypatch)
    for name in ("schur", "solve_sylvester", "solve_continuous_lyapunov"):
        monkeypatch.setattr(sla, name, _forbid(name))
    monkeypatch.setattr(np.linalg, "inv", _forbid("inv"))
    first = dominance_check(ss, 2, 0.5)
    second = dominance_check(ss, 2, 0.6)
    assert sizes == [12]
    assert (first.p, second.p) == (2, 2)


def test_small_gain_factors_the_closed_loop_once():
    rng = np.random.default_rng(11)
    strip = Strip(0.5, 1.5)
    # 1-dominant on the whole strip: one pole right of Re s = -0.5, the
    # others left of Re s = -1.5
    poles = [complex(rng.uniform(-0.2, 0.5))] + _spectrum(rng, 39, "pairs", 0, 1.5)
    plant = StateSpace(
        _model(rng, poles), rng.standard_normal((40, 1)), rng.standard_normal((1, 40)), [[0.0]]
    )
    gamma = strip_gain(plant, 1, strip).gamma
    # |k / (s + 4)| is largest on the strip at s = -1.5: k / 2.5
    partner = StateSpace([[-4.0]], [[1.0]], [[0.5 * 2.5 / gamma]], [[0.0]])
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = _count_schur(monkeypatch)
        report = small_gain_check(plant, 1, partner, 0, strip)
    assert report.conclusive and report.closed_p == 1
    assert report.certificate_lo is not None and report.certificate_hi is not None
    assert sizes.count(41) == 1


def test_on_band_of_a_stack_is_the_rule_row_by_row():
    rng = np.random.default_rng(2)
    # real parts off the band [-0.7, -0.5] but for the two placed below
    re = rng.choice([-2.0, 1.0], (5, 4)) + rng.uniform(-0.3, 0.3, (5, 4))
    stack = re + 1j * rng.standard_normal((5, 4))
    stack[2, 1] = -0.5 + 3e-9j
    stack[4, 3] = -0.7 - 1e-9
    count, on = _on_band(stack, 0.5, 0.7)
    assert count.shape == (5,) and on.shape == (5, 4)
    for k, row in enumerate(stack):
        c, o = _on_band(row, 0.5, 0.7)
        assert count[k] == c == np.count_nonzero(row.real > -0.5)
        assert (on[k] == o).all()
    assert stack[2][on[2]][0] == stack[2, 1] and stack[4][on[4]][0] == stack[4, 3]
    assert on.sum(axis=1).tolist() == [0, 0, 1, 0, 1]
    count, on = _on_band(np.zeros((3, 0)), 0.0, 0.0)
    assert count.tolist() == [0, 0, 0] and on.shape == (3, 0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    lo=st.floats(0.0, 5.0),
    width=st.sampled_from([0.0, 1e-9, 0.3, 2.0]),
)
def test_on_band_flags_what_the_rule_flags_eigenvalue_by_eigenvalue(seed, shape, lo, width):
    """Eigenvalues placed a half and twice the tolerance inside and outside
    both band edges, and at random, are flagged exactly as the rule evaluated
    on each one alone in Python floats."""
    rng = np.random.default_rng(seed)
    hi = lo + width
    edges = np.array([-lo, -hi])
    edge = edges[rng.integers(0, 2, shape)]
    offset = rng.choice([-2.0, -0.5, 0.5, 2.0], shape) * TAU_LINE * (1.0 + np.abs(edge))
    placed = rng.random(shape) < 0.8
    re = np.where(placed, edge + offset, rng.uniform(-hi - 1.0, 1.0, shape))
    eigs = re + 1j * rng.standard_normal(shape)
    count, on = _on_band(eigs, lo, hi)
    assert np.shape(count) == tuple(shape[:-1]) and on.shape == tuple(shape)
    for idx in np.ndindex(*shape):
        r = float(eigs[idx].real)
        tol = TAU_LINE * (1.0 + abs(r))
        assert on[idx] == (-hi - tol <= r <= -lo + tol)
    for idx in np.ndindex(*shape[:-1]):
        assert count[idx] == sum(float(z.real) > -lo for z in eigs[idx])
    # a half tolerance inside an edge is on the band, twice outside it is off
    assert on[placed & (edge == -lo) & (offset == 0.5 * TAU_LINE * (1.0 + lo))].all()
    assert not on[placed & (edge == -hi) & (offset == -2.0 * TAU_LINE * (1.0 + hi))].any()


def test_sector_sweep_counts_every_slope_with_one_call(monkeypatch):
    # L = -1/(s (s + 2)): the loop at slope k has the poles -1 +- sqrt(1 - k),
    # 0-dominant at rate 0.5 for k > 0.75, with a pole on the line at k = 0.75
    L = StateSpace([[0.0, 1.0], [0.0, -2.0]], [[0.0], [1.0]], [[-1.0, 0.0]], [[0.0]])
    calls = []

    def counting(*args):
        calls.append(args)
        return _on_band(*args)

    monkeypatch.setattr(dominance, "_on_band", counting)
    res = sector_slope_gain(SlopeLoop(L, 1.0, 3.0), 0, Line(0.5), n_slopes=11)
    assert len(calls) == 1 and np.shape(calls[0][0]) == (11, 2)
    assert len(res.evaluations) == 11
    # the first failing slope decides, in slope order
    with pytest.raises(MarginalRate) as info:
        sector_slope_gain(SlopeLoop(L, 0.75, 1.0), 0, Line(0.5), n_slopes=3)
    assert str(info.value).endswith("dominance at rate 0.5 is marginal")
    with pytest.raises(NotPDominantAtSlope) as info:
        sector_slope_gain(SlopeLoop(L, 0.5, 1.0), 0, Line(0.5), n_slopes=3)
    assert (info.value.slope, info.value.actual) == (0.5, 1)
    assert str(info.value) == (
        "closed loop at slope 0.5 is not 0-dominant at rate 0.5 "
        "(expected 0 eigenvalues right of the shifted axis, found 1)"
    )
