import numpy as np
import pytest
import scipy.linalg as sla

from stripgain import (
    InvalidInput,
    NumericalFailure,
    SampledSignal,
    SingularSylvester,
    StateSpace,
    Strip,
    convolve,
)
from stripgain import matkernel


def test_eig_sorted_and_complete():
    A = np.diag([3.0, -1.0, 0.5])
    w = matkernel.eig(A)
    assert np.allclose(sorted(w.real), [-1.0, 0.5, 3.0])


def test_eig_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 4, 4))
    w = matkernel.eig(stack)
    assert w.shape == (3, 4)
    for k in range(3):
        assert np.array_equal(w[k], matkernel.eig(stack[k]))
    bad = stack.copy()
    bad[1, 2, 3] = np.nan
    with pytest.raises(InvalidInput):
        matkernel.eig(bad)
    with pytest.raises(InvalidInput):
        matkernel.eig(np.zeros((3, 4, 5)))
    assert matkernel.eig(np.zeros((2, 0, 0))).shape == (2, 0)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        matkernel.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lyap_solve_residual_seeded():
    rng = np.random.RandomState(3)
    for _ in range(10):
        n = rng.randint(1, 6)
        A = rng.randn(n, n) - (n + 1) * np.eye(n)  # comfortably stable
        Q = np.eye(n)
        P = matkernel.lyap_solve(A, Q)
        res = A.T @ P + P @ A + Q
        assert np.linalg.norm(res) <= 1e-8 * max(1.0, np.linalg.norm(P))
        assert np.allclose(P, P.T)


def test_lyap_solve_mirror_spectrum_is_singular():
    A = np.diag([1.0, -1.0])
    with pytest.raises(SingularSylvester):
        matkernel.lyap_solve(A, np.eye(2))


def test_propagator_matches_series():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    h = 1e-3
    approx = np.eye(2) + h * A + 0.5 * h * h * (A @ A)
    assert np.allclose(matkernel.propagator(A, h), approx, atol=1e-8)


def test_split_spectrum_separates_sides():
    A = np.diag([2.0, -3.0, 0.5, -1.0]) + np.triu(np.ones((4, 4)), 1)
    split = matkernel.split_spectrum(A, 0.2, 2)
    p, T = split.p, split.transform
    assert p == 2
    assert np.all(np.linalg.eigvals(split.T[:p, :p]).real > -0.2)
    assert np.all(np.linalg.eigvals(split.T[p:, p:]).real < -0.2)
    # T achieves the block-diagonal similarity
    back = np.linalg.solve(T, A @ T)
    assert np.allclose(back[:p, p:], 0.0, atol=1e-8)
    assert np.allclose(back[p:, :p], 0.0, atol=1e-8)
    assert np.allclose(split.inverse @ T, np.eye(4), atol=1e-12)


def test_split_spectrum_splits_at_the_callers_count():
    # the count is the caller's verdict; a reordering that selects another
    # number of eigenvalues right of the line is refused, not adopted
    A = np.diag([-1.0, -5.0])
    assert matkernel.split_spectrum(A, 2.0, 1).p == 1
    for p in (0, 2):
        with pytest.raises(NumericalFailure, match="selected 1 eigenvalues, expected %d" % p):
            matkernel.split_spectrum(A, 2.0, p)


def test_split_spectrum_seeded_similarity():
    rng = np.random.RandomState(9)
    done = 0
    while done < 10:
        n = rng.randint(2, 7)
        A = rng.randn(n, n)
        w = np.linalg.eigvals(A)
        c = float(rng.uniform(-1.5, 1.5))
        if np.min(np.abs(w.real - c)) < 0.1:
            continue
        p = int(np.count_nonzero(w.real > c))
        split = matkernel.split_spectrum(A, -c, p)
        T = split.transform
        assert split.p == p
        block = sla.block_diag(split.T[:p, :p], split.T[p:, p:])
        assert np.allclose(A @ T, T @ block, atol=1e-7 * max(1.0, np.linalg.norm(A)))
        done += 1


@pytest.mark.parametrize("cut, p", [(2.0, 0), (-2.0, 3)])
def test_split_spectrum_with_the_whole_spectrum_on_one_side(cut, p):
    A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 1.0], [0.0, 0.0, 0.5]])
    S = matkernel.real_schur(A)
    split = matkernel.split_spectrum(S, -cut, p)  # the line Re s = cut
    assert split.p == p and split.X.shape == (p, 3 - p)
    # nothing to reorder or decouple: the split is the form itself
    assert np.array_equal(split.T, S.T) and np.array_equal(split.transform, S.Z)
    assert np.array_equal(split.inverse, S.Z.T)


def test_split_spectrum_of_an_empty_model():
    split = matkernel.split_spectrum(np.zeros((0, 0)), 0.0, 0)
    assert split.p == 0 and split.T.shape == split.transform.shape == (0, 0)
    # a pure feedthrough convolves through the empty split
    ss = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.5]])
    u = SampledSignal(t0=0.0, dt=0.1, values=[1.0, -2.0, 0.5])
    assert np.array_equal(convolve(ss, Strip(0.0, 1.0), u).values, [2.5, -5.0, 1.25])
