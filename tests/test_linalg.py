import numpy as np
import pytest

from mvk.linalg import (
    EigenSolverError,
    check_symmetric,
    is_psd,
    pinv_sym,
    rank_of,
    sym_eig,
    symmetrize,
)


def random_symmetric(rng, n, rank=None):
    if rank is None:
        rank = n
    A = rng.standard_normal((n, rank))
    return A @ A.T


def test_symmetrize():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = symmetrize(A)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == 1.0


def test_check_symmetric():
    assert check_symmetric(np.eye(3))
    assert not check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not check_symmetric(np.ones((2, 3)))
    assert not check_symmetric(np.ones(4))
    assert check_symmetric(np.zeros((0, 0)))
    # tolerance is relative to the magnitude of the entries
    big = 1e6 * np.eye(2)
    big[0, 1] = 1e-8
    assert check_symmetric(big)


def test_sym_eig_descending_orthonormal():
    rng = np.random.default_rng(0)
    A = random_symmetric(rng, 6)
    w, V = sym_eig(A)
    assert np.all(np.diff(w) <= 0)
    assert np.allclose(V.T @ V, np.eye(6), atol=1e-12)
    assert np.allclose((V * w) @ V.T, symmetrize(A), atol=1e-10 * np.abs(w).max())


def test_sym_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pinv_sym_moore_penrose():
    rng = np.random.default_rng(1)
    A = random_symmetric(rng, 5, rank=3)
    P = pinv_sym(A)
    assert np.allclose(A @ P @ A, A, atol=1e-10)
    assert np.allclose(P @ A @ P, P, atol=1e-10)
    assert np.allclose(P, P.T)
    assert np.allclose(A @ P, (A @ P).T, atol=1e-10)


def test_pinv_sym_inverse_on_full_rank():
    rng = np.random.default_rng(2)
    A = random_symmetric(rng, 4) + np.eye(4)
    assert np.allclose(pinv_sym(A), np.linalg.inv(A), atol=1e-10)


def test_pinv_sym_zero_matrix():
    assert np.array_equal(pinv_sym(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_sym_rejects_bad_tol():
    with pytest.raises(ValueError):
        pinv_sym(np.eye(2), rank_tol=0.0)


def test_rank_of():
    rng = np.random.default_rng(3)
    assert rank_of(np.zeros((4, 4))) == 0
    assert rank_of(np.eye(4)) == 4
    assert rank_of(random_symmetric(rng, 6, rank=2)) == 2
    v = rng.standard_normal(5)
    assert rank_of(np.outer(v, v)) == 1


def test_is_psd():
    ok, lam = is_psd(np.eye(2))
    assert ok and lam == pytest.approx(1.0)
    ok, lam = is_psd(np.diag([1.0, -0.5]))
    assert not ok and lam == pytest.approx(-0.5)
    # tiny negative eigenvalues within tolerance still count as PSD
    ok, _ = is_psd(np.diag([1.0, -1e-13]))
    assert ok
