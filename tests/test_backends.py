import numpy as np
import pytest

from mvk import backends


def _gaussian_reference(X, Y, eps):
    diff = X[:, None, :] - Y[None, :, :]
    return np.exp(-eps * np.sum(diff * diff, axis=-1))


def _polynomial_reference(X, Y, degree):
    return np.sum(X[:, None, :] * Y[None, :, :], axis=-1) ** degree


def test_backend_name_valid():
    assert backends.backend_name() == "numpy"


def test_gaussian_cross_agrees_with_numpy_reference():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    Y = rng.standard_normal((20, 3))
    K = backends.gaussian_cross(X, Y, 1.7)
    ref = _gaussian_reference(X, Y, 1.7)
    assert K.shape == (30, 20)
    assert np.allclose(K, ref, rtol=1e-12, atol=1e-14)


def test_polynomial_cross_agrees_with_numpy_reference():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((12, 2))
    Y = rng.standard_normal((9, 2))
    K = backends.polynomial_cross(X, Y, 3)
    ref = _polynomial_reference(X, Y, 3)
    assert np.allclose(K, ref, rtol=1e-12, atol=1e-14)


def test_gaussian_cross_basic_values():
    X = np.array([[0.0], [1.0]])
    K = backends.gaussian_cross(X, X, 2.0)
    assert K[0, 0] == pytest.approx(1.0)
    assert K[0, 1] == pytest.approx(np.exp(-2.0))
    assert np.allclose(K, K.T)


def _expanded_reference(X, Y):
    # |x|^2 - 2 x.y + |y|^2 with one temporary per operation
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ Y.T)
        + np.sum(Y * Y, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_sq_dists_in_place_matches_expanded_formula(d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((40, d))
    Y = rng.uniform(-3, 3, (25, d))
    assert np.array_equal(backends._sq_dists(X, Y), _expanded_reference(X, Y))
    assert np.array_equal(backends._sq_dists(X, X), _expanded_reference(X, X))


def test_sq_dists_duplicate_rows():
    rng = np.random.default_rng(3)
    # in one dimension -2 x^2 + x^2 + x^2 is exactly 0
    x = rng.standard_normal((20, 1))
    assert np.all(backends._sq_dists(x, x).diagonal() == 0.0)
    # in more, the expanded formula leaves a few ulps of |x|^2, never less
    # than 0
    X = rng.standard_normal((20, 5))
    D = backends._sq_dists(X, np.vstack([X, X]))
    sq = np.sum(X * X, axis=1)
    for dup in (D.diagonal(), D[:, 20:].diagonal()):
        assert np.all(dup >= 0.0)
        assert np.all(dup <= 4 * 5 * np.finfo(float).eps * sq)


def test_sq_dists_accepts_non_contiguous_inputs():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    Y = rng.standard_normal((11, 3))
    ref = backends._sq_dists(np.ascontiguousarray(X[::2]), Y)
    assert np.array_equal(backends._sq_dists(X[::2], Y), ref)
    assert np.array_equal(
        backends._sq_dists(np.asfortranarray(X), np.asfortranarray(Y)),
        backends._sq_dists(X, Y),
    )
