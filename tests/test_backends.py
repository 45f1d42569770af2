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
