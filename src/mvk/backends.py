"""Scalar kernel matrices, the pairwise Gaussian and polynomial cross matrices.

These are the only elementwise inner loops in the package; everything
downstream is dense LAPACK.  Both functions accept ``X`` of shape (n, d)
and ``Y`` of shape (q, d) and return the (n, q) matrix of kernel values,
computed with vectorized numpy.

The Gaussian is split into ``_sq_dists``, which builds the squared
distances in one (n, q) array, and ``_gaussian``, which exponentiates
them, so that the Gaussian terms of a separable kernel share one distance
matrix per point pair (``SeparableKernel._term_matrices``).
"""

import numpy as np


def _sq_dists(X, Y):
    """Matrix of ||x_i - y_j||^2, built in one (n, q) array."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    # (x - y)^2 expanded as -2 x.y + |x|^2 + |y|^2, which rounds exactly as
    # |x|^2 - 2 x.y + |y|^2; clamp tiny negatives from cancellation
    d2 = X @ Y.T
    d2 *= -2.0
    d2 += np.sum(X * X, axis=1)[:, None]
    d2 += np.sum(Y * Y, axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _gaussian(d2, eps, out=None):
    """exp(-eps * d2), written into ``out`` (which may be ``d2``) if given."""
    K = np.multiply(d2, -float(eps), out=out)
    return np.exp(K, out=K)


def backend_name() -> str:
    """Name of the evaluation backend; numpy is the only one."""
    return "numpy"


def gaussian_cross(X, Y, eps):
    """Matrix of exp(-eps * ||x_i - y_j||^2) values."""
    d2 = _sq_dists(X, Y)
    return _gaussian(d2, eps, out=d2)


def polynomial_cross(X, Y, degree):
    """Matrix of (x_i . y_j)^degree values."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return (X @ Y.T) ** int(degree)
