"""Scalar kernel matrices, the pairwise Gaussian and polynomial cross matrices.

These are the only elementwise inner loops in the package; everything
downstream is dense LAPACK.  Both functions accept ``X`` of shape (n, d)
and ``Y`` of shape (q, d) and return the (n, q) matrix of kernel values,
computed with vectorized numpy.
"""

import numpy as np


def _sq_dists(X, Y):
    # (x - y)^2 expanded; clamp tiny negatives from cancellation
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ Y.T)
        + np.sum(Y * Y, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def backend_name() -> str:
    """Name of the evaluation backend; numpy is the only one."""
    return "numpy"


def gaussian_cross(X, Y, eps):
    """Matrix of exp(-eps * ||x_i - y_j||^2) values."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return np.exp(-float(eps) * _sq_dists(X, Y))


def polynomial_cross(X, Y, degree):
    """Matrix of (x_i . y_j)^degree values."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return (X @ Y.T) ** int(degree)
