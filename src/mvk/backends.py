"""Scalar kernel matrices, the pairwise Gaussian and polynomial cross matrices.

These are the only elementwise inner loops in the package; everything
downstream is dense LAPACK.  Both functions accept ``X`` of shape (n, d)
and ``Y`` of shape (q, d) and return the (n, q) matrix of kernel values,
computed with vectorized numpy.

The Gaussian is split into ``_sq_dists``, which builds the squared
distances in one (n, q) array, and ``_gaussian``, which exponentiates
them, so that the Gaussian terms of a separable kernel share one distance
matrix per point pair (``SeparableKernel._term_matrices``); the
polynomial terms share one matrix of inner products (``_dots``) the same
way.  Both Gaussian steps can write into a caller's buffer, so that
``SeparableKernel.apply`` reuses two tile-sized arrays for every row tile
of its queries, and ``_gaussian`` can take a row panel of the distances.

``_gaussian`` flushes to zero: every entry whose exponent -eps * d2 lies
below ``EXP_FLOOR`` is exactly 0, every other one is ``np.exp``'s value
bit for bit.  numpy's exp leaves its vector fast path when the result
underflows: on an AVX-512 Xeon with numpy 2.4 an in-cache entry costs
about 1 ns while -eps * d2 >= -707, 22 ns when it rounds to 0 and
130-270 ns when it is subnormal.  Large shapes on spread-out points
underflow often (at shape 400 on [-1, 1]^2, 28 % of the entries round to
0 and 2 % are subnormal), so the exponent is clamped at the floor before
exp, in row panels that stay in L2, and the clamped entries are zeroed
after it.  What is dropped is below 1e-304; it shows in a sum only where
every other term is as small, at a point farther than sqrt(700 / eps)
from every other one.
"""

import numpy as np

# Entries per row panel of ``_gaussian`` and of ``SeparableKernel._blocks``
# and per query tile of ``SeparableKernel.apply`` (and of
# ``PointSet.min_separation``): 2^16 float64 (512 KiB) per array, so a
# panel and its mask, a panel's kernel values and their product with one
# coefficient, or a tile's distances and one term's kernel values, stay in
# a 2 MiB L2.
PANEL = 2**16
# Smallest exponent ``_gaussian`` evaluates; exp(-700) = 9.86e-305 is
# normal and inside numpy's fast range (to about -707).
EXP_FLOOR = -700.0


def _sq_dists(X, Y, out=None):
    """Matrix of ||x_i - y_j||^2, built in one (n, q) array.

    Written into ``out``, a C-contiguous (n, q) array, if given.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    # (x - y)^2 expanded as -2 x.y + |x|^2 + |y|^2, which rounds exactly as
    # |x|^2 - 2 x.y + |y|^2; clamp tiny negatives from cancellation
    d2 = np.matmul(X, Y.T, out=out)
    d2 *= -2.0
    d2 += np.sum(X * X, axis=1)[:, None]
    d2 += np.sum(Y * Y, axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _gaussian(d2, eps, out=None):
    """exp(-eps * d2) of an (n, q) array, flushed to zero below the floor.

    Written into ``out`` (which may be ``d2``) if given.  Entries with
    -eps * d2 >= EXP_FLOOR equal ``np.exp(-eps * d2)`` bit for bit; all
    others are exactly 0, so no entry is subnormal and exp never takes its
    underflow slow path.  Works on panels of whole rows, at most PANEL
    entries or else one row: in each, multiply by -eps, note which
    exponents reach the floor, clamp the others to it, exponentiate and
    multiply by the mask.  A panel whose exponents all reach the floor is
    exponentiated as it is, which spares the three extra passes where
    shapes are small.
    """
    K = np.empty(d2.shape) if out is None else out
    rows = max(1, PANEL // max(1, d2.shape[1]))
    for i in range(0, len(d2), rows):
        k = K[i:i + rows]
        np.multiply(d2[i:i + rows], -float(eps), out=k)
        if k.min(initial=0.0) >= EXP_FLOOR:
            np.exp(k, out=k)
            continue
        mask = k >= EXP_FLOOR
        np.maximum(k, EXP_FLOOR, out=k)
        np.exp(k, out=k)
        k *= mask
    return K


def backend_name() -> str:
    """Name of the evaluation backend; numpy is the only one."""
    return "numpy"


def gaussian_cross(X, Y, eps):
    """Matrix of exp(-eps * ||x_i - y_j||^2) values."""
    d2 = _sq_dists(X, Y)
    return _gaussian(d2, eps, out=d2)


def _dots(X, Y):
    """Matrix of the inner products x_i . y_j."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return X @ Y.T


def polynomial_cross(X, Y, degree):
    """Matrix of (x_i . y_j)^degree values."""
    return _dots(X, Y) ** int(degree)
