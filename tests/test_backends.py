import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvk import backends
from mvk.backends import EXP_FLOOR, PANEL


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


# A d^2 below 1e-300 is not drawn: there -eps * d^2 itself underflows, in
# the multiply before exp, and exp of it is 1.
D2 = st.one_of(st.just(0.0), st.floats(1e-300, 1e4))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    eps=st.floats(1e-3, 1e4),
    shape=st.one_of(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        # a few rows per panel, so several panels and a short last one
        st.tuples(st.integers(2, 12), st.integers(PANEL // 5, PANEL + 1)),
    ),
    drawn=st.lists(D2, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    in_place=st.booleans(),
)
@example(eps=1e-3, shape=(3, 5), drawn=[1e4], seed=0, in_place=True)
@example(eps=400.0, shape=(0, 7), drawn=[], seed=0, in_place=False)
@example(eps=400.0, shape=(7, 0), drawn=[], seed=0, in_place=True)
@example(eps=400.0, shape=(1, 7), drawn=[0.0, 1.75, 1e4], seed=0, in_place=False)
@example(eps=400.0, shape=(7, PANEL // 3), drawn=[], seed=0, in_place=True)
def test_gaussian_flushes_to_zero_below_the_floor(eps, shape, drawn, seed, in_place):
    rng = np.random.default_rng(seed)
    # zeros, uniform and log-uniform distances, and exponents within a few
    # ulps of the floor
    pick = rng.integers(0, 4, shape)
    near = -EXP_FLOOR / eps * (1.0 + rng.integers(-4, 5, shape) * 2.0**-52)
    d2 = np.select(
        [pick == 0, pick == 1, pick == 2],
        [0.0, rng.uniform(0.0, 1e4, shape), 10.0 ** rng.uniform(-300.0, 4.0, shape)],
        np.minimum(near, 1e4),
    )
    d2.reshape(-1)[:len(drawn)] = drawn[:d2.size]
    expo = d2 * -eps
    with np.errstate(under="ignore"):
        ref = np.exp(expo)
    arg = d2.copy()

    with np.errstate(under="raise", invalid="raise"):
        K = backends._gaussian(arg, eps, out=arg if in_place else None)
        with pytest.raises(FloatingPointError):
            np.exp(-800.0)

    assert K.shape == shape
    assert (K is arg) if in_place else np.array_equal(arg, d2)
    keep = expo >= EXP_FLOOR
    assert np.array_equal(K[keep].view(np.uint64), ref[keep].view(np.uint64))
    assert np.all(K[~keep].view(np.uint64) == 0)
    assert not np.any((K != 0) & (K < np.finfo(float).tiny))
