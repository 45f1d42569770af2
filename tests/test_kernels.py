import numpy as np
import pytest

from mvk.kernels import (
    DuplicateCentersError,
    PointSet,
    ScalarKernel,
    SeparableKernel,
)
from mvk import backends, linalg
from mvk.linalg import sym_eig


def test_scalar_kernel_validation():
    with pytest.raises(ValueError):
        ScalarKernel.gaussian(0.0)
    with pytest.raises(ValueError):
        ScalarKernel.gaussian(-1.0)
    with pytest.raises(ValueError):
        ScalarKernel.polynomial(0)
    with pytest.raises(ValueError):
        ScalarKernel("mystery")


def test_scalar_kernel_values():
    g = ScalarKernel.gaussian(2.0)
    assert g(0.0, 0.0) == pytest.approx(1.0)
    assert g(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(
        np.exp(-2.0)
    )
    p = ScalarKernel.polynomial(2)
    assert p(np.array([1.0, 2.0]), np.array([3.0, 1.0])) == pytest.approx(25.0)


def test_scalar_kernel_cross_shape_and_symmetry():
    g = ScalarKernel.gaussian(1.3)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 2))
    K = g.cross(X, X)
    assert K.shape == (7, 7)
    assert np.allclose(K, K.T)
    assert np.allclose(np.diag(K), 1.0)


def test_scalar_kernel_strictly_pd_flag():
    assert ScalarKernel.gaussian(1.0).strictly_pd
    assert not ScalarKernel.polynomial(2).strictly_pd


def test_scalar_kernel_serialization():
    for ks in (ScalarKernel.gaussian(0.7), ScalarKernel.polynomial(3)):
        assert ScalarKernel.from_dict(ks.to_dict()) == ks


def test_point_set_basics():
    P = PointSet(np.array([0.0, 1.0, 2.0]))
    assert P.n == 3 and P.d == 1
    assert len(P) == 3
    assert P.prefix(2).n == 2
    assert P.min_separation() == pytest.approx(1.0)
    empty = PointSet([], d=3)
    assert empty.n == 0 and empty.d == 3
    assert PointSet([[1.0]]).min_separation() == np.inf


def test_point_set_rejects_bad_input():
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        PointSet([[np.inf, 0.0]])


def test_min_separation_matches_pairwise_reference():
    # the (n, n, d) broadcast it replaced; the coordinate sums run in the
    # same order for d <= 8, so the values are equal
    rng = np.random.default_rng(3)
    for n, d in ((2, 1), (40, 1), (60, 2), (30, 3), (25, 8)):
        pts = rng.uniform(-1, 1, (n, d))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dist, np.inf)
        assert PointSet(pts).min_separation() == dist.min()


def test_point_set_duplicates():
    P = PointSet([[0.0], [1e-13]])
    with pytest.raises(DuplicateCentersError):
        P.assert_distinct()
    PointSet([[0.0], [1.0]]).assert_distinct()


def make_kernel():
    Q1 = np.array([[2.0, 1.0], [1.0, 2.0]])
    Q2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    return SeparableKernel.create(
        [(ScalarKernel.gaussian(1.0), Q1), (ScalarKernel.gaussian(2.0), Q2)]
    )


def test_separable_kernel_create_validation():
    with pytest.raises(ValueError):
        SeparableKernel.create([])
    with pytest.raises(ValueError):
        SeparableKernel.create(
            [(ScalarKernel.gaussian(1.0), np.array([[0.0, 1.0], [0.0, 0.0]]))]
        )
    with pytest.raises(ValueError):
        SeparableKernel.create(
            [
                (ScalarKernel.gaussian(1.0), np.eye(2)),
                (ScalarKernel.gaussian(1.0), np.eye(3)),
            ]
        )
    # indefinite coefficients are rejected unless explicitly unchecked
    Q = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        SeparableKernel.create([(ScalarKernel.gaussian(1.0), Q)])
    k = SeparableKernel.create([(ScalarKernel.gaussian(1.0), Q)], unchecked=True)
    assert not k.strictly_pd


def test_strictly_pd_flag():
    assert make_kernel().strictly_pd
    # rank-deficient coefficient sum is not strictly pd
    Q = np.array([[1.0, 0.0], [0.0, 0.0]])
    k = SeparableKernel.create([(ScalarKernel.gaussian(1.0), Q)])
    assert not k.strictly_pd
    # polynomial scalar factor is not strictly pd
    k = SeparableKernel.create([(ScalarKernel.polynomial(2), np.eye(2))])
    assert not k.strictly_pd


def test_create_decomposes_each_coefficient_once(monkeypatch):
    calls = []

    def counting_sym_eig(A):
        calls.append(np.shape(A))
        return sym_eig(A)

    monkeypatch.setattr(linalg, "sym_eig", counting_sym_eig)
    k = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0])),
            (ScalarKernel.gaussian(2.0), np.diag([0.0, 1.0])),
        ]
    )
    assert k.strictly_pd
    # one eigendecomposition per coefficient and one for their sum
    assert calls == [(2, 2)] * 3


def test_kernel_value_and_symmetry():
    k = make_kernel()
    x, y = np.array([0.3]), np.array([0.9])
    V = k(x, y)
    assert V.shape == (2, 2)
    assert np.allclose(V, k(y, x).T)
    expected = sum(ks(x, y) * Q for ks, Q in k.terms)
    assert np.allclose(V, expected)


def test_diag_value_batch():
    k = make_kernel()
    X = np.array([[0.1], [0.5], [0.9]])
    D = k.diag_value(X)
    assert D.shape == (3, 2, 2)
    for i, x in enumerate(X):
        assert np.allclose(D[i], k(x, x))


def test_gramian_matches_kron_assembly():
    k = make_kernel()
    X = PointSet(np.array([[0.0], [0.7], [1.5]]))
    G = k.gramian(X)
    expected = sum(np.kron(ks.cross(X.points, X.points), Q) for ks, Q in k.terms)
    assert np.allclose(G, expected)
    assert np.allclose(G, G.T)


def test_gramian_checks_duplicates():
    k = make_kernel()
    with pytest.raises(DuplicateCentersError):
        k.gramian(PointSet([[0.0], [0.0]]))


def test_cross_matches_gramian_rows():
    k = make_kernel()
    X = PointSet(np.array([[0.0], [0.7], [1.5]]))
    G = k.gramian(X)
    for i, x in enumerate(X.points):
        row = k.cross_many(x[None, :], X)[0]
        assert row.shape == (2, 6)
        assert np.allclose(row, G[2 * i : 2 * i + 2, :])


def test_cross_many_matches_cross():
    k = make_kernel()
    X = PointSet(np.array([[0.0], [0.7]]))
    Xq = np.array([[0.2], [0.4], [0.6]])
    C = k.cross_many(Xq, X)
    assert C.shape == (3, 2, 4)
    for i, x in enumerate(Xq):
        # row of blocks [k(x, x_1) ... k(x, x_n)]
        assert np.allclose(C[i], np.hstack([k(x, y) for y in X.points]))


def test_serialization_roundtrip():
    k = make_kernel()
    k2 = SeparableKernel.from_dict(k.to_dict())
    assert k2.m == k.m and k2.p == k.p
    for (a_ks, a_Q), (b_ks, b_Q) in zip(k.terms, k2.terms):
        assert a_ks == b_ks
        assert np.array_equal(a_Q, b_Q)
    assert k2.strictly_pd == k.strictly_pd


def mixed_kernel():
    # a polynomial term between two Gaussian ones, which share one
    # squared-distance matrix
    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.5), np.array([[2.0, 1.0], [1.0, 2.0]])),
            (ScalarKernel.polynomial(2), np.array([[1.0, 0.0], [0.0, 0.5]])),
            (ScalarKernel.gaussian(4.0), np.array([[0.5, -0.2], [-0.2, 1.0]])),
        ]
    )


def test_shared_distances_match_per_term_cross():
    k = mixed_kernel()
    rng = np.random.default_rng(11)
    X = PointSet(rng.uniform(-1, 1, (9, 2)))
    Xq = rng.uniform(-1, 1, (13, 2))
    A = rng.standard_normal((9, 2))
    # references from each term's own kernel matrix, summed in term order
    G_ref = linalg.symmetrize(
        sum(np.kron(ks.cross(X.points, X.points), Q) for ks, Q in k.terms)
    )
    C_ref = sum(np.kron(ks.cross(Xq, X.points), Q) for ks, Q in k.terms)
    apply_ref = sum(ks.cross(Xq, X.points) @ (A @ Q) for ks, Q in k.terms)
    assert np.array_equal(k.gramian(X), G_ref)
    assert np.array_equal(k.cross_many(Xq, X), C_ref.reshape(13, 2, 18))
    assert np.array_equal(k.apply(Xq, X, A), apply_ref)


@pytest.mark.parametrize("op", ["apply", "gramian", "cross_many"])
def test_gaussian_terms_compute_distances_once(monkeypatch, op):
    k = SeparableKernel.create(
        [(ScalarKernel.gaussian(s), np.eye(2) * s) for s in (1.0, 2.0, 4.0)]
    )
    rng = np.random.default_rng(12)
    X = PointSet(rng.uniform(-1, 1, (6, 2)))
    Xq = rng.uniform(-1, 1, (5, 2))
    calls = []
    sq_dists = backends._sq_dists

    def counting(Xa, Xb):
        calls.append(1)
        return sq_dists(Xa, Xb)

    monkeypatch.setattr(backends, "_sq_dists", counting)
    if op == "apply":
        k.apply(Xq, X, rng.standard_normal((6, 2)))
    elif op == "gramian":
        k.gramian(X)
    else:
        k.cross_many(Xq, X)
    assert len(calls) == 1
