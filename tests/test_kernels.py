import tracemalloc

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


def test_min_separation_matches_pairwise_reference(monkeypatch):
    # the (n, n, d) broadcast it replaced; the coordinate sums run in the
    # same order for d <= 8, so the values are equal.  A PANEL of 64 makes
    # row tiles of 1 or 2 rows, and the last point set has a duplicate
    # pair whose rows fall in different tiles.
    rng = np.random.default_rng(3)
    sets = [rng.uniform(-1, 1, (n, d)) for n, d in ((2, 1), (40, 1), (60, 2), (30, 3), (25, 8))]
    dup = rng.uniform(-1, 1, (31, 2))
    dup[23] = dup[4]
    for panel in (backends.PANEL, 64):
        monkeypatch.setattr(backends, "PANEL", panel)
        for pts in sets + [dup]:
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            np.fill_diagonal(dist, np.inf)
            assert PointSet(pts).min_separation() == dist.min()
        assert PointSet(dup).min_separation() == 0.0


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


def _blocks_reference(k, Xa, Xb):
    """The assembler before row panels: each term's whole matrix from its own
    scalar kernel, added to every block a >= b from zero in term order, each
    Gramian block symmetrized, then copied into its mirror."""
    sym = Xb is None
    Xb = Xa if sym else Xb
    G = np.zeros((k.m, len(Xa), k.m, len(Xb)))
    lower = [(a, b) for a in range(k.m) for b in range(a + 1)]
    for ks, Q in k.terms:
        K = ks.cross(Xa, Xb)
        for a, b in lower:
            G[a, :, b] += K * Q[a, b]
    for a, b in lower:
        if sym:
            G[a, :, b] = linalg.symmetrize(G[a, :, b])
        G[b, :, a] = G[a, :, b]
    return G


def signed_zero_kernels():
    # every term has negative off-diagonal coefficients, and at points far
    # apart whose inner product is 0 every term's kernel value is 0: the
    # Gaussians flush below exp(-700) at shapes 400 and 900, the
    # polynomial is 0.  Summed from +0 such an entry is +0; the first
    # product written alone would leave -0
    Q1 = np.array([[1.0, -0.5], [-0.5, 1.0]])
    Q2 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    gauss = SeparableKernel.create(
        [(ScalarKernel.gaussian(400.0), Q1), (ScalarKernel.gaussian(900.0), Q2)])
    mixed = SeparableKernel.create(
        [(ScalarKernel.gaussian(400.0), Q1), (ScalarKernel.polynomial(3), Q2),
         (ScalarKernel.gaussian(900.0), Q1)])
    return {"gaussian": gauss, "mixed": mixed}


@pytest.mark.parametrize("kernel", ["gaussian", "mixed"])
@pytest.mark.parametrize("panel", [backends.PANEL, 32, 5])
@pytest.mark.parametrize("shape", [(10, None), (10, 7), (0, 7), (10, 0), (0, None)])
def test_blocks_match_the_term_by_term_sum_bit_for_bit(monkeypatch, kernel, panel, shape):
    # row panels of PANEL // nb rows: with nb = 10 or 7 a PANEL of 32 gives
    # 3 or 4 rows, which do not divide na = 10, and a PANEL of 5 < nb one
    # row; also no rows, no columns and the Gramian of no points
    k = signed_zero_kernels()[kernel]
    rng = np.random.default_rng(14)
    na, nb = shape
    Xa = np.vstack([[0.0, 0.0], [-1.0, 0.0], [0.0, 1.0], rng.uniform(-1, 1, (7, 2))])[:na]
    Xb = None if nb is None else np.vstack([[0.0, 1.0], [1.0, 1.0], rng.uniform(-1, 1, (5, 2))])[:nb]
    if na and nb != 0:
        # the inputs have entries where every term is 0 under a negative coefficient
        all_zero = np.all([ks.cross(Xa, Xa if Xb is None else Xb) == 0.0 for ks, _ in k.terms], 0)
        assert all_zero.any() and all(Q[1, 0] < 0 for _, Q in k.terms)
    ref = _blocks_reference(k, Xa, Xb)
    monkeypatch.setattr(backends, "PANEL", panel)
    G = k._blocks(Xa, Xb)
    # equal bit patterns: the same values and signbits, -0.0 included
    assert G.shape == ref.shape
    assert np.array_equal(G.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(np.signbit(G), np.signbit(ref))


def test_symmetrize_in_place_matches_symmetrize(monkeypatch):
    rng = np.random.default_rng(15)
    for tile in (linalg.SYM_TILE, 3):
        monkeypatch.setattr(linalg, "SYM_TILE", tile)
        for n in (0, 1, 7, 10):
            A = rng.standard_normal((n, n))
            A[0:1, 1:2] = -0.0
            ref = linalg.symmetrize(A)
            assert linalg.symmetrize_in_place(A) is A
            assert np.array_equal(A.view(np.uint64), ref.view(np.uint64))
        # a view with strided rows, as a block of the component-major Gramian
        G = rng.standard_normal((2, 10, 2, 10))
        ref = linalg.symmetrize(G[1, :, 0])
        linalg.symmetrize_in_place(G[1, :, 0])
        assert np.array_equal(G[1, :, 0], ref)


def test_apply_without_queries_or_centers():
    k = mixed_kernel()
    X = PointSet(np.random.default_rng(13).uniform(-1, 1, (9, 2)))
    assert k.apply(np.zeros((0, 2)), X, np.ones((9, 2))).shape == (0, 2)
    out = k.apply(X.points, PointSet([], d=2), np.zeros((0, 2)))
    assert np.array_equal(out, np.zeros((9, 2)))


def test_apply_memory_does_not_grow_with_queries(monkeypatch):
    # tiles of PANEL // n = 256 rows: beyond its (q, m) result, apply's
    # peak is the same for 2 and for 8 tiles
    monkeypatch.setattr(backends, "PANEL", 2**12)
    k = mixed_kernel()
    rng = np.random.default_rng(14)
    X = PointSet(rng.uniform(-1, 1, (16, 2)))
    A = rng.standard_normal((16, 2))
    peaks = []
    for q in (2 * 256, 8 * 256):
        Xq = rng.uniform(-1, 1, (q, 2))
        tracemalloc.start()
        try:
            out = k.apply(Xq, X, A)
            peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    # one (256, 16) matrix is 32 KiB
    assert peaks[1] <= peaks[0] + 4096


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

    def counting(Xa, Xb, out=None):
        calls.append(len(Xa))
        return sq_dists(Xa, Xb, out=out)

    monkeypatch.setattr(backends, "_sq_dists", counting)
    if op == "gramian":
        k.gramian(X)
        assert calls == [6]
    elif op == "cross_many":
        k.cross_many(Xq, X)
        assert calls == [5]
    else:
        A = rng.standard_normal((6, 2))
        k.apply(Xq, X, A)
        assert calls == [5]
        # tiles of PANEL // n = 2 rows, the last one short: one distance
        # matrix per tile
        calls.clear()
        monkeypatch.setattr(backends, "PANEL", 12)
        k.apply(Xq, X, A)
        assert calls == [2, 2, 1]
