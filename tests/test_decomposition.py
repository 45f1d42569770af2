import numpy as np
import pytest

from mvk.builtin import counterexample_kernel, example2_kernel
from mvk.decomposition import (
    COMBINATION_SEED,
    congruence_split,
    AmbiguousGroupingError,
    NotCommutingError,
    analyze,
    commuting_family_check,
    decomposition_equivalent,
    match_terms,
    recover_uncoupled,
    simultaneous_diagonalize,
)
from mvk.kernels import ScalarKernel, SeparableKernel


def sample_pairs(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)) for _ in range(n)]


def random_orthogonal(rng, m):
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.sign(np.diag(R))


def test_analyze_coupled_triple():
    rep = analyze(example2_kernel())
    assert rep.p == 3
    assert rep.ranks == (1, 3, 1)
    assert rep.rank_sum == 5
    assert rep.rank_of_sum == 4
    assert not rep.uncoupled
    assert rep.q_linearly_independent
    assert rep.kernels_linearly_independent
    assert not rep.orthogonal_products
    assert len(rep.lines()) == 8


def test_analyze_uncoupled_pair():
    rep = analyze(counterexample_kernel(), input_dim=1)
    assert rep.ranks == (1, 1)
    assert rep.rank_sum == 2 == rep.rank_of_sum
    assert rep.uncoupled


def test_analyze_detects_dependent_scalar_kernels():
    # two terms sharing one scalar kernel cannot be independent
    k = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0])),
            (ScalarKernel.gaussian(1.0), np.diag([0.0, 1.0])),
        ]
    )
    rep = analyze(k, input_dim=1)
    assert not rep.kernels_linearly_independent
    assert rep.orthogonal_products


def test_commuting_family_check():
    D1, D2 = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    assert commuting_family_check([D1, D2])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not commuting_family_check([D1, A])
    assert commuting_family_check([np.zeros((2, 2)), A])


def test_simultaneous_diagonalize_commuting_family():
    rng = np.random.default_rng(1)
    P0 = random_orthogonal(rng, 5)
    mats = [P0 @ np.diag(rng.standard_normal(5)) @ P0.T for _ in range(4)]
    P = simultaneous_diagonalize(mats)
    assert np.allclose(P.T @ P, np.eye(5), atol=1e-10)
    for A in mats:
        T = P.T @ A @ P
        off = T - np.diag(np.diag(T))
        assert np.linalg.norm(off) <= 1e-8 * max(1.0, np.linalg.norm(A))


def test_simultaneous_diagonalize_with_degenerate_spectra():
    # first matrix leaves a 2-d eigenspace that the second must split
    A = np.diag([1.0, 1.0, 2.0])
    B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
    P = simultaneous_diagonalize([A, B])
    for M in (A, B):
        T = P.T @ M @ P
        assert np.linalg.norm(T - np.diag(np.diag(T))) <= 1e-8


def test_simultaneous_diagonalize_rejects_noncommuting():
    A = np.diag([1.0, -1.0])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotCommutingError):
        simultaneous_diagonalize([A, B])


def orthogonal_eigenbasis_kernel(rng, m=3, p=2, d=2):
    """Kernel with orthogonal coefficients sharing one eigenbasis."""
    P = random_orthogonal(rng, m)
    groups = np.sort(rng.integers(0, p, size=m))
    shapes = 0.5 + 3.0 * rng.random(p)
    terms = []
    for l in range(p):
        idx = np.where(groups == l)[0]
        if len(idx) == 0:
            continue
        Q = sum(
            (0.5 + rng.random()) * np.outer(P[:, j], P[:, j]) for j in idx
        )
        terms.append((ScalarKernel.gaussian(shapes[l]), Q))
    if len(terms) < 2:
        return orthogonal_eigenbasis_kernel(rng, m, p, d)
    return SeparableKernel.create(terms)


def test_recover_uncoupled_roundtrip():
    rng = np.random.default_rng(2)
    k = orthogonal_eigenbasis_kernel(rng)
    pairs = sample_pairs(25, 2, seed=3)
    rec = recover_uncoupled(k, pairs)
    assert len(rec.groups) == k.p
    # recovered coefficients have pairwise orthogonal products
    for i in range(len(rec.coeffs)):
        for j in range(i + 1, len(rec.coeffs)):
            assert np.linalg.norm(rec.coeffs[i] @ rec.coeffs[j]) <= 1e-8
    assert decomposition_equivalent(rec, k, pairs)
    pairing = match_terms(rec, k, pairs)
    assert pairing is not None and len(pairing) == k.p


def test_recover_uncoupled_rejects_noncommuting_values():
    with pytest.raises(NotCommutingError):
        recover_uncoupled(example2_kernel(), sample_pairs(20, 2, seed=4))


def test_recover_uncoupled_rejects_asymmetric_values():
    class Asym:
        m = 2

        def __call__(self, x, y):
            return np.array([[1.0, float(x[0])], [float(y[0]), 1.0]])

    with pytest.raises(ValueError):
        recover_uncoupled(Asym(), sample_pairs(5, 1, seed=5))


def test_decomposition_equivalent_detects_difference():
    k1 = counterexample_kernel()
    k2 = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(0.1), np.ones((2, 2))),
            (ScalarKernel.gaussian(2.0), np.diag([0.0, 1.0])),
        ]
    )
    pairs = sample_pairs(20, 1, seed=6)
    assert decomposition_equivalent(k1, k1, pairs)
    assert not decomposition_equivalent(k1, k2, pairs)


def test_match_terms_handles_permutation_and_scaling():
    pairs = sample_pairs(20, 1, seed=7)
    a = counterexample_kernel()
    b = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), 2.0 * np.diag([0.0, 1.0])),
            (ScalarKernel.gaussian(0.1), 0.5 * np.ones((2, 2))),
        ]
    )
    pairing = match_terms(a, b, pairs)
    assert pairing == [(0, 1), (1, 0)]
    # differing decomposition lengths cannot be paired
    assert match_terms(a, example2_kernel(), pairs) is None


def test_match_terms_ambiguity():
    pairs = sample_pairs(20, 1, seed=8)
    a = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0])),
            (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0])),
        ]
    )
    with pytest.raises(AmbiguousGroupingError):
        match_terms(a, a, pairs)


def test_congruence_split_diagonalizes_by_congruence():
    Qs = example2_kernel().coefficients()
    split = congruence_split(Qs)
    assert np.allclose(split.T @ split.T_inv, np.eye(4), rtol=0, atol=1e-14)
    # T Q_i T^T = diag(lam_i), constant on each group of directions
    for Q, lam in zip(Qs, split.lam):
        D = split.T @ Q @ split.T.T
        assert np.allclose(D, np.diag(np.diag(D)), rtol=0, atol=1e-13)
        for J, value in zip(split.groups, lam):
            assert np.allclose(np.diag(D)[J], value, rtol=0, atol=1e-13)
    # three scalar kernels in the order of their last term: k1 on one
    # direction, k2 on two and (k2 + k3) / 2 on one
    assert [len(J) for J in split.groups] == [1, 2, 1]
    assert np.allclose(split.lam.T, [[1, 0, 0], [0, 1, 0], [0, 0.5, 0.5]], rtol=0, atol=1e-14)
    assert np.array_equal(split.lam.sum(axis=0), np.ones(3))
    # orthogonal products: one group per term, lam exactly the identity
    P = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    Qs = [2.0 * np.outer(P[:, 0], P[:, 0]), np.eye(3) - np.outer(P[:, 0], P[:, 0])]
    split = congruence_split(Qs)
    assert [len(J) for J in split.groups] == [1, 2]
    assert split.lam.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    # three full-rank coupled coefficients do not commute after whitening;
    # a singular sum has no whitening
    rng = np.random.default_rng(0)
    Bs = [rng.standard_normal((3, 3)) for _ in range(3)]
    assert congruence_split([B @ B.T for B in Bs]) is None
    assert congruence_split([np.diag([1.0, 0.0]), np.diag([2.0, 0.0])]) is None


def test_congruence_split_separates_groups_a_combination_nearly_merges():
    # simultaneous_diagonalize uses one fixed combination sum_i w_i
    # Lambda_i; two lambda columns a, b with sum_i w_i (a_i - b_i) = gap
    # get eigenvectors mixed at about eps / gap from it alone (2e-12 to
    # 2.4e-9 below), which the pairwise sweep removes
    w = np.random.default_rng(COMBINATION_SEED).uniform(0.5, 1.5, 3)
    w /= w.sum()
    flat = np.cross(np.ones(3), w)  # zero sum, zero combination
    flat /= np.abs(flat).max()
    unit = w - w.mean()  # zero sum, combination 1
    unit /= w @ unit
    M = np.array([[1.0, 0.4], [-0.3, 0.8]])
    for gap in (1e-5, 1e-7, 1e-8):
        a = np.array([0.3, 0.3, 0.4])
        b = a - 0.2 * flat - gap * unit
        Qs = [(M * [a[i], b[i]]) @ M.T for i in range(3)]
        split = congruence_split(Qs)
        assert len(split.groups) == 2
        for Q in Qs:
            D = split.T @ Q @ split.T.T
            assert np.max(np.abs(D - np.diag(np.diag(D)))) <= 1e-14
