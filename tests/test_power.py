import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mvk import builtin
from mvk.decomposition import congruence_split

from mvk.interpolation import NativeSpanFunction, fit, native_norm_sq, residual_norm_sq
from mvk.kernels import DuplicateCentersError, PointSet, ScalarKernel, SeparableKernel
from mvk.linalg import RANK_TOL, pinv_sym, symmetrize
from mvk.power import PowerEvaluator, power_additivity_check, scalar_power_sq


def subspace_kernel(pe, x, y):
    """Reference k_N(x, y) = C(x) G^+ C(y)^T, C the row of cross blocks."""
    cx = pe.kernel.cross_many(x[None, :], pe.centers)[0]
    cy = pe.kernel.cross_many(y[None, :], pe.centers)[0]
    return cx @ pe.gram_pinv @ cy.T


def coupled_kernel():
    Q1 = np.array([[2.0, 1.0], [1.0, 2.0]])
    Q2 = np.array([[1.0, 0.0], [0.0, 0.5]])
    return SeparableKernel.create(
        [(ScalarKernel.gaussian(1.0), Q1), (ScalarKernel.gaussian(2.0), Q2)]
    )


def uncoupled_kernel():
    Q1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    Q2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    return SeparableKernel.create(
        [(ScalarKernel.gaussian(1.0), Q1), (ScalarKernel.gaussian(3.0), Q2)]
    )


def test_power_zero_at_centers():
    k = coupled_kernel()
    X = PointSet(np.linspace(-1, 1, 6)[:, None])
    pe = PowerEvaluator.build(k, X)
    for x in X.points:
        assert pe.power_sq(x, np.array([1.0, 0.0])) <= 1e-10
        assert pe.power_sq(x, np.array([0.3, -0.8])) <= 1e-10
        assert np.linalg.norm(pe.deficiency_many(x[None, :])[0]) <= 1e-8


def test_power_nonnegative_and_bounded_by_diagonal():
    k = coupled_kernel()
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    pe = PowerEvaluator.build(k, X)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, 1)
        a = rng.standard_normal(2)
        p2 = pe.power_sq(x, a)
        assert p2 >= 0.0
        assert p2 <= float(a @ k(x, x) @ a) + 1e-10


def test_power_monotone_under_center_growth():
    k = coupled_kernel()
    X = PointSet(np.linspace(-1, 1, 8)[:, None])
    rng = np.random.default_rng(1)
    samples = [(rng.uniform(-1, 1, 1), rng.standard_normal(2)) for _ in range(30)]
    prev = None
    for i in range(1, X.n + 1):
        pe = PowerEvaluator.build(k, X.prefix(i))
        vals = np.array([pe.power_sq(x, a) for x, a in samples])
        if prev is not None:
            assert np.all(vals <= prev + 1e-10)
        prev = vals


def test_power_empty_centers_is_diagonal_form():
    k = coupled_kernel()
    pe = PowerEvaluator.build(k, PointSet([], d=1))
    x, a = np.array([0.4]), np.array([1.0, -1.0])
    assert pe.power_sq(x, a) == pytest.approx(float(a @ k(x, x) @ a))


def fixture_kernel():
    # three coupled terms whose whitened forms do not commute: no split
    doc = json.loads((Path(__file__).parent / "data" / "coupled_kernel.json").read_text())
    return SeparableKernel.from_dict(doc)


@pytest.mark.parametrize("kernel", [fixture_kernel, uncoupled_kernel])
def test_empty_batch_gives_empty_deficiency_and_bounds(kernel):
    k = kernel()
    X = PointSet(np.random.default_rng(0).uniform(-1, 1, (6, 2)))
    pe = PowerEvaluator.build(k, X)
    assert (pe.split is None) == (kernel is fixture_kernel)
    Xq = np.zeros((0, 2))
    assert pe.deficiency_many(Xq).shape == (0, k.m, k.m)
    factors = pe.bound_factors(Xq)
    assert sorted(factors) == ["inf", "one", "two"]
    assert all(v.shape == (0,) for v in factors.values())


def test_power_rejects_zero_direction():
    k = coupled_kernel()
    pe = PowerEvaluator.build(k, PointSet(np.array([[0.0]])))
    with pytest.raises(ValueError):
        pe.power_sq(np.array([0.5]), np.zeros(2))


def test_deficiency_many_matches_single():
    k = coupled_kernel()
    pe = PowerEvaluator.build(k, PointSet(np.linspace(-1, 1, 4)[:, None]))
    Xq = np.array([[0.15], [0.85], [-0.6]])
    D = pe.deficiency_many(Xq)
    assert D.shape == (3, 2, 2)
    for i, x in enumerate(Xq):
        ref = symmetrize(k(x, x) - subspace_kernel(pe, x, x))
        assert np.allclose(D[i], ref, atol=1e-12)


def test_subspace_kernel_reproduces_on_centers():
    # k_N(x_i, y) == k(x_i, y) for centers x_i (full-rank Gramian)
    k = coupled_kernel()
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    pe = PowerEvaluator.build(k, X)
    y = np.array([0.37])
    for x in X.points:
        assert np.allclose(subspace_kernel(pe, x, y), k(x, y), atol=1e-8)


def test_power_is_worst_case_error_functional():
    # |alpha^T (f - s)(x)| <= P(x, alpha) * ||f - s|| for native-span targets
    k = coupled_kernel()
    sites = PointSet(np.array([[-0.8], [0.1], [0.9]]))
    rng = np.random.default_rng(2)
    f = NativeSpanFunction(k, sites, rng.standard_normal((3, 2)))
    X = PointSet(np.array([[-0.5], [0.5]]))
    F = np.stack([f(x) for x in X.points])
    s = fit(k, X, F)
    r = np.sqrt(residual_norm_sq(f, s))
    pe = PowerEvaluator.build(k, X)
    for _ in range(20):
        x = rng.uniform(-1, 1, 1)
        a = rng.standard_normal(2)
        err = abs(float(a @ (f(x) - s(x))))
        bound = np.sqrt(pe.power_sq(x, a)) * r
        assert err <= bound * (1 + 1e-9) + 1e-12


def test_error_bounds_structure():
    k = coupled_kernel()
    pe = PowerEvaluator.build(k, PointSet(np.array([[0.0], [1.0]])))
    b = pe.error_bounds(np.array([0.4]), f_norm=2.0, residual_norm=1.0)
    for group in ("with_residual", "with_full_norm"):
        assert set(b[group]) == {"two_norm", "inf_norm", "one_norm"}
    # residual <= full norm, inf <= two <= one factor ordering
    for key in ("two_norm", "inf_norm", "one_norm"):
        assert b["with_residual"][key] <= b["with_full_norm"][key]
    assert b["with_residual"]["inf_norm"] <= b["with_residual"]["two_norm"] + 1e-12
    assert b["with_residual"]["two_norm"] <= b["with_residual"]["one_norm"] + 1e-12
    with pytest.raises(ValueError):
        pe.error_bounds(np.array([0.4]), f_norm=1.0, residual_norm=2.0)


def test_scalar_power_zero_at_centers():
    ks = ScalarKernel.gaussian(1.5)
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    for x in X.points:
        assert scalar_power_sq(ks, X, x) <= 1e-10
    assert scalar_power_sq(ks, PointSet([], d=1), np.array([0.3])) == pytest.approx(1.0)


def test_scalar_power_rejects_duplicate_centers():
    ks = ScalarKernel.gaussian(1.5)
    X = PointSet(np.array([[0.0], [0.5], [0.5]]))
    with pytest.raises(DuplicateCentersError):
        scalar_power_sq(ks, X, np.array([0.2]))


def test_order1_power_factorization():
    # for a single-term kernel: P^2(x, a) = Phat^2(x) * a^T Q a
    ks = ScalarKernel.gaussian(1.2)
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    k = SeparableKernel.create([(ks, Q)])
    X = PointSet(np.linspace(-1, 1, 4)[:, None])
    pe = PowerEvaluator.build(k, X)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-1.2, 1.2, 1)
        a = rng.standard_normal(2)
        lhs = pe.power_sq(x, a)
        rhs = scalar_power_sq(ks, X, x) * float(a @ Q @ a)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, rhs))


def test_additivity_exact_for_uncoupled():
    k = uncoupled_kernel()
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    rng = np.random.default_rng(4)
    samples = [(rng.uniform(-1, 1, 1), rng.standard_normal(2)) for _ in range(20)]
    for rep in power_additivity_check(k, X, samples):
        assert rep["gap"] >= -1e-10
        assert abs(rep["gap"]) <= 1e-8 * max(1.0, rep["whole"])


def test_additivity_gap_for_coupled():
    k = coupled_kernel()
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    rng = np.random.default_rng(5)
    samples = [(rng.uniform(-1, 1, 1), rng.standard_normal(2)) for _ in range(20)]
    reports = power_additivity_check(k, X, samples)
    assert all(rep["gap"] >= -1e-10 for rep in reports)
    assert sum(rep["gap"] > 1e-6 for rep in reports) > len(reports) / 2


def test_additivity_builds_each_evaluator_once(monkeypatch):
    # one evaluator for the kernel and one per term, whatever the samples
    k = coupled_kernel()
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    rng = np.random.default_rng(6)
    samples = [(rng.uniform(-1, 1, 1), rng.standard_normal(2)) for _ in range(6)]
    expected = [
        sum(scalar_power_sq(ks, X, x) * float(a @ Q @ a) for ks, Q in k.terms)
        for x, a in samples
    ]
    calls = []
    build = PowerEvaluator.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(PowerEvaluator, "build", classmethod(counting))
    reports = power_additivity_check(k, X, samples)
    assert len(calls) == k.p + 1
    assert [rep["sum_of_parts"] for rep in reports] == expected


def test_additivity_requires_two_terms():
    k = SeparableKernel.create([(ScalarKernel.gaussian(1.0), np.eye(2))])
    with pytest.raises(ValueError):
        power_additivity_check(k, PointSet(np.array([[0.0]])), [])


def test_cholesky_route_matches_eigh_reference():
    # coupled m = 3 Gaussian, n = 200 centers, Gramian condition about 7e4
    rng = np.random.default_rng(0)
    terms = []
    for shape in (50.0, 100.0):
        A = rng.standard_normal((3, 3))
        terms.append((ScalarKernel.gaussian(shape), A @ A.T / 3 + 0.1 * np.eye(3)))
    k = SeparableKernel.create(terms)
    X = PointSet(rng.uniform(-1, 1, (200, 2)))
    Xq = rng.uniform(-1, 1, (50, 2))
    pe = PowerEvaluator.build(k, X)
    ref = PowerEvaluator.build(k, X, rank_tol=RANK_TOL)
    assert (pe.path, ref.path) == ("cholesky", "pseudo_inverse")

    G = k.gramian(X)
    P = pinv_sym(G)
    C = k.cross_many(Xq, X)
    kxx = k.diag_value(Xq)
    D_ref = kxx - np.einsum("qan,nk,qbk->qab", C, P, C)
    scale = np.max(np.linalg.norm(kxx, 2, axis=(1, 2)))
    assert np.max(np.abs(pe.deficiency_many(Xq) - D_ref)) <= 1e-10 * scale

    got, want = pe.bound_factors(Xq), ref.bound_factors(Xq)
    for key in ("two", "inf", "one"):
        assert np.all(np.abs(got[key] - want[key]) <= 1e-8 * want[key])
    assert np.linalg.norm(pe.gram_pinv - P) <= 1e-10 * np.linalg.norm(P)

    empty = PowerEvaluator.build(k, PointSet(np.zeros((0, 2))))
    assert np.array_equal(empty.deficiency_many(Xq), kxx)


def test_build_warns_when_cholesky_fails():
    # 20 centers in [0, 0.5] make the Gaussian Gramian numerically singular
    k = SeparableKernel.create([(ScalarKernel.gaussian(1.0), np.eye(1))])
    X = PointSet(np.linspace(0, 0.5, 20)[:, None])
    with pytest.warns(RuntimeWarning, match=r"skipped \d+ of 20 pivots") as record:
        pe = PowerEvaluator.build(k, X)
    assert pe.path == "pivoted_cholesky"
    # the warning points at the caller of build
    assert record[0].filename == __file__


def test_unsplit_build_peaks_below_one_and_a_half_gramians():
    # the block Gramian is assembled in place, block by block, and factored
    # in place: next to it live only one term's matrix, the shared
    # distances and one (n, n) buffer, 1/3 of a Gramian at m = 3.  An
    # (m, m, n, n) sum with a layout copy, or a factor copy, peaks at 2.
    rng = np.random.default_rng(3)
    terms = []
    for shape in (50.0, 100.0, 200.0):
        A = rng.standard_normal((3, 3))
        terms.append((ScalarKernel.gaussian(shape), A @ A.T / 3 + 0.1 * np.eye(3)))
    k = SeparableKernel.create(terms)
    assert congruence_split(k.coefficients()) is None
    X = PointSet(rng.uniform(-1, 1, (200, 2)))
    gramian_bytes = (200 * 3) ** 2 * 8
    tracemalloc.start()
    try:
        pe = PowerEvaluator.build(k, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pe.path == "cholesky"
    assert peak < 1.5 * gramian_bytes


def test_nested_needs_a_kernel_that_splits():
    kernel = SeparableKernel.create([(ScalarKernel.polynomial(2), np.eye(2))])
    with pytest.raises(ValueError, match="splits"):
        PowerEvaluator.nested(kernel, PointSet(np.linspace(-1, 1, 4)[:, None]))


# Forward-error constant between the nested factors and LAPACK's Cholesky
# factor of the same centers.  Both are backward stable: each is the factor
# of K + E with |E| about r eps max k for r centers, so P^2(x) moves by
# about a_x^T E a_x, a_x = K^-1 k(X, x) the Lagrange values, and the
# coefficients by K^-1 E c, |E|_2 <= r^2 eps max k.  With the centers below
# drawn from seeds 0-59, the errors stayed below 16 (P^2) and 1.7
# (coefficients) times these estimates.  On example2's seed-42 centers,
# where cond(K) reaches 2e14, P^2 of the two factors differs by 3.5e-8.
NESTED_C = 100.0


def test_nested_prefixes_match_builds_on_the_kept_centers():
    # example2's kernel on 100 random centers of its domain: its scalar
    # Gramians lose numerical rank, and the nested factors skip centers.
    # Each prefix is compared group by group with PowerEvaluator.build of
    # the group's scalar kernel on its kept centers, and before the first
    # skip also with the multi-output build on the whole prefix.
    kernel = builtin.example2_kernel()
    rng = np.random.default_rng(42)
    X = PointSet(rng.uniform(-1.0, 1.0, (100, 2)))
    Xq = rng.uniform(-1.0, 1.0, (50, 2))
    F = rng.standard_normal((X.n, kernel.m))
    pe = PowerEvaluator.nested(kernel, X)
    split, eps = pe.split, np.finfo(float).eps
    groups = [SeparableKernel.create([(ks, [[lam]]) for (ks, _), lam in zip(kernel.terms, col)
                                      if lam != 0.0]) for col in split.lam.T]
    kmax = max(float(np.max(kg.diag_value(Xq))) for kg in groups)
    all_kept = np.all([factor.kept for _, factor in pe.factors], axis=0)
    assert not all_kept.all()
    first_skip = np.argmin(all_kept)  # prefixes up to here skip no center
    FT = F @ split.T.T
    # the walk's coefficients leave T coordinates and the test maps them back
    trip = NESTED_C * eps * np.linalg.cond(split.T)
    for s, p2, _ in pe.prefixes(F, Xq):
        i = s.centers.n
        B = s.coeff_blocks() @ split.T_inv  # the coefficients in T coordinates
        full = None
        if i <= first_skip:
            full = PowerEvaluator.build(kernel, X.prefix(i))
            assert full.path == "cholesky"
            full_p2 = np.diagonal(split.T @ full.deficiency_many(Xq) @ split.T.T, 0, 1, 2)
            full_B = full.solve(F[:i].reshape(-1)).reshape(i, kernel.m) @ split.T_inv
        for (J, factor), kg in zip(pe.factors, groups):
            kept = factor.kept[:i]
            Xk = PointSet(X.points[:i][kept], d=2)
            ref = PowerEvaluator.build(kg, Xk)
            assert ref.path == "cholesky"
            r = Xk.n
            lagrange = ref.solve(kg.cross_many(Xq, Xk).reshape(len(Xq), r).T)
            p2_tol = NESTED_C * eps * r * kmax * (1.0 + np.sum(lagrange**2, axis=0))
            c_ref = ref.solve(FT[:i][kept][:, J])
            c_tol = NESTED_C * eps * r**2 * kmax * np.linalg.norm(ref.gram_pinv, 2)
            cases = [(ref.deficiency_many(Xq)[:, :, 0], c_ref)]
            if full is not None:
                cases.append((full_p2[:, J], full_B[:, J]))
            for p2_ref, c in cases:
                assert np.all(np.abs(p2[:, J] - p2_ref) <= p2_tol[:, None])
                assert (np.linalg.norm(B[kept][:, J] - c)
                        <= c_tol * np.linalg.norm(c) + trip * np.linalg.norm(B))
            # the skipped centers carry no coefficient in the group's directions
            assert np.all(np.abs(B[~kept][:, J]) <= trip * np.linalg.norm(B))
