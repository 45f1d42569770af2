"""Property tests on random separable kernels with Gaussian and polynomial terms.

The structured paths (term-wise evaluation, the vectorized diagonal, the
flat deficiency product and the broadcast block assembly) are compared
with the dense cross blocks, per-point evaluations and explicit Kronecker
sums.  The power-function laws of the paper are checked on the same
kernels: 0 <= D(x) <= k(x, x), D vanishes at the centers, D does not grow
as centers are added, and the additivity gap is nonnegative and vanishes
for uncoupled kernels.  The native norms are compared with the quadratic
form of the dense Kronecker sum, and the paper's main bound
|f(x) - s(x)|_2 <= ||D(x)||_2^(1/2) ||f - s|| is checked on targets f in
the span of random sites.  The congruence split of ``fit`` and
``PowerEvaluator`` (one scalar system per distinct kernel) is compared with
a dense Cholesky solve of the block Gramian, on uncoupled kernels and on
coupled ones that split.  Kernels that do not split take the
component-major block Gramian, which is compared with the dense
point-major system on every route of its factor.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from mvk import NativeSpanFunction, PointSet, PowerEvaluator, ScalarKernel, SeparableKernel
from mvk import backends
from mvk.decomposition import congruence_split, orthogonal_products
from mvk.interpolation import (
    ConditioningError,
    Interpolant,
    fit,
    native_norm_sq,
    residual_norm_sq,
)
from mvk.power import power_additivity_check, scalar_power_sq
from mvk.linalg import RANK_TOL, ZERO_FLOOR, symmetrize

# Relative tolerance against the dense reference, on the scale of the sum
# of absolute products, so that cancellation cannot hide an error.
RTOL = 1e-12

SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)


@st.composite
def problems(draw):
    """A random separable kernel with centers, queries and coefficients."""
    m = draw(st.integers(1, 4))
    coupled = draw(st.booleans())
    # orthogonal rank-1 coefficients need p <= m mutually orthogonal directions
    p = draw(st.integers(1, 3 if coupled else min(3, m)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 6))
    scalars = [
        draw(
            st.one_of(
                st.floats(0.3, 5.0).map(ScalarKernel.gaussian),
                st.integers(1, 3).map(ScalarKernel.polynomial),
            )
        )
        for _ in range(p)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if coupled:
        Bs = [rng.standard_normal((m, m)) for _ in range(p)]
        coeffs = [B @ B.T for B in Bs]
    else:
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        coeffs = [np.outer(V[:, i], V[:, i]) for i in range(p)]
    kernel = SeparableKernel.create(list(zip(scalars, coeffs)))
    X = PointSet(rng.uniform(-1.0, 1.0, size=(n, d)))
    Xq = rng.uniform(-1.0, 1.0, size=(q, d))
    A = rng.standard_normal((n, m))
    return kernel, X, Xq, A


def _assert_close(got, ref, scale):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= RTOL * scale)


@SETTINGS
@given(problems(), st.integers(1, 3))
def test_interpolant_evaluation_matches_dense_cross(problem, rows):
    kernel, X, Xq, A = problem
    s = Interpolant(kernel, X, A.reshape(-1), {})
    C = kernel.cross_many(Xq, X)
    scale = np.abs(C) @ np.abs(s.coeffs)
    _assert_close(s.evaluate_many(Xq), C @ s.coeffs, scale)
    _assert_close(s(Xq[0]), C[0] @ s.coeffs, np.abs(C[0]) @ np.abs(s.coeffs))
    # again in query tiles of PANEL // n = rows rows, the last one short
    # unless rows divides q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "PANEL", rows * X.n)
        _assert_close(s.evaluate_many(Xq), C @ s.coeffs, scale)


@SETTINGS
@given(problems())
def test_native_span_evaluation_matches_dense_cross(problem):
    kernel, X, Xq, A = problem
    f = NativeSpanFunction(kernel, X, A)
    C = kernel.cross_many(Xq, X)
    beta = A.reshape(-1)
    _assert_close(f.evaluate_many(Xq), C @ beta, np.abs(C) @ np.abs(beta))


@SETTINGS
@given(problems())
def test_diag_value_matches_pointwise(problem):
    kernel, _, Xq, _ = problem
    D = kernel.diag_value(Xq)
    for x, Dx in zip(Xq, D):
        scale = sum(abs(ks(x, x)) * np.abs(Q) for ks, Q in kernel.terms)
        _assert_close(Dx, kernel(x, x), scale)


@SETTINGS
@given(problems())
def test_deficiency_many_matches_pointwise(problem):
    kernel, X, Xq, _ = problem
    pe = PowerEvaluator.build(kernel, X)
    D = pe.deficiency_many(Xq)
    C = kernel.cross_many(Xq, X)
    P = np.abs(pe.gram_pinv)
    for x, Dx, Cx in zip(Xq, D, C):
        scale = np.abs(kernel(x, x)) + np.abs(Cx) @ P @ np.abs(Cx).T
        # per-point reference k(x, x) - C G^+ C^T
        cx = kernel.cross_many(x[None, :], X)[0]
        _assert_close(Dx, symmetrize(kernel(x, x) - cx @ pe.gram_pinv @ cx.T), scale)


@SETTINGS
@given(problems())
def test_block_assembly_matches_kron_sum(problem):
    # Same products summed in the same order as the Kronecker reference, so
    # the results are equal, not just close.
    kernel, X, Xq, _ = problem
    m = kernel.m
    G_ref = sum(np.kron(ks.cross(X.points, X.points), Q) for ks, Q in kernel.terms)
    assert np.array_equal(kernel.gramian(X), symmetrize(G_ref))
    C_ref = sum(np.kron(ks.cross(Xq, X.points), Q) for ks, Q in kernel.terms)
    C = kernel.cross_many(Xq, X)
    assert np.array_equal(C.reshape(len(Xq) * m, X.n * m), C_ref)
    # one pair of points, also a point with itself, is assembled the same way
    for x, y in [*zip(Xq, X.points), (X.points[0], X.points[0])]:
        k_ref = sum(np.kron(ks.cross(x[None], y[None]), Q) for ks, Q in kernel.terms)
        assert np.array_equal(kernel(x, y), k_ref)


def _law_tol(kernel, X):
    # D(x) = k(x, x) - C G^+ C^T subtracts quantities bounded by the
    # Gramian's entries, through a Cholesky factor, plain or pivoted, so its
    # roundoff scales with lambda_max(G).  On the ill-conditioned Gramians
    # drawn here D at the centers reaches 7e-9 * lambda_max(G) at the 99th
    # percentile, while a wrong D is off by a fraction of k(x, x).
    return 1e-8 * max(1.0, np.linalg.eigvalsh(kernel.gramian(X))[-1])


def _directions(A):
    return A / np.linalg.norm(A, axis=1, keepdims=True)


@SETTINGS
@given(problems())
def test_power_between_zero_and_kernel_diagonal(problem):
    kernel, X, Xq, A = problem
    tol = _law_tol(kernel, X)
    pe = PowerEvaluator.build(kernel, X)
    D = pe.deficiency_many(Xq)
    kxx = kernel.diag_value(Xq)
    # 0 <= alpha^T D(x) alpha <= alpha^T k(x, x) alpha for every alpha
    assert np.all(np.linalg.eigvalsh(D) >= -tol)
    assert np.all(np.linalg.eigvalsh(kxx - D) >= -tol)
    for x, Kx in zip(Xq, kxx):
        for a in _directions(A):
            p2 = pe.power_sq(x, a)
            assert 0.0 <= p2 <= float(a @ Kx @ a) + tol


@SETTINGS
@given(problems())
def test_deficiency_vanishes_at_centers(problem):
    kernel, X, _, _ = problem
    D = PowerEvaluator.build(kernel, X).deficiency_many(X.points)
    assert np.all(np.abs(D) <= _law_tol(kernel, X))


# A scalar Gaussian whose 7th center lies 0.02 from the 1st: the 7-center
# Gramian's smallest eigenvalue (5.8e-11) lies below the pseudo-inverse
# cutoff RANK_TOL * lambda_max.  The Cholesky route keeps it, and D(-0.99)
# falls from 0.2536 (6 centers) to the exact 0.1556 (a 50-digit solve).
NEAR_DUPLICATE_CENTERS = (
    SeparableKernel.create([(ScalarKernel.gaussian(1.0), np.ones((1, 1)))]),
    PointSet(np.array([[0.63], [0.83], [0.21], [0.46], [0.09], [0.87], [0.65]])),
    np.array([[-0.99]]),
    np.ones((7, 1)),
)
# D(-0.99) on all 7 centers, from a 50-digit solve.  Rounding the Gramian's
# entries to float64 alone moves it by 4.9e-8, so it is checked within 1e-7.
NEAR_DUPLICATE_D7 = 0.15563792453358449


def test_near_duplicate_center_lowers_deficiency():
    kernel, X, Xq, _ = NEAR_DUPLICATE_CENTERS
    d6, d7 = (
        PowerEvaluator.build(kernel, X.prefix(i)).deficiency_many(Xq)[0, 0, 0]
        for i in (6, 7)
    )
    assert abs(d7 - NEAR_DUPLICATE_D7) <= 1e-7
    assert d7 <= d6


# Kernels that are not strictly pd (polynomial terms, singular coefficient
# sums) take the pivoted Cholesky, which skips unknowns and drops no
# eigenvalue: an eigenvalue cutoff would not nest the spaces of consecutive
# prefixes, and D could grow when a center is added.
@SETTINGS
@given(problems())
@example(NEAR_DUPLICATE_CENTERS)
def test_deficiency_nonincreasing_as_centers_grow(problem):
    kernel, X, Xq, _ = problem
    tol = _law_tol(kernel, X)
    prev = kernel.diag_value(Xq)
    for i in range(1, X.n + 1):
        D = PowerEvaluator.build(kernel, X.prefix(i)).deficiency_many(Xq)
        # Loewner order: D_{i-1}(x) - D_i(x) is positive semi-definite
        assert np.all(np.linalg.eigvalsh(prev - D) >= -tol)
        prev = D


def _splits(problem):
    return problem[0].strictly_pd and congruence_split(problem[0].coefficients()) is not None


# Forward-error constant of the walk's predictions against the
# interpolant's, as NESTED_C in test_power.py.
NESTED_C = 100.0


# A coupled m = 2 kernel that splits into two Gaussians, with its 4th center
# 1e-6 from its 1st: the 4th pivots of the scalar blocks are 6e-13 and
# 3e-13 of the diagonal, so each nested factor skips that center.
NESTED_SKIP = (
    SeparableKernel.create([(ScalarKernel.gaussian(1.0), np.array([[2.0, 1.0], [1.0, 2.0]])),
                            (ScalarKernel.gaussian(3.0), np.array([[1.0, 0.0], [0.0, 0.5]]))]),
    PointSet(np.array([[0.1], [0.5], [-0.4], [0.1 + 1e-6], [0.9]])),
    np.array([[0.0], [0.3], [-0.8]]),
    np.ones((5, 2)),
)


@SETTINGS
@given(problems().filter(_splits))
@example(NESTED_SKIP)
def test_nested_prefixes_keep_the_power_function_laws(problem):
    # Along the prefixes of one pivot-skipping factor per scalar block, with
    # the centers among the queries: P_g^2 never grows, stays above
    # -RANK_TOL k_g(x, x), and lies below RANK_TOL k_g(x, x) at every center
    # kept so far; the skip counts the interpolant reports match the masks.
    # The walk's predictions match the interpolant's within the tolerance of
    # test_power's nested test, from the Lagrange values of a dense
    # Cholesky solve on each group's kept centers.
    kernel, X, Xq, A = problem
    pe = PowerEvaluator.nested(kernel, X)
    split, eps = pe.split, np.finfo(float).eps
    Z = np.vstack([X.points, Xq])
    k = np.empty((len(Z), kernel.m))
    for (J, _), kg in zip(pe.factors, pe._scalar_diag(Z)):
        k[:, J] = kg[:, None]
    groups = [SeparableKernel.create([(ks, [[lam]]) for (ks, _), lam in zip(kernel.terms, col)
                                      if lam != 0.0]) for col in split.lam.T]
    AT = A @ split.T.T
    trip = NESTED_C * eps * np.linalg.cond(split.T)
    prev = k
    for s, pred, p2, _ in pe.prefixes(A, Z):
        i = s.centers.n
        assert np.all(p2 <= prev)
        assert np.all(p2 >= -RANK_TOL * k)
        pred_err = np.abs(pred - s.evaluate_many(Z)) @ np.abs(split.T.T)
        pred_trip = trip * np.linalg.norm(pred, axis=1)
        for (J, factor), skipped, kg in zip(pe.factors, s.solver_info["skipped"], groups):
            kept = factor.kept[:i]
            assert skipped == i - np.count_nonzero(kept)
            assert np.all(p2[:i][kept][:, J] <= RANK_TOL * k[:i][kept][:, J])
            Xk = PointSet(X.points[:i][kept], d=X.d)
            r, chol = Xk.n, cho_factor(kg.gramian(Xk), lower=True)
            lagrange = cho_solve(chol, kg.cross_many(Z, Xk).reshape(len(Z), r).T)
            c = cho_solve(chol, AT[:i][kept][:, J])
            pred_tol = (NESTED_C * eps * r**2 * np.max(k) * np.linalg.norm(c)
                        * (1.0 + np.linalg.norm(lagrange, axis=0)))
            assert np.all(pred_err[:, J] <= (pred_tol + pred_trip)[:, None])
        prev = p2
    if problem is NESTED_SKIP:
        assert s.solver_info["skipped"] == [1, 1]


@SETTINGS
@given(problems())
def test_additivity_gap(problem):
    kernel, X, Xq, A = problem
    tol = _law_tol(kernel, X)
    samples = list(zip(Xq, _directions(A)))
    if kernel.p >= 2:
        gaps = [rep["gap"] for rep in power_additivity_check(kernel, X, samples)]
    else:
        # one term: the order-1 factorization P^2 = Phat^2 * alpha^T Q alpha
        ((ks, Q),) = kernel.terms
        pe = PowerEvaluator.build(kernel, X)
        gaps = [pe.power_sq(x, a) - scalar_power_sq(ks, X, x) * float(a @ Q @ a)
                for x, a in samples]
    assert all(g >= -tol for g in gaps)
    if orthogonal_products(kernel.coefficients()):
        assert all(abs(g) <= tol for g in gaps)


@st.composite
def uncoupled_pd_problems(draw):
    """A strictly pd Gaussian kernel whose coefficients split per term.

    problems() draws such kernels about once in twelve and only with
    rank-1 projections of eigenvalue 1.  Here the m directions of a random
    rotation are shared out among p terms, each with at least one, and
    weighted by positive eigenvalues, so that ranks above 1 and
    eigenvalues other than 1 occur.
    """
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, m))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 6))
    shapes = [draw(st.floats(0.3, 5.0)) for _ in range(p)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    owner = np.concatenate([np.arange(p), rng.integers(0, p, m - p)])
    w = rng.uniform(0.2, 5.0, m)
    coeffs = [(V[:, owner == i] * w[owner == i]) @ V[:, owner == i].T for i in range(p)]
    kernel = SeparableKernel.create(
        [(ScalarKernel.gaussian(a), Q) for a, Q in zip(shapes, coeffs)]
    )
    X = PointSet(rng.uniform(-1.0, 1.0, size=(n, d)))
    Xq = rng.uniform(-1.0, 1.0, size=(q, d))
    F = rng.standard_normal((n, m))
    return kernel, X, Xq, F


# Forward-error constant of the dense comparison: over 3,000 draws the
# errors reached 4x eps * cond(G), relative to the dense solution.
FWD_C = 100.0
# The residual of an ill-conditioned system is known only to within the
# roundoff of G alpha, eps * ||G|| ||alpha|| / ||f||; over 3,000 draws the
# two residuals differed by at most 5.2 times that floor.
RES_C = 64.0


@pytest.mark.filterwarnings("ignore:ill-conditioned interpolation system")
@SETTINGS
@given(uncoupled_pd_problems())
def test_split_fit_matches_dense_cholesky(problem):
    kernel, X, Xq, F = problem
    assert kernel.strictly_pd
    m, n, eps = kernel.m, X.n, np.finfo(float).eps
    G = symmetrize(sum(np.kron(ks.cross(X.points, X.points), Q) for ks, Q in kernel.terms))
    f = F.reshape(-1)
    try:
        ref = cho_solve(cho_factor(G, lower=True), f)
    except LinAlgError:
        assume(False)
    s = fit(kernel, X, F)
    assert s.solver_info["path"] == "cholesky"
    assert s.solver_info["blocks"] == kernel.p
    assert s.solver_info["rank_used"] == n * m
    tol = FWD_C * eps * np.linalg.cond(G)
    assert np.linalg.norm(s.coeffs - ref) <= tol * np.linalg.norm(ref)
    C = kernel.cross_many(Xq, X).reshape(len(Xq) * m, n * m)
    pred_err = np.linalg.norm(s.evaluate_many(Xq).reshape(-1) - C @ ref)
    assert pred_err <= tol * np.linalg.norm(C, 2) * np.linalg.norm(ref)
    dense = np.linalg.norm(G @ s.coeffs - f) / np.linalg.norm(f)
    floor = eps * np.linalg.norm(G, 2) * np.linalg.norm(s.coeffs) / np.linalg.norm(f)
    assert abs(s.solver_info["residual"] - dense) <= max(1e-12, RES_C * floor)


@st.composite
def split_pd_problems(draw):
    """A strictly pd Gaussian kernel that splits by congruence but is coupled.

    Q_i = M diag(lam_i) M^T with a random invertible M (condition at most
    10) and nonnegative lambda columns, each direction taking one of a few
    drawn columns, so that several directions share one scalar kernel.
    Also returns the number of distinct kernels, the groups of the split.
    """
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3))
    n_cols = draw(st.integers(1, m))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 6))
    shapes = [draw(st.floats(0.3, 5.0)) for _ in range(p)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    M = (U * rng.uniform(0.3, 3.0, m)) @ V
    cols = rng.uniform(0.0, 1.0, (p, n_cols)) * (rng.random((p, n_cols)) < 0.7)
    for c in np.flatnonzero(~cols.any(axis=0)):
        cols[rng.integers(p), c] = 1.0
    owner = np.concatenate([np.arange(n_cols), rng.integers(0, n_cols, m - n_cols)])
    coeffs = [(M * lam) @ M.T for lam in cols[:, owner]]
    kernel = SeparableKernel.create(
        [(ScalarKernel.gaussian(a), Q) for a, Q in zip(shapes, coeffs)]
    )
    # proportional columns give one kernel: count the normalized ones
    n_groups = len(np.unique(np.round(cols / cols.sum(axis=0), 12), axis=1).T)
    X = PointSet(rng.uniform(-1.0, 1.0, size=(n, d)))
    Xq = rng.uniform(-1.0, 1.0, size=(q, d))
    F = rng.standard_normal((n, m))
    return kernel, X, Xq, F, n_groups


# Over 7,000 draws of this construction the coefficients, predictions,
# D(x) and G^-1 of the split route stayed within 9.3 eps * cond(G) of the
# dense block route (relative to the coefficients, the predictions' scale,
# max ||k(x, x)||_2 and ||G^-1||), and the residuals within 1.7 times the
# roundoff floor: FWD_C and RES_C above hold with room.  Without
# congruence_split's pairwise sweep, draws whose combination of lambda
# columns nearly cancels reached 195 eps * cond(G).
@pytest.mark.filterwarnings("ignore:ill-conditioned interpolation system")
@SETTINGS
@given(split_pd_problems())
def test_congruence_split_matches_dense_block_route(problem):
    kernel, X, Xq, F, n_groups = problem
    assert kernel.strictly_pd
    m, n, eps = kernel.m, X.n, np.finfo(float).eps
    G = symmetrize(sum(np.kron(ks.cross(X.points, X.points), Q) for ks, Q in kernel.terms))
    f = F.reshape(-1)
    try:
        factor = cho_factor(G, lower=True)
        # a scalar block can be worse conditioned than G by up to cond(T)^2
        s = fit(kernel, X, F)
    except (LinAlgError, ConditioningError):
        assume(False)
    ref = cho_solve(factor, f)
    assert s.solver_info["path"] == "cholesky"
    assert s.solver_info["blocks"] == n_groups
    assert s.solver_info["rank_used"] == n * m
    tol = FWD_C * eps * np.linalg.cond(G)
    assert np.linalg.norm(s.coeffs - ref) <= tol * np.linalg.norm(ref)
    C = kernel.cross_many(Xq, X)
    Cf = C.reshape(len(Xq) * m, n * m)
    pred_err = np.linalg.norm(s.evaluate_many(Xq).reshape(-1) - Cf @ ref)
    assert pred_err <= tol * np.linalg.norm(Cf, 2) * np.linalg.norm(ref)
    dense = np.linalg.norm(G @ s.coeffs - f) / np.linalg.norm(f)
    floor = eps * np.linalg.norm(G, 2) * np.linalg.norm(s.coeffs) / np.linalg.norm(f)
    assert abs(s.solver_info["residual"] - dense) <= max(1e-12, RES_C * floor)

    pe = PowerEvaluator.build(kernel, X)
    assert pe.path == "cholesky" and len(pe.factors) == n_groups
    kxx = kernel.diag_value(Xq)
    W = cho_solve(factor, Cf.T).reshape(n * m, len(Xq), m)
    D_ref = kxx - np.einsum("qan,nqb->qab", C, W)
    D_ref = 0.5 * (D_ref + np.swapaxes(D_ref, 1, 2))
    scale = np.max(np.linalg.norm(kxx, 2, axis=(1, 2)))
    assert np.max(np.abs(pe.deficiency_many(Xq) - D_ref)) <= tol * scale
    G_inv = cho_solve(factor, np.eye(n * m))
    assert np.linalg.norm(pe.gram_pinv - G_inv) <= tol * np.linalg.norm(G_inv)


def _unsplit(problem):
    return congruence_split(problem[0].coefficients()) is None


def _dense_inverse(G, pseudo):
    """G^-1 from one eigh, or a generalized inverse at RANK_TOL; also its condition number.

    With ``pseudo`` it is S (S G S)^+ S for the Jacobi scaling S =
    diag(G)^(-1/2), 0 where G_jj = 0, with the eigenvalues of S G S up to
    RANK_TOL of the largest cut, as the pivoted Cholesky cuts each pivot
    against its own diagonal entry; the condition number is over the
    eigenvalues kept.  For a C whose rows lie in the range of G, as a
    cross matrix's do, C S (S G S)^+ S C^T = C G^+ C^T in exact
    arithmetic.
    """
    dg = np.diag(G)
    sc = 1 / np.sqrt(np.where(dg > 0, dg, np.inf)) if pseudo else np.ones(len(G))
    w, V = np.linalg.eigh(G * sc * sc[:, None])
    aw = np.abs(w)
    kept = aw > RANK_TOL * max(aw.max(), ZERO_FLOOR) if pseudo else aw > 0
    # an eigenvalue at the cutoff can fall on either side of it under roundoff
    if pseudo and np.any(np.abs(aw / (RANK_TOL * max(aw.max(), ZERO_FLOOR)) - 1) <= 1e-3):
        assume(False)
    inv = sc[:, None] * ((V[:, kept] / w[kept]) @ V[:, kept].T) * sc
    return inv, int(kept.sum()), aw.max() / aw[kept].min()


def _check_block_route(kernel, X, Xq, F):
    """fit and PowerEvaluator on an unsplit kernel against the dense system.

    The reference is the point-major G = sum_i kron(K_i, Q_i), inverted by
    eigh (for a kernel that is not strictly pd, Jacobi-scaled and
    pseudo-inverted at RANK_TOL, see ``_dense_inverse``), and the block
    route must agree with it within FWD_C eps cond(G), cond over the
    eigenvalues kept.  On the Cholesky and LU routes that covers the
    coefficients and G^-1.  The pivoted route's solve is another
    generalized inverse, zero at the skipped unknowns, so there the
    predictions on data in G's range and D are compared.  Over 3,000
    draws of ``problems()`` that do not split, 2,805 of them on the
    pivoted route, its predictions erred by up to 2.3 eps cond and its D
    by up to 1.4 eps cond on the scale below.  Over 5,000 draws with the
    eigh route the residuals differed by at most 0.23 times their
    roundoff floor.  Returns the path of ``fit``.
    """
    m, n, eps = kernel.m, X.n, np.finfo(float).eps
    G = symmetrize(sum(np.kron(ks.cross(X.points, X.points), Q) for ks, Q in kernel.terms))
    C = kernel.cross_many(Xq, X)
    Cf = C.reshape(len(Xq) * m, n * m)
    f = F.reshape(-1)

    s = fit(kernel, X, F, lu_fallback=True)
    path = s.solver_info["path"]
    pivoted = not kernel.strictly_pd
    assert path in (("pivoted_cholesky",) if pivoted else ("cholesky", "lu_fallback"))
    assert s.solver_info["blocks"] == 1
    G_inv, rank, cond = _dense_inverse(G, pivoted)
    # the pivots cut no eigenvalue: they keep at least as many unknowns as
    # the scaled G has eigenvalues above the cutoff
    assert (s.solver_info["rank_used"] >= rank) if pivoted else (s.solver_info["rank_used"] == n * m)
    tol = FWD_C * eps * cond
    if pivoted:
        # data in G's range, G f: the rows of C lie in it too, so C G^+ G f
        # = C f exactly, and the roundoff of G f enters on the scale ||f||
        ref, pred = f, fit(kernel, X, (G @ f).reshape(n, m)).evaluate_many(Xq)
        bound = np.linalg.norm(f)
    else:
        # on the scale ||G^-1|| ||f||: the eigenvectors of the two layouts
        # differ by a rotation of order eps cond
        ref, pred = G_inv @ f, s.evaluate_many(Xq)
        bound = np.linalg.norm(G_inv, 2) * np.linalg.norm(f)
        assert np.linalg.norm(s.coeffs - ref) <= tol * bound
    pred_err = np.linalg.norm(pred.reshape(-1) - Cf @ ref)
    assert pred_err <= tol * np.linalg.norm(Cf, 2) * bound
    dense = np.linalg.norm(G @ s.coeffs - f) / np.linalg.norm(f)
    floor = eps * np.linalg.norm(G, 2) * np.linalg.norm(s.coeffs) / np.linalg.norm(f)
    assert abs(s.solver_info["residual"] - dense) <= max(1e-12, RES_C * floor)

    pe = PowerEvaluator.build(kernel, X)
    assert pe.split is None and len(pe.factors) == 1
    G_inv, _, cond = _dense_inverse(G, pe.path == "pivoted_cholesky")
    tol = FWD_C * eps * cond
    if pe.path == "cholesky":
        assert np.linalg.norm(pe.gram_pinv - G_inv) <= tol * np.linalg.norm(G_inv)
        assert (np.linalg.norm(pe.solve(f) - G_inv @ f)
                <= tol * np.linalg.norm(G_inv) * np.linalg.norm(f))
    kxx = kernel.diag_value(Xq)
    D_ref = kxx - np.einsum("qan,nqb->qab", C, (G_inv @ Cf.T).reshape(n * m, len(Xq), m))
    D_ref = 0.5 * (D_ref + np.swapaxes(D_ref, 1, 2))
    scale = (np.max(np.linalg.norm(kxx, 2, axis=(1, 2)))
             + np.linalg.norm(Cf, 2) ** 2 * np.linalg.norm(G_inv, 2))
    assert np.max(np.abs(pe.deficiency_many(Xq) - D_ref)) <= tol * scale
    return path


@pytest.mark.filterwarnings("ignore:ill-conditioned interpolation system")
@pytest.mark.filterwarnings("ignore:Cholesky failed")
@SETTINGS
@given(problems().filter(_unsplit))
def test_unsplit_kernels_match_dense_point_major_route(problem):
    kernel, X, Xq, A = problem
    _check_block_route(kernel, X, Xq, A)


def _route_problem(shapes, n, poly=False):
    # three coefficients whose whitened forms do not commute: no split
    Qs = [np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2), np.diag([1.0, 0.0])]
    scalars = [ScalarKernel.gaussian(a) for a in shapes]
    if poly:
        scalars[1] = ScalarKernel.polynomial(2)
    kernel = SeparableKernel.create(list(zip(scalars, Qs)))
    rng = np.random.default_rng(n)
    X = PointSet(np.linspace(-1, 1, n)[:, None])
    return kernel, X, rng.uniform(-1, 1, (5, 1)), rng.standard_normal((n, 2))


# One unsplit problem per route of the factor: Cholesky, the LU fallback of
# a Gramian that does not factor, and the pivoted Cholesky of a kernel with
# a polynomial term.
@pytest.mark.filterwarnings("ignore:ill-conditioned interpolation system")
@pytest.mark.filterwarnings("ignore:Cholesky failed")
@pytest.mark.parametrize("route, problem", [
    ("cholesky", _route_problem((2.0, 5.0, 3.0), 8)),
    ("lu_fallback", _route_problem((0.5, 1.0, 2.0), 20)),
    ("pivoted_cholesky", _route_problem((2.0, 5.0, 3.0), 8, poly=True)),
])
def test_block_route_matches_dense_reference_on_every_route(route, problem):
    assert _unsplit(problem)
    assert _check_block_route(*problem) == route


@pytest.mark.filterwarnings("ignore:ill-conditioned interpolation system")
@pytest.mark.filterwarnings("ignore:Cholesky failed")
@SETTINGS
@given(problems())
def test_native_norms_match_dense_kron_sum(problem):
    # f on the centers X; s its interpolant on the queries and X's first
    # point, so that sites and centers share a point as in example2
    # --include-sites.  Both norms are quadratic forms g^T G g of the dense
    # point-major Gramian G = sum_i kron(K_i, Q_i) of sites and centers.
    kernel, X, Xq, A = problem
    f = NativeSpanFunction(kernel, X, A)
    centers = PointSet(np.vstack([Xq, X.points[:1]]))
    s = fit(kernel, centers, f.evaluate_many(centers.points), lu_fallback=True)
    Z = np.vstack([X.points, centers.points])
    G = symmetrize(sum(np.kron(ks.cross(Z, Z), Q) for ks, Q in kernel.terms))
    g = np.concatenate([A.reshape(-1), -s.coeffs])
    k = A.size
    for got, v, M in [(native_norm_sq(f), g[:k], G[:k, :k]), (residual_norm_sq(f, s), g, G)]:
        assert abs(got - v @ M @ v) <= RTOL * (np.abs(v) @ np.abs(M) @ np.abs(v))


@st.composite
def bound_problems(draw, strictly_pd):
    """A problems() draw, its kernel strictly pd or not, with a target f.

    f lies in the span of 1 to 4 random sites, with random weights; it
    takes the place of the coefficients.
    """
    kernel, X, Xq, _ = draw(problems().filter(lambda p: p[0].strictly_pd == strictly_pd))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = PointSet(rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 4)), X.d)))
    return kernel, X, Xq, NativeSpanFunction(
        kernel, sites, rng.standard_normal((sites.n, kernel.m)))


def _bound_excess(kernel, X, Xq, f):
    """max over Xq of |f(x) - s(x)|_2 - ||D(x)||_2^(1/2) ||f - s||, over ||f||.

    s is the interpolant of f on X from the factors of D, as example2
    builds it, so that D is the power function of the space s projects f
    onto; the bound then holds in exact arithmetic on every route.
    """
    pe = PowerEvaluator.build(kernel, X)
    s = Interpolant(kernel, X, pe.solve(f.evaluate_many(X.points).reshape(-1)), {})
    err = np.linalg.norm(f.evaluate_many(Xq) - s.evaluate_many(Xq), axis=1)
    bound = pe.bound_factors(Xq)["two"] * np.sqrt(residual_norm_sq(f, s))
    return np.max(err - bound) / np.sqrt(native_norm_sq(f))


# Roundoff slack of the bound, in units of eps ||f||.  Over 4,000 strictly
# pd draws of bound_problems() the excess stayed below 734 eps ||f|| on
# every Gramian with cond(G) < 1e14.  It exceeded BOUND_C on 10 draws, all
# with cond(G) > 1e14, where the solve's own roundoff reaches it; the
# derandomized draws below hold none of them.
BOUND_C = 1e3
EPS = np.finfo(float).eps


def _bound_problem(kernel, n):
    """Centers n equispaced points of [-1, 1], f on two sites, weights 1."""
    sites = PointSet(np.array([[0.3], [-0.7]]))
    return (kernel, PointSet(np.linspace(-1, 1, n)[:, None]),
            np.linspace(-0.95, 0.95, 7)[:, None],
            NativeSpanFunction(kernel, sites, np.ones((2, kernel.m))))


@pytest.mark.filterwarnings("ignore:Cholesky failed")
@SETTINGS
@given(bound_problems(strictly_pd=True))
@example(_bound_problem(_route_problem((2.0, 5.0, 3.0), 8)[0], 8))  # no split
def test_error_bound_holds(problem):
    assert _bound_excess(*problem) <= BOUND_C * EPS


# The scalar Gaussian of shape 0.3 on 8 equispaced centers, as the first
# component of an m = 2 kernel whose coefficient diag(1, 0) is singular: the
# pivoted Cholesky route.  It keeps the 8 unknowns of the first component
# and skips the 8 of the second.  A 60-digit solve gives an excess of
# -107 eps ||f||, and so does the Cholesky route of the same scalar Gramian
# (the kernel with coefficient [[1]]); an eigh pseudo-inverse at RANK_TOL,
# which keeps all 8 scalar eigenvalues (the smallest 1.45 times the cutoff),
# broke the bound by 1.5e9 eps ||f||.
PINV_BOUND_BREAK = _bound_problem(
    SeparableKernel.create([(ScalarKernel.gaussian(0.3), np.diag([1.0, 0.0]))]), 8)


@SETTINGS
@given(bound_problems(strictly_pd=False))
@example(PINV_BOUND_BREAK)
def test_error_bound_holds_on_the_pivoted_cholesky_route(problem):
    assert _bound_excess(*problem) <= BOUND_C * EPS


def test_pivoted_cholesky_keeps_the_bound_the_eigh_route_broke():
    # the singular coefficient's component is skipped, and the scalar
    # Gramian through plain Cholesky keeps the bound too
    kernel, X, _, _ = PINV_BOUND_BREAK
    pe = PowerEvaluator.build(kernel, X)
    assert pe.path == "pivoted_cholesky"
    assert pe.factors[0][1].rank == 8
    assert _bound_excess(*PINV_BOUND_BREAK) <= BOUND_C * EPS
    pd_problem = _bound_problem(SeparableKernel.create([(ScalarKernel.gaussian(0.3), [[1.0]])]), 8)
    assert PowerEvaluator.build(*pd_problem[:2]).path == "cholesky"
    assert _bound_excess(*pd_problem) <= BOUND_C * EPS
