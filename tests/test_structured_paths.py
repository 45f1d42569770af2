"""Property tests on random separable kernels with Gaussian and polynomial terms.

The structured paths (term-wise evaluation, the vectorized diagonal, the
flat deficiency product and the broadcast block assembly) are compared
with the dense cross blocks, per-point evaluations and explicit Kronecker
sums.  The power-function laws of the paper are checked on the same
kernels: 0 <= D(x) <= k(x, x), D vanishes at the centers, D does not grow
as centers are added, and the additivity gap is nonnegative and vanishes
for uncoupled kernels.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvk import NativeSpanFunction, PointSet, PowerEvaluator, ScalarKernel, SeparableKernel
from mvk.decomposition import orthogonal_products
from mvk.interpolation import Interpolant
from mvk.power import power_additivity_check, scalar_power_sq
from mvk.linalg import symmetrize

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
@given(problems())
def test_interpolant_evaluation_matches_dense_cross(problem):
    kernel, X, Xq, A = problem
    s = Interpolant(kernel, X, A.reshape(-1), {})
    C = kernel.cross_many(Xq, X)
    _assert_close(s.evaluate_many(Xq), C @ s.coeffs, np.abs(C) @ np.abs(s.coeffs))
    _assert_close(s(Xq[0]), C[0] @ s.coeffs, np.abs(C[0]) @ np.abs(s.coeffs))


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


def _law_tol(kernel, X):
    # D(x) = k(x, x) - C G^+ C^T subtracts quantities bounded by the
    # Gramian's entries, through a Cholesky factor or a pseudo-inverse that
    # keeps eigenvalues down to RANK_TOL (1e-10) of lambda_max(G), so its
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
# sums) still take the pseudo-inverse with its cutoff.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="on kernels that are not strictly pd the pseudo-inverse cutoff "
    "drops Gramian eigenvalues below RANK_TOL * lambda_max, so the subspaces "
    "of consecutive prefixes are not nested and D can grow when a center is "
    "added",
)
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
