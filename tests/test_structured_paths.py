"""Property tests: each structured kernel path against the dense reference.

The structured paths (term-wise evaluation, the vectorized diagonal, the
flat deficiency product and the broadcast block assembly) are compared
with the dense cross blocks, per-point evaluations and explicit Kronecker
sums on random separable kernels with Gaussian and polynomial terms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvk import NativeSpanFunction, PointSet, PowerEvaluator, ScalarKernel, SeparableKernel
from mvk.interpolation import Interpolant
from mvk.linalg import kron, symmetrize

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
        _assert_close(Dx, pe.deficiency(x), scale)


@SETTINGS
@given(problems())
def test_block_assembly_matches_kron_sum(problem):
    # Same products summed in the same order as the Kronecker reference, so
    # the results are equal, not just close.
    kernel, X, Xq, _ = problem
    m = kernel.m
    G_ref = sum(kron(ks.cross(X.points, X.points), Q) for ks, Q in kernel.terms)
    assert np.array_equal(kernel.gramian(X), symmetrize(G_ref))
    C_ref = sum(kron(ks.cross(Xq, X.points), Q) for ks, Q in kernel.terms)
    C = kernel.cross_many(Xq, X)
    assert np.array_equal(C.reshape(len(Xq) * m, X.n * m), C_ref)
