import json
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvk import backends, decomposition, interpolation, linalg
from mvk.interpolation import (
    ConditioningError,
    Interpolant,
    KernelMismatchError,
    NativeSpanFunction,
    fit,
    load_model,
    native_norm_sq,
    residual_norm_sq,
    save_model,
)
from mvk.kernels import DuplicateCentersError, PointSet, ScalarKernel, SeparableKernel
from mvk.linalg import symmetrize
from mvk.power import PowerEvaluator


def gaussian_kernel(shapes=(1.0, 2.0)):
    Q1 = np.array([[2.0, 1.0], [1.0, 2.0]])
    Q2 = np.array([[1.0, 0.0], [0.0, 0.5]])
    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(shapes[0]), Q1),
            (ScalarKernel.gaussian(shapes[1]), Q2),
        ]
    )


def unsplit_kernel():
    # three coefficients whose whitened forms do not commute: no split
    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), np.array([[2.0, 1.0], [1.0, 2.0]])),
            (ScalarKernel.gaussian(2.0), np.eye(2)),
            (ScalarKernel.gaussian(3.0), np.diag([1.0, 0.0])),
        ]
    )


def polynomial_kernel():
    return SeparableKernel.create(
        [
            (ScalarKernel.polynomial(1), np.eye(2)),
            (ScalarKernel.polynomial(2), np.eye(2)),
        ]
    )


def test_fit_exact_on_centers_cholesky():
    k = gaussian_kernel()
    X = PointSet(np.linspace(-1, 1, 8)[:, None])
    rng = np.random.default_rng(0)
    F = rng.standard_normal((8, 2))
    s = fit(k, X, F)
    assert s.solver_info["path"] == "cholesky"
    assert s.solver_info["rank_used"] == 16
    assert np.allclose(s.evaluate_many(X.points), F, atol=1e-10)
    # scalar evaluation agrees with the batch path
    assert np.allclose(s(X.points[3]), F[3], atol=1e-10)


def test_fit_pivoted_cholesky_path():
    k = polynomial_kernel()
    X = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    # target inside the native space: a kernel translate
    F = np.stack([k(x, np.array([0.5, 0.5]))[:, 0] for x in X.points])
    s = fit(k, X, F)
    assert s.solver_info["path"] == "pivoted_cholesky"
    assert s.solver_info["rank_used"] <= 6
    assert np.allclose(s.evaluate_many(X.points), F, atol=1e-10)


def test_pivoted_cholesky_takes_no_eigendecomposition(monkeypatch):
    # 7 points span only 5 dimensions of the degree <= 2 polynomials per
    # component, so 2 x 2 of the 14 unknowns are skipped.  fit and
    # PowerEvaluator.build factor the Gramian without an eigh; the skipped
    # unknowns get zero coefficients, and data in the Gramian's range are
    # still interpolated
    k = polynomial_kernel()
    X = PointSet(np.random.default_rng(4).uniform(-1, 1, (7, 2)))
    F = np.stack([k(x, np.array([0.5, 0.5])) @ [1.0, -2.0] for x in X.points])
    assert linalg.rank_of(k.gramian(X)) == 10

    calls = []
    sym_eig = linalg.sym_eig

    def counting_sym_eig(A):
        calls.append(1)
        return sym_eig(A)

    monkeypatch.setattr(linalg, "sym_eig", counting_sym_eig)
    s = fit(k, X, F)
    pe = PowerEvaluator.build(k, X)
    assert calls == []
    assert s.solver_info["path"] == pe.path == "pivoted_cholesky"
    assert s.solver_info["rank_used"] == np.count_nonzero(s.coeffs) == 10
    assert np.allclose(s.evaluate_many(X.points), F, atol=1e-10)


def test_pivoted_fit_warns_on_data_outside_the_gramians_range():
    # poly(2) I_2 spans 3 functions per component: 9 random values leave the
    # range of the Gramian, which the pivoted fit reports, while values in
    # the range fit silently
    k = SeparableKernel.create([(ScalarKernel.polynomial(2), np.eye(2))])
    rng = np.random.default_rng(5)
    X = PointSet(rng.uniform(-1, 1, (9, 2)))
    with pytest.warns(RuntimeWarning, match="relative residual") as record:
        s = fit(k, X, rng.standard_normal((9, 2)))
    assert s.solver_info["path"] == "pivoted_cholesky"
    assert s.solver_info["rank_used"] == 6
    assert s.solver_info["residual"] > interpolation.LIN_TOL
    assert record[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = fit(k, X, np.stack([k(x, np.array([0.5, -0.2]))[:, 1] for x in X.points]))
    assert s.solver_info["residual"] <= interpolation.LIN_TOL


def test_fit_shape_validation():
    k = gaussian_kernel()
    X = PointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        fit(k, X, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fit(k, X, np.zeros((2, 3)))


# random values leave the polynomial kernel's range, and its fit warns
@pytest.mark.filterwarnings("ignore:ill-conditioned interpolation system")
@pytest.mark.parametrize("kernel", [gaussian_kernel, unsplit_kernel, polynomial_kernel])
def test_fit_and_evaluator_solve_agree_bit_for_bit(kernel):
    # fit and PowerEvaluator.solve map the data into the blocks and back
    # through one routine, so the same factors give the same coefficients
    k = kernel()
    rng = np.random.default_rng(5)
    X = PointSet(rng.uniform(-1, 1, (9, 2)))
    F = rng.standard_normal((9, 2))
    s = fit(k, X, F)
    pe = PowerEvaluator.build(k, X)
    expected = {gaussian_kernel: (True, "cholesky"), unsplit_kernel: (False, "cholesky"),
                polynomial_kernel: (False, "pivoted_cholesky")}[kernel]
    assert (pe.split is not None, pe.path) == expected
    assert s.solver_info["path"] == pe.path
    assert np.array_equal(s.coeffs, pe.solve(F.reshape(-1)))


def test_fit_empty_centers():
    k = gaussian_kernel()
    s = fit(k, PointSet([], d=1), np.zeros((0, 2)))
    assert s.solver_info["path"] == "empty"
    assert np.array_equal(s(np.array([0.3])), np.zeros(2))
    assert s.evaluate_many(np.array([[0.3], [0.4]])).shape == (2, 2)


@pytest.mark.parametrize("kernel", [gaussian_kernel, unsplit_kernel])
def test_evaluator_solve_without_centers_is_empty(kernel):
    # like fit's empty interpolant: no unknowns, with or without a split
    pe = PowerEvaluator.build(kernel(), PointSet([], d=1))
    assert (pe.split is not None) == (kernel is gaussian_kernel)
    for b in (np.zeros(0), np.zeros((0, 3))):
        assert pe.solve(b).shape == b.shape
    assert pe.gram_pinv.shape == (0, 0)


def ill_conditioned_problem():
    # wide Gaussian on many close 1-d points: Cholesky breaks down
    k = SeparableKernel.create([(ScalarKernel.gaussian(0.05), np.eye(2))])
    X = PointSet(np.linspace(-1, 1, 40)[:, None])
    rng = np.random.default_rng(1)
    return k, X, rng.standard_normal((40, 2))


def test_fit_conditioning_error_and_fallback():
    k, X, F = ill_conditioned_problem()
    with pytest.raises(ConditioningError) as exc:
        fit(k, X, F)
    assert exc.value.lam_min is not None
    s = fit(k, X, F, lu_fallback=True)
    assert s.solver_info["path"] == "lu_fallback"
    assert s.coeffs.shape == (80,)


@pytest.mark.parametrize("route", ["cholesky", "lu_fallback", "pivoted_cholesky"])
def test_fit_rejects_non_finite_values(route):
    if route == "pivoted_cholesky":
        k, X = polynomial_kernel(), PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        F, bad = np.ones((3, 2)), np.nan
    elif route == "lu_fallback":
        k, X, F = ill_conditioned_problem()
        bad = np.inf
    else:
        k, X = gaussian_kernel(), PointSet(np.linspace(-1, 1, 8)[:, None])
        F, bad = np.ones((8, 2)), np.nan
    # the finite data take the route named
    assert fit(k, X, F, lu_fallback=True).solver_info["path"] == route
    F = F.copy()
    F[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fit(k, X, F, lu_fallback=route == "lu_fallback")


def coupled_kernel(shapes=(100.0, 200.0, 400.0), seed=16):
    # three full-rank coupled coefficients A A^T / 3: no split, the block route
    rng = np.random.default_rng(seed)
    return SeparableKernel.create(
        [(ScalarKernel.gaussian(e), (lambda A: A @ A.T / 3.0)(rng.standard_normal((3, 3))))
         for e in shapes])


def residual_problem(route, split):
    """(kernel, centers, data) whose fit takes ``route``, through a split or not."""
    rng = np.random.default_rng(17)
    if route == "pivoted_cholesky":  # a kernel that is not strictly pd never splits
        X = PointSet(rng.uniform(-1, 1, (6, 2)))
        return polynomial_kernel(), X, rng.standard_normal((6, 2))
    X = PointSet(np.linspace(-1, 1, 40 if route == "lu_fallback" else 8)[:, None])
    if route == "lu_fallback":  # wide Gaussians on 40 close points do not factor
        k = uncoupled_kernel(shapes=(50.0, 0.05)) if split else coupled_kernel((0.05, 0.1, 0.2))
    else:
        k = gaussian_kernel() if split else coupled_kernel((1.0, 2.0, 3.0))
    return k, X, rng.standard_normal((X.n, k.m))


@pytest.mark.parametrize("route, split", [("cholesky", True), ("cholesky", False),
                                          ("lu_fallback", True), ("lu_fallback", False),
                                          ("pivoted_cholesky", False)])
def test_residual_from_the_lower_triangle_matches_the_dense_one(route, split):
    # fit factors each block in place and reads its residual from the strict
    # lower triangle and the saved diagonal; the dense residual of the whole
    # point-major system, on a Gramian fit never touched, agrees to roundoff
    k, X, F = residual_problem(route, split)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the pivoted data leave the range
        s = fit(k, X, F, lu_fallback=route == "lu_fallback")
    assert s.solver_info["path"] == route
    assert (s.solver_info["blocks"] > 1) == split
    G, f, x = k.gramian(X), F.reshape(-1), s.coeffs
    dense = np.linalg.norm(G @ x - f) / np.linalg.norm(f)
    eps = np.finfo(float).eps
    tol = len(G) * eps * np.linalg.norm(G, 2) * np.linalg.norm(x) / np.linalg.norm(f)
    assert abs(s.solver_info["residual"] - dense) <= tol


def test_fit_peak_memory_stays_under_one_and_a_half_gramians():
    # block route, n = 300, m = 3: the (900, 900) Gramian takes 6.48 MB.  It
    # is assembled from one distance matrix and panel buffers, factored in
    # place and read again for the residual, with no copy of it
    k = coupled_kernel()
    rng = np.random.default_rng(18)
    X = PointSet(rng.uniform(-1, 1, (300, 2)))
    F = rng.standard_normal((300, 3))
    tracemalloc.start()
    try:
        s = fit(k, X, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.solver_info["path"] == "cholesky" and s.solver_info["blocks"] == 1
    assert peak < 1.5 * (3 * 300) ** 2 * 8


def test_native_norm_of_single_translate():
    k = gaussian_kernel()
    y = PointSet(np.array([[0.25]]))
    alpha = np.array([[1.0, -2.0]])
    f = NativeSpanFunction(k, y, alpha)
    # ||k(.,y) a||^2 = a^T k(y,y) a
    expected = alpha[0] @ k(y.points[0], y.points[0]) @ alpha[0]
    assert native_norm_sq(f) == pytest.approx(expected)


def test_native_span_evaluation():
    k = gaussian_kernel()
    sites = PointSet(np.array([[0.0], [0.6]]))
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = NativeSpanFunction(k, sites, w)
    x = np.array([0.3])
    expected = k(x, sites.points[0]) @ w[0] + k(x, sites.points[1]) @ w[1]
    assert np.allclose(f(x), expected)
    assert np.allclose(f.evaluate_many(x[None, :])[0], expected)


def test_residual_norm_pythagoras():
    # residual^2 == ||f||^2 - ||s||^2 for the interpolation projection
    k = gaussian_kernel()
    sites = PointSet(np.array([[0.0], [0.6], [-0.4]]))
    rng = np.random.default_rng(2)
    f = NativeSpanFunction(k, sites, rng.standard_normal((3, 2)))
    X = PointSet(np.array([[-0.5], [0.5]]))
    F = np.stack([f(x) for x in X.points])
    s = fit(k, X, F)
    r2 = residual_norm_sq(f, s)
    s2 = float(s.coeffs @ k.gramian(X) @ s.coeffs)
    assert r2 == pytest.approx(native_norm_sq(f) - s2, rel=1e-8)
    assert r2 >= 0.0


def test_residual_norm_builds_one_gramian(monkeypatch):
    # one assembly pass per call, split or not: the scale ||f||^2 comes from
    # the sites' leading sub-block of the same blocks, not a second build
    sites = PointSet(np.array([[0.0], [0.6], [-0.4]]))
    X = PointSet(np.array([[-0.5], [0.5]]))
    W = np.random.default_rng(5).standard_normal((3, 2))
    blocks, terms = interpolation._blocks, SeparableKernel._term_matrices
    calls = []

    def counting_blocks(*args):
        calls.append("_blocks")
        return blocks(*args)

    def counting_terms(self, *args):
        calls.append("_term_matrices")
        return terms(self, *args)

    def no_native_norm(_):
        raise AssertionError("native_norm_sq must not be called")

    for k in (gaussian_kernel(), unsplit_kernel()):
        f = NativeSpanFunction(k, sites, W)
        s = fit(k, X, np.stack([f(x) for x in X.points]))
        expected = residual_norm_sq(f, s)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(interpolation, "_blocks", counting_blocks)
            mp.setattr(SeparableKernel, "_term_matrices", counting_terms)
            mp.setattr(interpolation, "native_norm_sq", no_native_norm)
            assert residual_norm_sq(f, s) == expected
        assert calls == ["_blocks", "_term_matrices"]


def test_norm_scales():
    # residual_norm_sq's scale is ||f||^2 from the sites' leading sub-block;
    # native_norm_sq's is the absolute form, which on the unsplit route is
    # |beta|^T |G| |beta| of the point-major Gramian
    sites = PointSet(np.array([[0.0], [0.6], [-0.4]]))
    X = PointSet(np.array([[-0.5], [0.5]]))
    W = np.random.default_rng(7).standard_normal((3, 2))
    Z = PointSet(np.vstack([sites.points, X.points]))
    for k in (gaussian_kernel(), unsplit_kernel()):
        f = NativeSpanFunction(k, sites, W)
        s = fit(k, X, f.evaluate_many(X.points))
        _, scale = interpolation._quad_form(k, Z, np.vstack([W, -s.coeff_blocks()]), lead=3)
        assert scale == pytest.approx(native_norm_sq(f), rel=1e-12)
    k, beta = unsplit_kernel(), np.abs(W.reshape(-1))
    _, scale = interpolation._quad_form(k, sites, W)
    assert scale == pytest.approx(beta @ np.abs(k.gramian(sites)) @ beta, rel=1e-12)


def test_residual_norm_zero_when_centers_contain_sites():
    k = gaussian_kernel()
    sites = PointSet(np.array([[0.0], [0.6]]))
    rng = np.random.default_rng(3)
    f = NativeSpanFunction(k, sites, rng.standard_normal((2, 2)))
    X = PointSet(np.array([[0.0], [0.6], [1.0]]))
    F = np.stack([f(x) for x in X.points])
    s = fit(k, X, F)
    assert residual_norm_sq(f, s) == pytest.approx(0.0, abs=1e-10)


def test_residual_norm_kernel_mismatch():
    k1, k2 = gaussian_kernel(), gaussian_kernel(shapes=(1.0, 3.0))
    sites = PointSet(np.array([[0.0]]))
    f = NativeSpanFunction(k1, sites, np.ones((1, 2)))
    s = fit(k2, sites, np.ones((1, 2)))
    with pytest.raises(KernelMismatchError):
        residual_norm_sq(f, s)


def test_model_roundtrip(tmp_path):
    k = gaussian_kernel()
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    rng = np.random.default_rng(4)
    s = fit(k, X, rng.standard_normal((5, 2)))
    path = tmp_path / "model.json"
    save_model(s, path)
    s2 = load_model(path)
    assert np.array_equal(s2.coeffs, s.coeffs)
    assert np.array_equal(s2.centers.points, s.centers.points)
    assert s2.solver_info["path"] == s.solver_info["path"]
    xq = np.array([[0.123]])
    assert np.array_equal(s2.evaluate_many(xq), s.evaluate_many(xq))


def _json_dump_model(s, path):
    """The model file as ``save_model`` wrote it through ``json.dump``."""
    doc = {
        "format": "mvk-model-v1",
        "kernel": s.kernel.to_dict(),
        "centers": s.centers.points.tolist(),
        "input_dim": s.centers.d,
        "coeffs": s.coeffs.tolist(),
        "solver_info": dict(s.solver_info),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1]
COEFFS = st.one_of(st.sampled_from(SPECIAL_FLOATS + [np.nan, np.inf, -np.inf]), st.floats())
POINTS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(0, 4), m=st.integers(1, 3), d=st.integers(1, 3),
       points=st.lists(POINTS, min_size=12, max_size=12),
       coeffs=st.lists(COEFFS, min_size=12, max_size=12),
       shape=st.floats(1e-3, 1e3), scales=st.lists(st.floats(0.5, 1e3), min_size=3, max_size=3),
       residual=COEFFS)
@example(n=0, m=1, d=1, points=[0.0] * 12, coeffs=[0.0] * 12, shape=1.0, scales=[1.0] * 3,
         residual=0.0)
@example(n=4, m=1, d=3, points=SPECIAL_FLOATS + [2.5, -3.0, 7.0], coeffs=[-0.0, 5e-324, 1e308, np.nan] * 3,
         shape=400.0, scales=[1.0] * 3, residual=4.888e-14)
@example(n=4, m=3, d=2, points=SPECIAL_FLOATS + [2.5, -3.0, 7.0],
         coeffs=SPECIAL_FLOATS + [np.nan, np.inf, -np.inf], shape=0.1, scales=[2.0, 3.0, 0.5],
         residual=np.inf)
def test_save_model_writes_the_bytes_of_json_dump(n, m, d, points, coeffs, shape, scales, residual):
    k = SeparableKernel.create([(ScalarKernel.gaussian(shape), np.diag(scales[:m])),
                                (ScalarKernel.polynomial(2), np.eye(m))])
    s = Interpolant(k, PointSet(np.reshape(points[:n * d], (n, d)), d=d), np.array(coeffs[:n * m]),
                    {"path": "cholesky", "residual": residual, "rank_used": n * m, "blocks": 1})
    with tempfile.TemporaryDirectory() as tmp:
        save_model(s, f"{tmp}/fast.json")
        _json_dump_model(s, f"{tmp}/reference.json")
        with open(f"{tmp}/fast.json", "rb") as fast, open(f"{tmp}/reference.json", "rb") as ref:
            assert fast.read() == ref.read()


def test_save_model_spells_non_finite_coefficients_as_json_does(tmp_path):
    # float.__repr__ gives nan and inf; json writes NaN and Infinity
    k = gaussian_kernel()
    s = Interpolant(k, PointSet(np.array([[0.0], [1.0]])),
                    np.array([np.nan, np.inf, -np.inf, -0.0]), {"path": "lu_fallback"})
    save_model(s, tmp_path / "model.json")
    text = (tmp_path / "model.json").read_text()
    assert "\n  NaN,\n  Infinity,\n  -Infinity,\n  -0.0\n ]" in text
    assert not {"nan", "inf", "-inf"} & {line.strip(" ,") for line in text.splitlines()}
    assert np.array_equal(load_model(tmp_path / "model.json").coeffs, s.coeffs, equal_nan=True)


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(path)


def test_coeff_blocks_layout():
    k = gaussian_kernel()
    X = PointSet(np.array([[0.0], [1.0]]))
    s = fit(k, X, np.array([[1.0, 2.0], [3.0, 4.0]]))
    B = s.coeff_blocks()
    assert B.shape == (2, 2)
    assert np.array_equal(B.reshape(-1), s.coeffs)


def uncoupled_kernel(shapes=(1.0, 2.0)):
    # Q1 Q2 = 0 and rank Q1 + rank Q2 = 2: fit splits into two scalar solves
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(shapes[0]), 3.0 * np.outer(v, v)),
            (ScalarKernel.gaussian(shapes[1]), 0.5 * np.outer(u, u)),
        ]
    )


def refuse_block_assembly(self, *args, **kwargs):
    raise AssertionError("the split route formed the block Gramian")


def test_split_fit_never_forms_the_gramian(monkeypatch):
    # every block system comes from the one assembler, SeparableKernel._blocks
    X = PointSet(np.linspace(-1, 1, 8)[:, None])
    F = np.random.default_rng(5).standard_normal((8, 2))
    assemble = SeparableKernel._blocks

    monkeypatch.setattr(SeparableKernel, "_blocks", refuse_block_assembly)
    s = fit(uncoupled_kernel(), X, F)
    assert s.solver_info["blocks"] == 2
    assert np.allclose(s.evaluate_many(X.points), F, atol=1e-10)

    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)
        return assemble(self, *args, **kwargs)

    monkeypatch.setattr(SeparableKernel, "_blocks", counting)
    s = fit(gaussian_kernel(), X, F)
    assert not calls
    assert s.solver_info["blocks"] == 2
    s = fit(unsplit_kernel(), X, F)
    assert len(calls) == 1
    assert s.solver_info["blocks"] == 1


def test_split_norms_never_form_the_gramian(monkeypatch):
    # through a split both native norms read the scalar blocks only
    sites = PointSet(np.array([[0.0], [0.6], [-0.4]]))
    X = PointSet(np.linspace(-1, 1, 5)[:, None])
    W = np.random.default_rng(6).standard_normal((3, 2))
    for k in (gaussian_kernel(), uncoupled_kernel()):
        f = NativeSpanFunction(k, sites, W)
        s = fit(k, X, f.evaluate_many(X.points))
        expected = native_norm_sq(f), residual_norm_sq(f, s)
        with monkeypatch.context() as mp:
            mp.setattr(SeparableKernel, "_blocks", refuse_block_assembly)
            assert (native_norm_sq(f), residual_norm_sq(f, s)) == expected
        assert expected[0] > expected[1] > 0.0


def test_single_term_pd_coefficient_takes_the_split_route():
    k = SeparableKernel.create(
        [(ScalarKernel.gaussian(1.0), np.array([[2.0, 1.0], [1.0, 2.0]]))]
    )
    X = PointSet(np.linspace(-1, 1, 6)[:, None])
    F = np.random.default_rng(6).standard_normal((6, 2))
    s = fit(k, X, F)
    assert s.solver_info["blocks"] == 1
    # K^{-1} F Q^{-1}: the one-term block system (K kron Q) alpha = f
    K = k.terms[0][0].cross(X.points, X.points)
    ref = np.linalg.solve(K, F) @ np.linalg.inv(k.terms[0][1])
    assert np.allclose(s.coeff_blocks(), ref, rtol=1e-8, atol=1e-10)


def test_split_fit_rejects_duplicate_centers():
    X = PointSet(np.array([[0.0], [0.5], [0.5]]))
    with pytest.raises(DuplicateCentersError):
        fit(uncoupled_kernel(), X, np.zeros((3, 2)))


def test_split_fit_conditioning_error_names_the_failing_block():
    # the wide second Gaussian on 40 close points does not factor; the
    # first one does
    k = uncoupled_kernel(shapes=(50.0, 0.05))
    X = PointSet(np.linspace(-1, 1, 40)[:, None])
    F = np.random.default_rng(7).standard_normal((40, 2))
    K2 = symmetrize(k.terms[1][0].cross(X.points, X.points))
    with pytest.raises(ConditioningError) as exc:
        fit(k, X, F)
    assert exc.value.lam_min == linalg.sym_eig(K2)[0][-1]
    s = fit(k, X, F, lu_fallback=True)
    assert s.solver_info["path"] == "lu_fallback"
    assert s.solver_info["blocks"] == 2
    assert s.solver_info["rank_used"] == 80


def test_split_fit_shares_one_distance_matrix(monkeypatch):
    # three Gaussian terms along the columns of an orthogonal matrix
    U, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))
    k = SeparableKernel.create(
        [(ScalarKernel.gaussian(s), w * np.outer(u, u))
         for s, w, u in zip((2.0, 5.0, 10.0), (3.0, 1.0, 0.5), U.T)]
    )
    rng = np.random.default_rng(9)
    X = PointSet(rng.uniform(-1, 1, (12, 2)))
    F = rng.standard_normal((12, 3))

    def per_term(self, Xa, Xb):
        for ks, Q in self.terms:
            yield ks.cross(Xa, Xb), Q

    with monkeypatch.context() as mp:
        mp.setattr(SeparableKernel, "_term_matrices", per_term)
        ref = fit(k, X, F)

    calls = []
    sq_dists = backends._sq_dists

    def counting(Xa, Xb, out=None):
        calls.append(1)
        return sq_dists(Xa, Xb, out=out)

    monkeypatch.setattr(backends, "_sq_dists", counting)
    s = fit(k, X, F)
    assert len(calls) == 1
    assert s.solver_info["blocks"] == 3
    assert np.array_equal(s.coeffs, ref.coeffs)
    assert s.solver_info == ref.solver_info


def test_split_is_computed_once_per_coefficient_family(monkeypatch):
    # fit and PowerEvaluator.build share one memoized congruence split
    rng = np.random.default_rng(21)
    B = rng.standard_normal((2, 2))
    k = SeparableKernel.create([
        (ScalarKernel.gaussian(1.0), B @ B.T + np.eye(2)),
        (ScalarKernel.gaussian(2.0), np.diag([1.0, 0.5])),
    ])
    X = PointSet(np.linspace(-1, 1, 6)[:, None])
    F = rng.standard_normal((6, 2))
    decomposition._congruence_split.cache_clear()
    calls = []
    check = decomposition.commuting_family_check

    def counting(mats):
        calls.append(1)
        return check(mats)

    monkeypatch.setattr(decomposition, "commuting_family_check", counting)
    fits = [fit(k, X, F) for _ in range(3)]
    pe = PowerEvaluator.build(k, X)
    assert len(calls) == 1
    assert all(np.array_equal(s.coeffs, fits[0].coeffs) for s in fits)
    split = pe.split
    for arr in (split.T, split.T_inv, split.lam, *split.groups):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        split.T[0, 0] = 0.0
    # the memo returns what a fresh computation gives
    decomposition._congruence_split.cache_clear()
    fresh = decomposition.congruence_split(k.coefficients())
    assert len(calls) == 2
    assert np.array_equal(fresh.T, split.T) and np.array_equal(fresh.lam, split.lam)
