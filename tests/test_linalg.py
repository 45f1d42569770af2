import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from mvk import PointSet, PowerEvaluator, ScalarKernel, SeparableKernel, linalg
from mvk.linalg import (
    EigenSolverError,
    _NestedCholesky,
    _PivotedCholesky,
    _SymFactor,
    check_symmetric,
    is_psd,
    pinv_sym,
    rank_of,
    sym_eig,
    symmetrize,
)


def random_symmetric(rng, n, rank=None):
    if rank is None:
        rank = n
    A = rng.standard_normal((n, rank))
    return A @ A.T


def test_symmetrize():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = symmetrize(A)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == 1.0


def test_check_symmetric():
    assert check_symmetric(np.eye(3))
    assert not check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not check_symmetric(np.ones((2, 3)))
    assert not check_symmetric(np.ones(4))
    assert check_symmetric(np.zeros((0, 0)))
    # tolerance is relative to the magnitude of the entries
    big = 1e6 * np.eye(2)
    big[0, 1] = 1e-8
    assert check_symmetric(big)


def test_sym_eig_descending_orthonormal():
    rng = np.random.default_rng(0)
    A = random_symmetric(rng, 6)
    w, V = sym_eig(A)
    assert np.all(np.diff(w) <= 0)
    assert np.allclose(V.T @ V, np.eye(6), atol=1e-12)
    assert np.allclose((V * w) @ V.T, symmetrize(A), atol=1e-10 * np.abs(w).max())


def test_sym_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pinv_sym_moore_penrose():
    rng = np.random.default_rng(1)
    A = random_symmetric(rng, 5, rank=3)
    P = pinv_sym(A)
    assert np.allclose(A @ P @ A, A, atol=1e-10)
    assert np.allclose(P @ A @ P, P, atol=1e-10)
    assert np.allclose(P, P.T)
    assert np.allclose(A @ P, (A @ P).T, atol=1e-10)


def test_pinv_sym_inverse_on_full_rank():
    rng = np.random.default_rng(2)
    A = random_symmetric(rng, 4) + np.eye(4)
    assert np.allclose(pinv_sym(A), np.linalg.inv(A), atol=1e-10)


def test_pinv_sym_zero_matrix():
    assert np.array_equal(pinv_sym(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_sym_rejects_bad_tol():
    with pytest.raises(ValueError):
        pinv_sym(np.eye(2), rank_tol=0.0)


def test_rank_of():
    rng = np.random.default_rng(3)
    assert rank_of(np.zeros((4, 4))) == 0
    assert rank_of(np.eye(4)) == 4
    assert rank_of(random_symmetric(rng, 6, rank=2)) == 2
    v = rng.standard_normal(5)
    assert rank_of(np.outer(v, v)) == 1


def test_is_psd():
    ok, lam = is_psd(np.eye(2))
    assert ok and lam == pytest.approx(1.0)
    ok, lam = is_psd(np.diag([1.0, -0.5]))
    assert not ok and lam == pytest.approx(-0.5)
    # tiny negative eigenvalues within tolerance still count as PSD
    ok, _ = is_psd(np.diag([1.0, -1e-13]))
    assert ok


# --- the LAPACK wrappers against scipy.linalg's, bit for bit


def random_spd(rng, n):
    return random_symmetric(rng, n) + n * np.eye(n)


def scipy_factor(A):
    return scipy.linalg.cho_factor(A, lower=True)[0]


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_factor_and_solves_match_scipy(n):
    rng = np.random.default_rng(n)
    A = random_spd(rng, n)
    for a in (A, A.T.copy(order="F")):
        assert np.array_equal(linalg.cho_factor(a), scipy_factor(a))
    c = scipy_factor(A.T)
    assert c.flags.f_contiguous
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), rng.standard_normal((3, n)).T):
        assert np.array_equal(linalg.cho_solve(c, b), scipy.linalg.cho_solve((c, True), b))
        ref = scipy.linalg.solve_triangular(c, b, lower=True)
        assert np.array_equal(linalg.solve_triangular(c, b), ref)
        assert np.array_equal(linalg.solve_triangular(c, b.copy(order="F"), overwrite_b=True), ref)
        ref = scipy.linalg.solve_triangular(c, b, trans=1, lower=True)
        assert np.array_equal(linalg.solve_triangular(c, b, trans=1), ref)


def test_factor_in_place_matches_scipy():
    A = random_spd(np.random.default_rng(5), 9)
    ref = scipy.linalg.cho_factor(A.copy().T, lower=True, overwrite_a=True)[0]
    B = A.copy()
    c = linalg.cho_factor(B.T, overwrite_a=True)
    assert np.shares_memory(c, B) and np.array_equal(c, ref)


def test_empty_arrays_take_scipys_quick_return():
    # Recent scipy returns an empty float64 array of the input's shape
    # without calling LAPACK; dpotrs's f2py wrapper rejects an empty
    # right-hand side.
    empty = np.zeros((0, 0))
    c = linalg.cho_factor(empty)
    assert c.shape == (0, 0) and c.dtype == np.float64
    c4 = scipy_factor(random_spd(np.random.default_rng(6), 4).T)
    for c, b in ((empty, np.zeros((0, 3))), (empty, np.zeros(0)), (c4, np.zeros((4, 0)))):
        for x in (linalg.cho_solve(c, b), linalg.solve_triangular(c, b)):
            assert x.shape == b.shape and x.dtype == np.float64
    assert _SymFactor(np.zeros((0, 0)), True, "raise").solve(np.zeros((0, 3))).shape == (0, 3)


def test_not_positive_definite_raises_scipys_error():
    A = np.diag([2.0, 1.0, -1.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError) as ours:
        linalg.cho_factor(A)
    with pytest.raises(scipy.linalg.LinAlgError) as theirs:
        scipy.linalg.cho_factor(A, lower=True)
    assert type(ours.value) is type(theirs.value) and str(ours.value) == str(theirs.value)


def test_failed_cholesky_restores_the_matrix():
    rng = np.random.default_rng(7)
    V = rng.standard_normal((6, 6))
    A = symmetrize((V * [5.0, 4.0, 3.0, 2.0, 1.0, -1.0]) @ V.T)
    original = A.copy()
    factor = _SymFactor(A, True, "lu")
    assert factor.path == "lu_fallback" and factor._M is A
    assert np.array_equal(A, original)


class _NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"LAPACK {name} called")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_before_lapack(monkeypatch, bad):
    A = random_spd(np.random.default_rng(8), 3)
    c = scipy_factor(A.T)
    B = np.ones((3, 2))
    B[1, 1] = bad
    Abad = A.copy()
    Abad[0, 2] = bad
    monkeypatch.setattr(linalg, "_lapack", _NoLapack())
    cases = [
        (lambda: linalg.cho_factor(Abad), lambda: scipy.linalg.cho_factor(Abad, lower=True)),
        (lambda: linalg.cho_solve(c, B), lambda: scipy.linalg.cho_solve((c, True), B)),
        (lambda: linalg.solve_triangular(c, B),
         lambda: scipy.linalg.solve_triangular(c, B, lower=True)),
    ]
    for ours, theirs in cases:
        with pytest.raises(ValueError) as mine:
            ours()
        with pytest.raises(ValueError) as ref:
            theirs()
        assert str(mine.value) == str(ref.value)


def test_inner_on_the_triangular_route_matches_scipy():
    rng = np.random.default_rng(9)
    n, k, q = 12, 3, 5
    A = random_spd(rng, n)
    C = rng.standard_normal((k, q, n))
    factor = _SymFactor(A.copy(), True, "raise")
    assert factor.path == "cholesky"
    c = scipy_factor(A.T)
    W = scipy.linalg.solve_triangular(c, C.reshape(-1, n).T, lower=True).T.reshape(C.shape)
    assert np.array_equal(factor.inner(C.copy()), np.einsum("aqn,bqn->qab", W, W))
    f = rng.standard_normal(n)
    assert np.array_equal(factor.solve(f), scipy.linalg.cho_solve((c, True), f))


PIVOTED_FACTORS = [_NestedCholesky, _PivotedCholesky]


def _solve(factor, B):
    """The factor's solve: back(forward(B)) at its kept unknowns, 0 at the others."""
    X = np.zeros(B.shape)
    X[factor.order] = factor.back(factor.forward(B), len(factor.order))
    return X


@pytest.mark.parametrize("cls", PIVOTED_FACTORS)
def test_pivoted_factor_of_a_pd_matrix_keeps_every_pivot(cls):
    rng = np.random.default_rng(11)
    A = random_spd(rng, 9)
    B = rng.standard_normal((9, 3))
    factor = cls(A)
    assert sorted(factor.order) == list(range(9))
    assert np.allclose(_solve(factor, B), scipy.linalg.cho_solve((scipy_factor(A), True), B),
                       rtol=1e-12, atol=1e-12)
    if cls is _NestedCholesky:
        # in the order of A's rows it is the plain Cholesky factor
        assert factor.kept.all()
        W = scipy.linalg.solve_triangular(scipy_factor(A), B, lower=True)
        assert np.allclose(factor.forward(B), W, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cls", PIVOTED_FACTORS)
def test_pivoted_factor_skips_a_repeated_unknown(cls):
    # row and column 3 repeat row and column 1: its Schur pivot is 0
    rng = np.random.default_rng(12)
    A = random_spd(rng, 5)
    idx = [0, 1, 2, 1, 3, 4]
    A = A[np.ix_(idx, idx)]
    factor = cls(A)
    assert len(factor.order) == 5 and len({1, 3} & set(factor.order)) == 1
    if cls is _NestedCholesky:
        assert factor.kept.tolist() == [True, True, True, False, True, True]
    # the data repeat too, so the solve interpolates them
    B = A[:, :2]
    assert np.allclose(A @ _solve(factor, B), B, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("cls", PIVOTED_FACTORS)
def test_pivoted_factor_skips_a_component_with_zero_coefficient(cls):
    # the Gramian of k * diag(1, 0) in component-major order: the second
    # component's unknowns have zero rows and are all skipped
    K = random_spd(np.random.default_rng(13), 4)
    factor = cls(np.kron(np.diag([1.0, 0.0]), K))
    assert sorted(factor.order) == [0, 1, 2, 3]
    if cls is _NestedCholesky:
        assert factor.kept.tolist() == [True] * 4 + [False] * 4


@pytest.mark.parametrize("cls", PIVOTED_FACTORS)
def test_pivoted_factor_of_an_empty_matrix(cls):
    factor = cls(np.zeros((0, 0)))
    assert factor.order.shape == (0,)
    assert _solve(factor, np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("centers", [np.zeros((0, 2)), np.zeros((1, 2))])
def test_pivoted_route_without_pivots(centers):
    # a polynomial kernel is not strictly pd: its Gramian takes the pivoted
    # route, which keeps no pivot without centers or with the one center at
    # the origin, where the kernel vanishes; D is then k(x, x)
    k = SeparableKernel.create([(ScalarKernel.polynomial(2), np.eye(2))])
    pe = PowerEvaluator.build(k, PointSet(centers))
    assert pe.path == "pivoted_cholesky" and pe.factors[0][1].rank == 0
    b = np.ones(2 * len(centers))
    assert np.array_equal(pe.solve(b), np.zeros_like(b))
    Xq = np.array([[0.5, -0.25], [1.0, 2.0]])
    assert np.array_equal(pe.deficiency_many(Xq), k.diag_value(Xq))


def test_lapack_is_loaded_from_scipys_extension_file():
    path = linalg._flapack_path()
    assert path is not None and Path(path).name.startswith("_flapack")
    assert linalg._lapack.__file__ == path
    # loading again shares the routines and leaves scipy's module entry as it was
    before = sys.modules.get("scipy.linalg._flapack")
    assert before is not None
    assert linalg._load_flapack().dpotrf is linalg._lapack.dpotrf
    assert sys.modules.get("scipy.linalg._flapack") is before


def test_fallback_module_gives_the_same_results(monkeypatch):
    monkeypatch.setattr(linalg, "_flapack_path", lambda: None)
    fallback = linalg._load_flapack()
    assert fallback is scipy.linalg.lapack
    rng = np.random.default_rng(10)
    A = random_spd(rng, 8)
    b = rng.standard_normal((8, 2))
    direct = (linalg.cho_factor(A.T), linalg.cho_solve(scipy_factor(A.T), b),
              linalg.solve_triangular(scipy_factor(A.T), b))
    monkeypatch.setattr(linalg, "_lapack", fallback)
    via_fallback = (linalg.cho_factor(A.T), linalg.cho_solve(scipy_factor(A.T), b),
                    linalg.solve_triangular(scipy_factor(A.T), b))
    assert all(map(np.array_equal, direct, via_fallback))


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(linalg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_cli_does_not_import_scipy_linalg():
    env = _src_env()
    code = ("import sys, mvk.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy.linalg' or m.startswith('scipy.linalg.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# Records OPENBLAS_THREAD_TIMEOUT at the first import of numpy, then imports
# the CLI and reports the environment afterwards.
SPIN_LIMIT_PROBE = """
import importlib.abc, json, os, sys
assert "numpy" not in sys.modules
seen = []
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Probe())
before = dict(os.environ)
import mvk, mvk.cli
print(json.dumps({"at_numpy": seen, "unchanged": dict(os.environ) == before,
                  "after": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                  "mvk": mvk.BLAS_THREAD_TIMEOUT}))
"""


@pytest.mark.parametrize("preset", [None, "28"])
def test_numpy_loads_with_the_spin_limit(preset):
    env = _src_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    out = json.loads(subprocess.run([sys.executable, "-c", SPIN_LIMIT_PROBE], env=env,
                                    capture_output=True, text=True, check=True).stdout)
    expected = str(out["mvk"]) if preset is None else preset
    assert out["at_numpy"] == [expected]
    assert out["unchanged"]
    assert out["after"] == preset


def test_outputs_do_not_depend_on_the_spin_limit(tmp_path):
    # fit + eval --bounds under mvk's spin limit and under OpenBLAS's
    # default, 28: the limit decides only when an idle BLAS worker sleeps
    data = Path(__file__).parent / "data"
    env = _src_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    outputs = []
    for preset in (None, "28"):
        out = tmp_path / str(preset)
        out.mkdir()
        model, pred = out / "model.json", out / "pred.csv"
        for argv in (["fit", "--data", str(data / "coupled_train.csv"),
                      "--kernel", str(data / "coupled_kernel.json"), "--out-model", str(model)],
                     ["eval", "--model", str(model), "--data", str(data / "coupled_query.csv"),
                      "--out-csv", str(pred), "--bounds", "--residual-norm", "0.5"]):
            subprocess.run([sys.executable, "-m", "mvk.cli", *argv], check=True, capture_output=True,
                           env=env if preset is None else dict(env, OPENBLAS_THREAD_TIMEOUT=preset))
        outputs.append((model.read_bytes(), pred.read_bytes()))
    assert outputs[0] == outputs[1]
