import itertools

import numpy as np
import pytest

from mvk.kernels import PointSet
from mvk.tuning import (
    GridSearchConfig,
    GridSearchError,
    KernelTemplate,
    _bruteforce_errors,
    _decoupled_errors,
    _orthogonal_directions,
    covariance_eigenbasis,
    select_shapes,
)


def target(X):
    x = np.asarray(X).reshape(-1)
    return np.stack([np.sin(2 * x), np.cos(x)], axis=1)


def make_cfg(grid_size=6):
    rng = np.random.default_rng(0)
    return GridSearchConfig(
        lo=0.2,
        hi=20.0,
        grid_size=grid_size,
        validation=PointSet(rng.uniform(-1, 1, (15, 1))),
        centers=PointSet(np.linspace(-1, 1, 9)[:, None]),
    )


def diagonal_template():
    return KernelTemplate(
        coeffs=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), groups=(0, 1)
    )


def coupled_template():
    return KernelTemplate(
        coeffs=(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2)), groups=(0, 1)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        GridSearchConfig(0.0, 1.0, 5, PointSet([[0.0]]), PointSet([[0.0]]))
    with pytest.raises(ValueError):
        GridSearchConfig(1.0, 0.5, 5, PointSet([[0.0]]), PointSet([[0.0]]))
    with pytest.raises(ValueError):
        GridSearchConfig(0.1, 1.0, 1, PointSet([[0.0]]), PointSet([[0.0]]))
    g = make_cfg().grid()
    assert len(g) == 6 and g[0] == pytest.approx(0.2) and g[-1] == pytest.approx(20.0)


def test_template_validation_and_instantiate():
    with pytest.raises(ValueError):
        KernelTemplate(coeffs=(np.eye(2),), groups=(0, 1))
    tpl = KernelTemplate(coeffs=(np.eye(2), np.eye(2)), groups=(0, 0))
    assert tpl.n_groups == 1
    k = tpl.instantiate({0: 1.5})
    assert k.p == 2
    assert all(ks.shape == 1.5 for ks in k.scalar_kernels())


def test_orthogonal_directions_detection():
    dirs = _orthogonal_directions(diagonal_template())
    assert dirs is not None and len(dirs) == 2
    assert _orthogonal_directions(coupled_template()) is None
    # rank-deficient coefficient sum: no exact decoupling
    tpl = KernelTemplate(coeffs=(np.diag([1.0, 0.0]),), groups=(0,))
    assert _orthogonal_directions(tpl) is None


def test_decoupled_path_matches_bruteforce():
    cfg = make_cfg(grid_size=5)
    tpl = diagonal_template()
    grid = cfg.grid()
    fc = target(cfg.centers.points)
    fv = target(cfg.validation.points)
    dirs = _orthogonal_directions(tpl)
    fast = _decoupled_errors(dirs, [0, 1], grid, cfg, fc, fv)
    slow = _bruteforce_errors(tpl, [0, 1], grid, cfg, fc, fv)
    # entries with tiny errors sit on ill-conditioned Gramians, where the
    # scalar and block solvers round differently; tolerance reflects that
    assert np.allclose(fast, slow, rtol=2e-3, atol=1e-10)
    assert np.unravel_index(np.argmin(fast), fast.shape) == np.unravel_index(
        np.argmin(slow), slow.shape
    )


def test_select_shapes_agrees_across_paths():
    cfg = make_cfg(grid_size=5)
    fast = select_shapes(diagonal_template(), target, cfg)
    slow = select_shapes(coupled_template(), target, cfg)
    assert fast.n_candidates == 25 == slow.n_candidates
    assert fast.table.shape == (25, 3)
    assert set(fast.shapes) == {0, 1}
    # the argmin row of the table is the reported selection
    row = fast.table[fast.candidate_index]
    assert row[-1] == pytest.approx(fast.error)
    assert row[0] == pytest.approx(fast.shapes[0])
    assert row[1] == pytest.approx(fast.shapes[1])
    # rows follow itertools.product order over the grid indices
    grid = cfg.grid()
    errs = _decoupled_errors(
        _orthogonal_directions(diagonal_template()), [0, 1], grid, cfg,
        target(cfg.centers.points), target(cfg.validation.points),
    )
    expected = [
        [grid[i], grid[j], errs[i, j]]
        for i, j in itertools.product(range(len(grid)), repeat=2)
    ]
    assert np.array_equal(fast.table, expected, equal_nan=True)


def test_select_shapes_deterministic():
    cfg = make_cfg()
    a = select_shapes(diagonal_template(), target, cfg)
    b = select_shapes(diagonal_template(), target, cfg)
    assert a.shapes == b.shapes and a.error == b.error
    assert np.array_equal(a.table, b.table)


def test_select_shapes_candidate_cap():
    cfg = make_cfg(grid_size=6)
    with pytest.raises(GridSearchError):
        select_shapes(diagonal_template(), target, cfg, max_candidates=10)


def test_tied_groups_share_shape():
    cfg = make_cfg()
    tpl = KernelTemplate(
        coeffs=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), groups=(0, 0)
    )
    res = select_shapes(tpl, target, cfg)
    assert set(res.shapes) == {0}
    assert res.n_candidates == cfg.grid_size


def test_covariance_eigenbasis():
    rng = np.random.default_rng(1)
    S = rng.standard_normal((500, 3)) @ np.diag([0.1, 1.0, 3.0])
    mu, w, V = covariance_eigenbasis(S)
    assert np.all(np.diff(w) >= 0)  # ascending
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)
    C = np.cov(S.T)
    assert np.allclose(V.T @ C @ V, np.diag(w), atol=1e-10 * w.max())
    assert np.allclose(mu, S.mean(axis=0))
    with pytest.raises(ValueError):
        covariance_eigenbasis(S[:1])
