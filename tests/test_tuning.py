import itertools

import numpy as np
import pytest

from mvk import tuning
from mvk.builtin import covariance_eigenbasis
from mvk.decomposition import uncoupled_split
from mvk.interpolation import fit
from mvk.kernels import PointSet
from mvk.tuning import (
    GridSearchConfig,
    GridSearchError,
    KernelTemplate,
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
    assert all(ks.shape == 1.5 for ks, _ in k.terms)


def reference_table(template, cfg):
    """Fit every candidate's full kernel; rows in itertools.product order."""
    grid = cfg.grid()
    groups = sorted(set(template.groups))
    fc = target(cfg.centers.points)
    fv = target(cfg.validation.points)
    rows = []
    for combo in itertools.product(grid, repeat=len(groups)):
        kernel = template.instantiate(dict(zip(groups, combo)))
        try:
            s = fit(kernel, cfg.centers, fc, lu_fallback=True)
        except np.linalg.LinAlgError:
            rows.append([*combo, np.nan])
            continue
        err = np.max(np.linalg.norm(s.evaluate_many(cfg.validation.points) - fv, axis=1))
        rows.append([*combo, err])
    return np.array(rows)


def test_block_detection():
    # select_shapes splits a template into per-term blocks exactly when
    # uncoupled_split, the test fit shares, finds the split
    (U0, w0), (U1, w1) = uncoupled_split(diagonal_template().coeffs)
    assert np.array_equal(np.abs(U0), [[1.0], [0.0]])
    assert np.array_equal(np.abs(U1), [[0.0], [1.0]])
    assert w0.tolist() == w1.tolist() == [1.0]
    assert uncoupled_split(coupled_template().coeffs) is None
    # rank-deficient coefficient sum: no exact split, one block
    assert uncoupled_split([np.diag([1.0, 0.0])]) is None


def test_coupled_table_equals_reference():
    cfg = make_cfg(grid_size=5)
    res = select_shapes(coupled_template(), target, cfg)
    assert np.array_equal(res.table, reference_table(coupled_template(), cfg),
                          equal_nan=True)


def test_split_table_matches_reference():
    cfg = make_cfg(grid_size=5)
    res = select_shapes(diagonal_template(), target, cfg)
    ref = reference_table(diagonal_template(), cfg)
    # grid values and their product order are exact
    assert np.array_equal(res.table[:, :2], ref[:, :2])
    # entries with tiny errors sit on ill-conditioned Gramians, where the
    # per-term and full-kernel fits round differently
    assert np.allclose(res.table[:, 2], ref[:, 2], rtol=2e-3, atol=1e-10)
    assert res.candidate_index == np.nanargmin(ref[:, 2])


def test_select_shapes_result_fields():
    cfg = make_cfg(grid_size=5)
    res = select_shapes(diagonal_template(), target, cfg)
    assert res.n_candidates == 25 and res.table.shape == (25, 3)
    assert set(res.shapes) == {0, 1}
    # the argmin row of the table is the reported selection
    row = res.table[res.candidate_index]
    assert row[-1] == res.error
    assert row[0] == res.shapes[0] and row[1] == res.shapes[1]
    # rows follow itertools.product order over the grid
    grid = cfg.grid()
    assert np.array_equal(res.table[:, :2], list(itertools.product(grid, repeat=2)))


def test_select_shapes_deterministic():
    cfg = make_cfg()
    a = select_shapes(diagonal_template(), target, cfg)
    b = select_shapes(diagonal_template(), target, cfg)
    assert a.shapes == b.shapes and a.error == b.error
    assert np.array_equal(a.table, b.table)


def test_select_shapes_candidate_cap(monkeypatch):
    cfg = make_cfg(grid_size=6)
    monkeypatch.setattr(tuning, "MAX_CANDIDATES", 10)
    with pytest.raises(GridSearchError):
        select_shapes(diagonal_template(), target, cfg)


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
