"""Shape-parameter selection by exhaustive validation grid search.

Candidates live on a logarithmic grid; terms may share a shape through tie
groups.  The objective is the maximum Euclidean interpolation error over a
validation point set; the argmin is taken in grid order with first-found
tie breaking.

For kernels whose coefficient matrices have pairwise orthogonal products,
the interpolation problem decouples exactly into scalar problems along the
joint eigendirections of the coefficients.  The search exploits this: the
per-direction residuals are precomputed once per grid value and joint
candidates are scored by broadcasting.  In exact arithmetic this equals
fitting every candidate from scratch; in floating point the two paths
differ.  The decoupled path solves each scalar Gramian by LU and scores
every candidate, however ill-conditioned, while the generic path fits
through Cholesky and marks a candidate as failed when the factorization
breaks down.  On example1's k3 (2,500 candidates) the generic path marks
1,905 candidates as failed and the decoupled path none.

Candidates whose errors differ only at roundoff level are ordered by that
roundoff, so on a plateau of the objective the first-found argmin can
move under perturbations of the inputs at the level of machine epsilon.
"""

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .decomposition import orthogonal_products
from .interpolation import ConditioningError, fit
from .kernels import PointSet, ScalarKernel, SeparableKernel
from .linalg import EIG_TOL, sym_eig

log = logging.getLogger(__name__)

MAX_CANDIDATES = 500_000


class GridSearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSearchConfig:
    lo: float
    hi: float
    grid_size: int
    validation: PointSet
    centers: PointSet

    def __post_init__(self):
        if not (self.lo > 0 and self.hi > self.lo and self.grid_size >= 2):
            raise ValueError("need 0 < lo < hi and grid_size >= 2")

    def grid(self):
        return np.logspace(np.log10(self.lo), np.log10(self.hi), self.grid_size)


@dataclass(frozen=True)
class KernelTemplate:
    """Gaussian kernel family with free shape slots.

    ``coeffs`` are the fixed coefficient matrices; ``groups[i]`` names the
    tie group of term i.  Terms in the same group share one shape value.
    """

    coeffs: tuple
    groups: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(self.groups):
            raise ValueError("one group id per coefficient")

    @property
    def n_groups(self):
        return len(set(self.groups))

    def instantiate(self, group_shapes) -> SeparableKernel:
        terms = [
            (ScalarKernel.gaussian(group_shapes[g]), Q)
            for Q, g in zip(self.coeffs, self.groups)
        ]
        return SeparableKernel.create(terms)


@dataclass(frozen=True)
class GridSearchResult:
    shapes: dict                 # group id -> selected shape
    error: float
    candidate_index: int
    n_candidates: int
    n_failed: int
    table: np.ndarray = field(repr=False)  # (n_candidates, n_groups + 1)


def _orthogonal_directions(template: KernelTemplate):
    """Joint eigendirections if coefficient products are pairwise zero.

    Returns a list of (unit direction, group id) or None when the fast
    decoupled path does not apply.
    """
    Qs = [np.asarray(Q, float) for Q in template.coeffs]
    m = Qs[0].shape[0]
    if not orthogonal_products(Qs):
        return None
    dirs = []
    for Q, g in zip(Qs, template.groups):
        w, V = sym_eig(Q)
        for lam, v in zip(w, V.T):
            if lam > EIG_TOL * max(1.0, abs(w[0])):
                dirs.append((v, g))
    if len(dirs) != m:
        return None  # coefficient sum is rank deficient; no exact decoupling
    return dirs


def _scalar_residuals(grid, X, Xv, g, gv):
    """Validation residuals of scalar Gaussian interpolation per grid value.

    Returns an array of shape (len(grid), len(Xv)); rows of failed fits
    are NaN.
    """
    out = np.full((len(grid), len(gv)), np.nan)
    for j, eps in enumerate(grid):
        ks = ScalarKernel.gaussian(eps)
        K = ks.cross(X, X)
        try:
            a = np.linalg.solve(K, g)
        except np.linalg.LinAlgError:
            continue
        out[j] = ks.cross(Xv, X) @ a - gv
    return out


def select_shapes(template: KernelTemplate, target, cfg: GridSearchConfig,
                  max_candidates=MAX_CANDIDATES):
    """Exhaustive grid search minimizing the max validation error.

    ``target`` is a callable mapping a (n, d) point array to (n, m)
    values.  Returns a :class:`GridSearchResult`; the per-candidate table
    holds the group shapes and the max validation error per candidate.
    """
    grid = cfg.grid()
    cfg.centers.assert_distinct()
    group_ids = sorted(set(template.groups))
    n_cand = len(grid) ** len(group_ids)
    if n_cand > max_candidates:
        raise GridSearchError(
            f"grid has {n_cand} candidates, above the cap {max_candidates}"
        )
    fc = np.asarray(target(cfg.centers.points), dtype=np.float64)
    fv = np.asarray(target(cfg.validation.points), dtype=np.float64)

    dirs = _orthogonal_directions(template)
    if dirs is not None:
        errors = _decoupled_errors(dirs, group_ids, grid, cfg, fc, fv)
    else:
        errors = _bruteforce_errors(template, group_ids, grid, cfg, fc, fv)

    flat = errors.reshape(-1)
    n_failed = int(np.count_nonzero(~np.isfinite(flat)))
    if n_failed == len(flat):
        raise GridSearchError(f"all {len(flat)} candidates failed to fit")
    best = int(np.nanargmin(np.where(np.isfinite(flat), flat, np.nan)))
    idx = np.unravel_index(best, errors.shape)
    shapes = {g: float(grid[i]) for g, i in zip(group_ids, idx)}

    # row c holds the grid values of the c-th combination in C order,
    # which is itertools.product order
    combos = np.indices(errors.shape).reshape(errors.ndim, -1).T
    table = np.column_stack([grid[combos], flat])
    return GridSearchResult(
        shapes=shapes,
        error=float(flat[best]),
        candidate_index=best,
        n_candidates=len(flat),
        n_failed=n_failed,
        table=table,
    )


def _decoupled_errors(dirs, group_ids, grid, cfg, fc, fv):
    """Joint objective via per-direction scalar residual broadcasting."""
    X, Xv = cfg.centers.points, cfg.validation.points
    res = []
    for v, g in dirs:
        R = _scalar_residuals(grid, X, Xv, fc @ v, fv @ v)
        res.append((R, group_ids.index(g)))
    shape = [len(grid)] * len(group_ids)
    total = np.zeros(shape + [len(Xv)])
    for R, axis in res:
        expand = [None] * len(group_ids) + [slice(None)]
        expand[axis] = slice(None)
        total = total + (R**2)[tuple(expand)]
    return np.sqrt(np.max(total, axis=-1))


def _bruteforce_errors(template, group_ids, grid, cfg, fc, fv):
    """Fit every candidate kernel directly (generic slow path)."""
    shape = [len(grid)] * len(group_ids)
    errors = np.full(shape, np.nan)
    n_total = int(np.prod(shape))
    for c, combo in enumerate(itertools.product(range(len(grid)), repeat=len(group_ids))):
        shapes = {g: grid[i] for g, i in zip(group_ids, combo)}
        try:
            kernel = template.instantiate(shapes)
            s = fit(kernel, cfg.centers, fc)
        except (ConditioningError, np.linalg.LinAlgError):
            continue
        pred = s.evaluate_many(cfg.validation.points)
        errors[np.unravel_index(c, shape)] = np.max(
            np.linalg.norm(pred - fv, axis=1)
        )
        if (c + 1) % 500 == 0:
            log.info("grid search: %d/%d candidates", c + 1, n_total)
    return errors


def covariance_eigenbasis(samples):
    """Mean, ascending eigenvalues and eigenvectors of the sample covariance.

    Uses the unbiased divisor (count - 1).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mu = samples.mean(axis=0)
    centered = samples - mu
    C = centered.T @ centered / (samples.shape[0] - 1)
    w, V = sym_eig(C)
    return mu, w[::-1].copy(), V[:, ::-1].copy()
