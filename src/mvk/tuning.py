"""Shape-parameter selection by exhaustive validation grid search.

Candidates live on a logarithmic grid; terms may share a shape through tie
groups.  The objective is the maximum Euclidean interpolation error over a
validation point set; the argmin is taken in grid order with first-found
tie breaking.

Every candidate is scored by fitting it with :func:`fit` (Cholesky, with
the LU fallback for Gramians that fail to factor); a candidate whose fit
raises counts as failed.  When the coefficients split by congruence
(:func:`~mvk.decomposition.congruence_split`, the split ``fit`` uses)
into groups that own their terms and have orthogonal ranges,
interpolation splits exactly into one independent problem per group, on
the range of the group's coefficients.  Each group is then fitted once
per grid value of its own tie groups, and the squared validation
residuals of the groups are summed by broadcasting to score every joint
candidate.  Any other template, and one whose groups all depend on every
tie group, is one block whose candidates are all fitted in full.

Candidates whose errors differ only at roundoff level are ordered by that
roundoff, so on a plateau of the objective the first-found argmin can
move under perturbations of the inputs at the level of machine epsilon.
"""

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .decomposition import congruence_split, orthogonal_products
from .interpolation import fit
from .kernels import PointSet, ScalarKernel, SeparableKernel
from .linalg import sym_eig

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


def select_shapes(template: KernelTemplate, target, cfg: GridSearchConfig):
    """Exhaustive grid search minimizing the max validation error.

    ``target`` is a callable mapping a (n, d) point array to (n, m)
    values.  Returns a :class:`GridSearchResult`; the per-candidate table
    holds the group shapes and the max validation error per candidate.
    """
    grid = cfg.grid()
    cfg.centers.assert_distinct()
    group_ids = sorted(set(template.groups))
    n_cand = len(grid) ** len(group_ids)
    if n_cand > MAX_CANDIDATES:
        raise GridSearchError(
            f"grid has {n_cand} candidates, above the cap {MAX_CANDIDATES}"
        )
    fc = np.asarray(target(cfg.centers.points), dtype=np.float64)
    fv = np.asarray(target(cfg.validation.points), dtype=np.float64)

    # the squared residuals of independent blocks add; each block's array
    # is broadcast along the groups it does not depend on
    total = np.zeros((len(grid),) * len(group_ids) + (cfg.validation.n,))
    for block, U in _blocks(template):
        ids, sq = _block_sq_residuals(block, grid, cfg, fc @ U, fv @ U)
        axes = [len(grid) if g in ids else 1 for g in group_ids]
        total += sq.reshape(axes + [cfg.validation.n])
    errors = np.sqrt(np.max(total, axis=-1))

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


def _blocks(template):
    """The blocks (template, U) whose squared residuals add up.

    The groups of :func:`~mvk.decomposition.congruence_split` give the
    blocks when each term belongs to one group and the groups' coefficient
    sums M_g have orthogonal products (equivalently, their columns of T^-1
    are orthogonal): a fit then splits into one problem per group on the
    range of M_g, and the squared residuals of these problems add up.
    Block g is the template of its own terms, with coefficients U^T Q_i U,
    fitted to the data projected onto the orthonormal range U of M_g; it
    reads no other term, so a block fits the same whatever the rest of the
    template is.  The template splits only when some block depends on
    fewer tie groups than the template; otherwise it is one block, U = I.
    """
    one = [(template, np.eye(template.coeffs[0].shape[0]))]
    split = congruence_split(template.coeffs)
    if split is None or np.any(np.count_nonzero(split.lam, axis=1) != 1):
        return one
    terms = [np.flatnonzero(col) for col in split.lam.T]
    sums = [sum(template.coeffs[i] for i in t) for t in terms]
    if (all(len({template.groups[i] for i in t}) == template.n_groups for t in terms)
            or not orthogonal_products(sums)):
        return one
    blocks = []
    for J, t, M in zip(split.groups, terms, sums):
        U = sym_eig(M)[1][:, :len(J)]
        blocks.append((KernelTemplate(tuple(U.T @ template.coeffs[i] @ U for i in t),
                                      tuple(template.groups[i] for i in t)), U))
    return blocks


def _block_sq_residuals(template, grid, cfg, fc, fv):
    """Squared validation residuals of every candidate of one block.

    Returns the block's sorted group ids and an array of shape
    ``(len(grid),) * n_groups + (n_validation,)`` in grid-index order;
    entries of failed fits are NaN.
    """
    ids = sorted(set(template.groups))
    out = np.full((len(grid),) * len(ids) + (cfg.validation.n,), np.nan)
    n_cand = len(grid) ** len(ids)
    for c, combo in enumerate(itertools.product(range(len(grid)), repeat=len(ids))):
        kernel = template.instantiate({g: grid[i] for g, i in zip(ids, combo)})
        try:
            s = fit(kernel, cfg.centers, fc, lu_fallback=True)
        except np.linalg.LinAlgError:
            continue
        out[combo] = np.sum((s.evaluate_many(cfg.validation.points) - fv) ** 2, axis=1)
        if (c + 1) % 500 == 0:
            log.info("grid search: %d/%d candidates of a block", c + 1, n_cand)
    return ids, out
