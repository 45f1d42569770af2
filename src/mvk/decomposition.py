"""Structural analysis of separable kernel decompositions.

Covers the uncoupledness rank arithmetic, linear-independence certificates
for coefficients and scalar kernels, simultaneous diagonalization of
commuting symmetric families, and recovery of the orthogonal-coefficient
decomposition from sampled kernel values.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import SeparableKernel
from .linalg import EIG_TOL, RANK_TOL, rank_of, sym_eig, symmetrize

# Tolerance for grouping proportional scalar evaluation vectors.
PROP_TOL = 1e-8
# Samples used by the (heuristic) kernel linear-independence certificate.
N_INDEPENDENCE_SAMPLES = 200
# Seed of the generic convex weights in simultaneous_diagonalize.
COMBINATION_SEED = 12345
# Relative tolerance for two decompositions agreeing on sampled values.
MATCH_TOL = 1e-8


class NotCommutingError(RuntimeError):
    """Matrix family fails the pairwise commutation check."""


class AmbiguousGroupingError(RuntimeError):
    """Proportionality grouping has a borderline pair."""


@dataclass(frozen=True)
class DecompositionReport:
    p: int
    ranks: tuple
    rank_sum: int
    rank_of_sum: int
    uncoupled: bool
    q_linearly_independent: bool
    kernels_linearly_independent: bool
    orthogonal_products: bool

    def lines(self):
        return [
            f"length p              : {self.p}",
            f"per-term ranks        : {list(self.ranks)}",
            f"sum of ranks          : {self.rank_sum}",
            f"rank of coefficient sum: {self.rank_of_sum}",
            f"uncoupled             : {self.uncoupled}",
            f"coefficients lin indep: {self.q_linearly_independent}",
            f"scalar kernels lin indep (sampled): {self.kernels_linearly_independent}",
            f"orthogonal products   : {self.orthogonal_products}",
        ]


def _sample_pairs(d, n_samples, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d))
        for _ in range(n_samples)
    ]


def orthogonal_products(Qs):
    """True iff ||Q_i Q_j|| <= EIG_TOL * max(1, ||Q_i|| ||Q_j||) for all i != j."""
    return all(
        np.linalg.norm(Qs[i] @ Qs[j]) <= EIG_TOL * max(
            1.0, np.linalg.norm(Qs[i]) * np.linalg.norm(Qs[j])
        )
        for i in range(len(Qs))
        for j in range(len(Qs))
        if i != j
    )


def analyze(kernel: SeparableKernel, input_dim=2, seed=0) -> DecompositionReport:
    """Rank arithmetic and independence certificates for a decomposition.

    The scalar-kernel independence test is by sampling and can only refute
    or probabilistically support independence.
    """
    Qs = kernel.coefficients()
    ranks = tuple(rank_of(Q) for Q in Qs)
    rank_sum = int(sum(ranks))
    rank_of_sum = rank_of(sum(Qs))
    uncoupled = rank_of_sum == rank_sum

    vec_mat = np.column_stack([Q.reshape(-1) for Q in Qs])
    sv = np.linalg.svd(vec_mat, compute_uv=False)
    q_indep = int(np.count_nonzero(sv > RANK_TOL * max(sv.max(), 1e-300))) == kernel.p

    pairs = _sample_pairs(input_dim, N_INDEPENDENCE_SAMPLES, seed)
    evals = np.array(
        [[ks(x, y) for ks, _ in kernel.terms] for x, y in pairs]
    )
    sv = np.linalg.svd(evals, compute_uv=False)
    k_indep = int(np.count_nonzero(sv > RANK_TOL * max(sv.max(), 1e-300))) == kernel.p

    return DecompositionReport(
        p=kernel.p,
        ranks=ranks,
        rank_sum=rank_sum,
        rank_of_sum=rank_of_sum,
        uncoupled=uncoupled,
        q_linearly_independent=q_indep,
        kernels_linearly_independent=k_indep,
        orthogonal_products=orthogonal_products(Qs),
    )


def commuting_family_check(mats):
    """True iff every pair satisfies ||AB - BA||_F <= EIG_TOL ||A|| ||B||."""
    mats = [symmetrize(A) for A in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            A, B = mats[i], mats[j]
            scale = max(1e-300, np.linalg.norm(A) * np.linalg.norm(B))
            if np.linalg.norm(A @ B - B @ A) > EIG_TOL * scale:
                return False
    return True


def _cluster(values, max_gap):
    """Group indices of a descending value sequence by gap <= max_gap."""
    groups = []
    cur = [0]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= max_gap:
            cur.append(i)
        else:
            groups.append(cur)
            cur = [i]
    groups.append(cur)
    return groups


def simultaneous_diagonalize(mats):
    """Orthogonal P with P^T A_j P diagonal for all commuting A_j.

    A random convex combination with generic fixed-seed weights splits
    most eigenspaces at once; clusters that remain degenerate are refined
    by recursing on the next matrix restricted to the cluster subspace.
    """
    mats = [symmetrize(A) for A in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    m = mats[0].shape[0]
    rng = np.random.default_rng(COMBINATION_SEED)
    w = rng.uniform(0.5, 1.5, len(mats))
    combo = sum(wi * A for wi, A in zip(w / w.sum(), mats))
    family = [combo] + mats

    def refine(idx, basis):
        if basis.shape[1] <= 1 or idx >= len(family):
            return basis
        A = basis.T @ family[idx] @ basis
        scale = max(1.0, float(np.max(np.abs(A))))
        vals, U = sym_eig(A)
        cols = []
        for grp in _cluster(vals, 10 * EIG_TOL * scale):
            cols.append(refine(idx + 1, basis @ U[:, grp]))
        return np.column_stack(cols)

    P = refine(0, np.eye(m))

    worst = None
    for j, A in enumerate(mats):
        T = P.T @ A @ P
        off = T - np.diag(np.diag(T))
        r = np.linalg.norm(off) / max(1.0, np.linalg.norm(A))
        if worst is None or r > worst[1]:
            worst = (j, r)
    if worst is not None and worst[1] > 100 * EIG_TOL:
        raise NotCommutingError(
            f"family not simultaneously diagonalizable; worst off-diagonal "
            f"residual {worst[1]:.3e} on matrix {worst[0]}"
        )
    return P


@dataclass(frozen=True)
class RecoveredDecomposition:
    """Orthogonal-coefficient decomposition read off sampled kernel values."""

    P: np.ndarray                 # orthogonal m x m
    groups: tuple                 # partition of diagonal indices
    coeffs: tuple                 # recovered Q-hat per group
    scalar_samples: tuple         # per group: representative values on the samples
    sample_pairs: tuple

    def term_signatures(self):
        return [
            np.asarray(ev)[:, None, None] * Q
            for ev, Q in zip(self.scalar_samples, self.coeffs)
        ]


def recover_uncoupled(kernel, sample_pairs):
    """Recover the orthogonal decomposition of a value-commuting kernel.

    The sampled kernel values must be value-symmetric (k(x, y) = k(y, x))
    and commute pairwise.  Diagonalizing the sampled family exposes scalar
    functions on the diagonal; indices with proportional evaluation
    vectors are merged into one term.
    """
    sample_pairs = [tuple(map(np.asarray, pr)) for pr in sample_pairs]
    values = [kernel(x, y) for x, y in sample_pairs]
    for (x, y), V in zip(sample_pairs, values):
        W = kernel(y, x)
        if np.linalg.norm(V - W) > EIG_TOL * max(1.0, np.linalg.norm(V)):
            raise ValueError("kernel is not value-symmetric on the samples")
    if not commuting_family_check(values):
        raise NotCommutingError("sampled kernel values do not commute pairwise")
    P = simultaneous_diagonalize(values)
    m = P.shape[0]
    # E[l, j]: j-th diagonal entry of P^T k(x_l, y_l) P
    E = np.array([np.diag(P.T @ V @ P) for V in values])

    norms = np.linalg.norm(E, axis=0)
    scale = max(norms.max(), 1e-300)
    unit = E / np.maximum(norms, 1e-300 * scale)

    assigned = [None] * m
    groups = []
    for j in range(m):
        if assigned[j] is not None:
            continue
        grp = [j]
        assigned[j] = len(groups)
        for j2 in range(j + 1, m):
            if assigned[j2] is not None:
                continue
            # residual of j2 against the line spanned by j, computed by
            # subtraction (sqrt(1 - align^2) cannot resolve below sqrt(eps))
            perp = unit[:, j2] - (unit[:, j] @ unit[:, j2]) * unit[:, j]
            resid = float(np.linalg.norm(perp))
            if resid <= PROP_TOL:
                grp.append(j2)
                assigned[j2] = len(groups)
            elif resid <= 100 * PROP_TOL:
                raise AmbiguousGroupingError(
                    f"diagonal functions {j} and {j2} are borderline "
                    f"proportional (residual {resid:.3e})"
                )
        groups.append(grp)

    coeffs, scalars = [], []
    for grp in groups:
        rep = grp[0]
        ev = E[:, rep]
        denom = float(ev @ ev)
        Q = np.zeros((m, m))
        for j in grp:
            a = float(E[:, j] @ ev) / denom
            v = P[:, j]
            Q += a * np.outer(v, v)
        coeffs.append(symmetrize(Q))
        scalars.append(ev.copy())
    return RecoveredDecomposition(
        P=P,
        groups=tuple(tuple(g) for g in groups),
        coeffs=tuple(coeffs),
        scalar_samples=tuple(scalars),
        sample_pairs=tuple(sample_pairs),
    )


def _signatures(obj, sample_pairs):
    if isinstance(obj, RecoveredDecomposition):
        return obj.term_signatures()
    evals = np.array([[ks(x, y) for ks, _ in obj.terms] for x, y in sample_pairs])
    return [evals[:, i, None, None] * Q for i, (_, Q) in enumerate(obj.terms)]


def decomposition_equivalent(a, b, sample_pairs):
    """Do two decompositions represent the same kernel on the samples?

    Returns True iff the summed kernel values agree on every sample pair.
    Per-term matching up to permutation and scaling is available through
    :func:`match_terms`.
    """
    sample_pairs = [tuple(map(np.asarray, pr)) for pr in sample_pairs]
    Sa = sum(_signatures(a, sample_pairs))
    Sb = sum(_signatures(b, sample_pairs))
    scale = max(1.0, float(np.linalg.norm(Sa)))
    return bool(np.linalg.norm(Sa - Sb) <= MATCH_TOL * scale)


def match_terms(a, b, sample_pairs):
    """Greedy bijection between term products k_i Q_i up to scaling.

    Returns the pairing as a list of (i, j) index pairs, or None if the
    lengths differ or some term has no match within tolerance.
    """
    sample_pairs = [tuple(map(np.asarray, pr)) for pr in sample_pairs]
    Ta = _signatures(a, sample_pairs)
    Tb = _signatures(b, sample_pairs)
    if len(Ta) != len(Tb):
        return None

    def unit(T):
        n = np.linalg.norm(T)
        if n == 0:
            raise ValueError("zero term product in decomposition")
        return T / n

    Ua = [unit(T) for T in Ta]
    Ub = [unit(T) for T in Tb]
    free = list(range(len(Ub)))
    pairing = []
    for i, U in enumerate(Ua):
        dists = [
            min(np.linalg.norm(U - Ub[j]), np.linalg.norm(U + Ub[j])) for j in free
        ]
        order = np.argsort(dists)
        best = order[0]
        if dists[best] > MATCH_TOL:
            return None
        if len(order) > 1 and abs(dists[order[1]] - dists[best]) <= MATCH_TOL:
            raise AmbiguousGroupingError(
                f"term {i} matches two partners equally well"
            )
        pairing.append((i, free[best]))
        free.pop(best)
    return pairing
