"""The directional power-function and a-priori bounds.

With X a set of centers, the reproducing kernel of the span of kernel
translates is

    k_N(x, y) = k(x, X) k(X, X)^+ k(X, y)

and the squared directional power-function at x in direction alpha is
alpha^T (k(x, x) - k_N(x, x)) alpha.  The deficiency matrix
D(x) = k(x, x) - k_N(x, x) also drives the pointwise error bounds in the
2-, infinity- and 1-norm.

``PowerEvaluator`` factors the Gramian G = k(X, X) once, block by block
through the split ``fit`` uses (``interpolation._blocks``), each block
through ``linalg._SymFactor``, which picks the route.  When the
coefficients split by congruence, T Q_i T^T = diag(lam_i), the blocks are
the scalar Gramians K_g of the distinct kernels sum_i lam_ig k_i and

    D(x) = T^-1 diag(P_g(x)^2) T^-T,

with P_g the scalar power function of K_g: the paper's reduction of D to
scalar power functions, which holds beyond uncoupled kernels.  Any other
kernel is one block, G itself with its unknowns in the component-major
order of ``SeparableKernel._blocks``; ``deficiency_many`` takes the cross
matrix in the same order.  ``solve`` maps its right-hand sides into the
blocks and back through ``fit``'s routine, ``interpolation._block_solve``,
so on the same factors it gives ``fit``'s coefficients bit for bit.  For a
strictly positive definite kernel a Cholesky factor K = L L^T gives
c^T K^-1 c = w^T w with w = L^{-1} c, with no eigenvalue cutoff.
Otherwise a diagonally pivoted Cholesky (``linalg._PivotedCholesky``)
gives the same over the unknowns it keeps, skipping those whose Schur
pivots vanish; a strictly pd kernel whose block fails Cholesky takes it
too, with a warning.

``PowerEvaluator.nested`` factors each scalar block once over a sequence
of centers, by a Cholesky that skips the centers whose pivots vanish
(``linalg._NestedCholesky``), and ``prefixes`` walks the nested prefixes
X_1, ..., X_n from it: each kept center adds one Newton basis function
(Mueller and Schaback 2009), so P_g^2 falls by its square and the
interpolant's predictions gain its multiple, and each prefix's
coefficients come from the leading block of the factor.  ``mvk example2``
takes this route and evaluates no interpolant.

``PowerEvaluator.deficiency_many`` is the one routine that computes D(x)
from a set of centers, and ``prefixes`` assembles each prefix's D from its
P_g^2 as ``deficiency_many`` does; the power-function, the bound factors,
the error bounds and the scalar power-function (the m = 1 kernel
``k_s * [[1]]``) all read ``deficiency_many``.
"""

from dataclasses import dataclass

import numpy as np

from .decomposition import CongruenceSplit
from .interpolation import Interpolant, _block_solve, _blocks, _path, _split
from .kernels import PointSet, ScalarKernel, SeparableKernel
from .linalg import PSD_TOL, _NestedCholesky, _SymFactor
from .linalg import pinv_sym  # noqa: F401  perfbench's tracer rebinds this name


class PowerBreakdownError(RuntimeError):
    """Power-function value negative beyond the PSD tolerance."""


@dataclass(frozen=True)
class PowerEvaluator:
    """The Gramian of a kernel on a set of centers, factored for power queries.

    ``split`` is the congruence split the blocks follow, as in ``fit``, or
    None for the one block Gramian; ``factors`` holds one (J, factor) pair
    per block, J the block's directions as ``interpolation._blocks`` yields
    them: the groups of ``split`` in order, or ``slice(None)`` for the one
    block Gramian.  ``path`` is ``"cholesky"`` or ``"pivoted_cholesky"``
    (see ``build``).
    """

    kernel: SeparableKernel
    centers: PointSet
    split: CongruenceSplit | None
    factors: tuple

    @classmethod
    def build(cls, kernel, centers):
        """Factor each block of the Gramian of ``kernel`` on ``centers`` once.

        The route is Cholesky, with no cutoff, when the kernel is strictly
        pd and the block factors, and otherwise the pivoted Cholesky that
        skips vanishing pivots (``linalg._PivotedCholesky``); a strictly pd
        kernel whose block does not factor warns with the number of pivots
        skipped.
        """
        centers.assert_distinct()
        split = _split(kernel)
        factors = []
        for J, A in _blocks(kernel, split, centers):
            factors.append((J, _SymFactor(A, kernel.strictly_pd, "skip")))
            del A
        return cls(kernel, centers, split, tuple(factors))

    @classmethod
    def nested(cls, kernel, centers):
        """Factor each scalar block once over all ``centers``, for ``prefixes``.

        The kernel must split (``interpolation._split``); each block gets one
        ``linalg._NestedCholesky`` in center order, which skips the centers
        whose Schur pivot falls to RANK_TOL of the diagonal and records the
        ones it kept.
        """
        centers.assert_distinct()
        split = _split(kernel)
        if split is None:
            raise ValueError("nested prefixes need a strictly pd kernel that splits")
        return cls(kernel, centers, split, tuple(
            (J, _NestedCholesky(A)) for J, A in _blocks(kernel, split, centers)))

    def prefixes(self, values, Xq):
        """Walk the prefixes X_1, ..., X_n of a ``nested`` evaluator's centers.

        ``values`` is the (n, m) data at the centers.  Yields, for each i,
        the interpolant s of ``values[:i]`` on X_i, its (q, m) predictions
        s(Xq), the (q, m) squared scalar power functions P_g^2 at ``Xq`` in
        the directions of each group g and the (q, m, m) deficiency
        matrices.  Group g interpolates on its centers kept among X_i, and
        the interpolant's ``solver_info`` counts the centers each block
        skipped.  One triangular solve per group gives the Newton basis
        W = L^{-1} K_g(X, Xq)^T and one the data's Newton coefficients
        Z = L^{-1} (F T^T)_J.  Over the kept centers k of X_i,
        P_g^2 = k_g(x, x) - sum_k W_k(x)^2 and the predictions in T
        coordinates are the running sum sum_k W_k(x) Z_k^T, which leave by
        T^-T; s's coefficients take a back-substitution on the leading
        block of each factor.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        T, m = self.split.T, self.kernel.m
        F = values @ T.T
        diag = self._scalar_diag(Xq)
        walks = []
        for (J, factor), (_, C) in zip(self.factors, _blocks(self.kernel, self.split,
                                                             self.centers, Xq)):
            W = factor.forward(C.T)
            walks.append((J, factor, W, np.cumsum(W * W, axis=0), factor.forward(F[:, J])))
        pred = np.zeros((len(Xq), m))  # the running predictions in T coordinates
        for i in range(1, self.centers.n + 1):
            B, p2, skipped = np.zeros((i, m)), np.empty((len(Xq), m)), []
            for g, (J, factor, W, sq, Z) in enumerate(walks):
                r = int(np.count_nonzero(factor.kept[:i]))
                if factor.kept[i - 1]:
                    pred[:, J] += W[r - 1][:, None] * Z[r - 1]
                p2[:, J] = (diag[g] - sq[r - 1] if r else diag[g])[:, None]
                B[np.ix_(factor.order[:r], J)] = factor.back(Z, r)
                skipped.append(i - r)
            info = {"path": self.path, "blocks": len(walks), "skipped": skipped}
            s = Interpolant(self.kernel, self.centers.prefix(i), (B @ T).reshape(-1), info)
            yield s, pred @ self.split.T_inv.T, p2, self._from_powers(p2)

    @property
    def path(self):
        return _path([f.path for _, f in self.factors])

    @property
    def gram_pinv(self):
        """G^{-1}, or the generalized inverse ``solve`` applies, as a dense matrix.

        On the pivoted route it is zero in the rows and columns of the
        skipped unknowns.  Through a split this is T^T G~^{-1} T blockwise,
        G~ the scalar blocks.
        """
        return self.solve(np.eye(self.centers.n * self.kernel.m))

    def solve(self, b):
        """G^{-1} b, or the generalized inverse of ``gram_pinv`` applied to b.

        ``b`` is stacked like the coefficients, (n m,) or (n m, k).  It is
        solved block by block through ``fit``'s mapping
        (``interpolation._block_solve``): in T coordinates through a split,
        in the component-major order of the one block Gramian without one.
        Without centers there are no unknowns, and the result is empty.
        """
        n, m = self.centers.n, self.kernel.m
        if n == 0:
            return np.zeros((0,) + b.shape[1:])
        x, _ = _block_solve(self.split, b.reshape(n, m, -1), self.factors, _SymFactor.solve)
        return x.reshape(b.shape)

    def deficiency_many(self, Xq):
        """Deficiency matrices for a (q, d) batch, returns (q, m, m).

        Through a split, D(x) = T^-1 diag(P_g(x)^2) T^-T with P_g the
        scalar power function of group g's kernel on the centers.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        if self.centers.n == 0:
            return self.kernel.diag_value(Xq)
        if self.split is None:
            # the (m q, m n) component-major cross matrix, row (a, x)
            ((_, C),) = _blocks(self.kernel, None, self.centers, Xq)
            C = C.reshape(self.kernel.m, len(Xq), self.kernel.m * self.centers.n)
            D = self.kernel.diag_value(Xq) - self.factors[0][1].inner(C)
            return 0.5 * (D + np.swapaxes(D, 1, 2))
        # k_g(x, x) and the scalar power functions, one group at a time
        diag = self._scalar_diag(Xq)
        p2 = np.empty((len(Xq), self.kernel.m))
        blocks = _blocks(self.kernel, self.split, self.centers, Xq)
        for g, (_, factor) in enumerate(self.factors):
            J, C = next(blocks)
            p2[:, J] = (diag[g] - factor.inner(C[None])[:, 0, 0])[:, None]
            del C
        return self._from_powers(p2)

    def _scalar_diag(self, Xq):
        """k_g(x, x) of each group's scalar kernel, a (groups, q) array."""
        return self.split.lam.T @ [ks.diag(Xq) for ks, _ in self.kernel.terms]

    def _from_powers(self, p2):
        """D(x) = T^-1 diag(P_g(x)^2) T^-T from the (q, m) scalar powers, symmetrized."""
        Ti = self.split.T_inv
        D = (Ti * p2[:, None, :]) @ Ti.T
        return 0.5 * (D + np.swapaxes(D, 1, 2))

    def bound_factors(self, Xq):
        """Pointwise error-bound factors for a (q, d) batch; see ``bound_factors``."""
        return bound_factors(self.deficiency_many(Xq))

    def power_sq(self, x, alpha):
        """Squared power-function alpha^T D(x) alpha, clamped to [0, inf)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        if np.linalg.norm(alpha) == 0:
            raise ValueError("direction must be nonzero")
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        val = float(alpha @ self.deficiency_many(x[None, :])[0] @ alpha)
        scale = max(1.0, float(alpha @ self.kernel(x, x) @ alpha))
        if val < -PSD_TOL * scale:
            raise PowerBreakdownError(
                f"power-function value {val:.3e} below -PSD_TOL * scale"
            )
        return max(val, 0.0)

    def error_bounds(self, x, f_norm, residual_norm):
        """Pointwise interpolation error bounds in three norms.

        With D(x) the deficiency matrix the bound factors are
        ||D||_2^(1/2), max_i |D_ii|^(1/2) and sqrt(m) ||D||_2^(1/2); each
        is reported multiplied with the residual native norm
        (``with_residual``) and with the full native norm
        (``with_full_norm``).
        """
        if not (f_norm >= residual_norm >= 0):
            raise ValueError("need f_norm >= residual_norm >= 0")
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        factors = {
            f"{k}_norm": float(v[0]) for k, v in self.bound_factors(x[None, :]).items()
        }
        return {
            "with_residual": {k: v * residual_norm for k, v in factors.items()},
            "with_full_norm": {k: v * f_norm for k, v in factors.items()},
        }


def bound_factors(D):
    """Pointwise error-bound factors of a (q, m, m) batch of deficiency matrices.

    Returns a dict of (q,) arrays: ``two`` = ||D||_2^(1/2),
    ``inf`` = max_i |D_ii|^(1/2) and ``one`` = sqrt(m) ||D||_2^(1/2).
    """
    # D(x) is symmetric, so its 2-norm is its largest eigenvalue magnitude
    two = np.sqrt(np.max(np.abs(np.linalg.eigvalsh(D)), axis=1))
    inf = np.sqrt(np.max(np.abs(np.diagonal(D, axis1=1, axis2=2)), axis=1))
    return {"two": two, "inf": inf, "one": np.sqrt(D.shape[-1]) * two}


def scalar_power_sq(ks: ScalarKernel, X: PointSet, x):
    """Squared power-function of a scalar kernel (the m = 1 case).

    Raises DuplicateCentersError when X has (near-)duplicate points and,
    like ``PowerEvaluator.power_sq``, PowerBreakdownError.
    """
    return _scalar_evaluator(ks, X).power_sq(x, [1.0])


def _scalar_evaluator(ks, X):
    """``PowerEvaluator`` of the m = 1 kernel ``ks * [[1]]`` on X."""
    return PowerEvaluator.build(SeparableKernel.create([(ks, [[1.0]])]), X)


def power_additivity_check(kernel: SeparableKernel, X: PointSet, samples):
    """Compare per-term order-1 power values against the full power.

    ``samples`` is a list of (x, alpha) pairs.  For each sample the sum of
    the per-term squared powers (via the order-1 factorization
    P_i^2 = Phat_i^2 * alpha^T Q_i alpha) is reported next to the full
    squared power; the gap is nonnegative and vanishes for uncoupled
    decompositions.
    """
    if kernel.p < 2:
        raise ValueError("additivity check needs a decomposition with >= 2 terms")
    pe = PowerEvaluator.build(kernel, X)
    terms = [(_scalar_evaluator(ks, X), Q) for ks, Q in kernel.terms]
    reports = []
    for x, alpha in samples:
        alpha = np.asarray(alpha, dtype=np.float64)
        parts = [te.power_sq(x, [1.0]) * float(alpha @ Q @ alpha) for te, Q in terms]
        whole = pe.power_sq(x, alpha)
        total = float(sum(parts))
        reports.append(
            {"sum_of_parts": total, "whole": whole, "gap": whole - total}
        )
    return reports
