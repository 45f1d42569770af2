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
matrix in the same order, and ``solve`` permutes in and out of it.  For
a strictly positive definite kernel a Cholesky factor K = L L^T gives
c^T K^-1 c = w^T w with w = L^{-1} c, with no eigenvalue cutoff.
Otherwise one eigendecomposition gives the pseudo-inverse; a strictly pd
kernel whose block fails Cholesky takes it too, with a warning.

``PowerEvaluator.deficiency_many`` is the one routine that computes D(x);
the power-function, the bound factors, the error bounds and the scalar
power-function (the m = 1 kernel ``k_s * [[1]]``) all read it.
"""

from dataclasses import dataclass

import numpy as np

from .decomposition import CongruenceSplit
from .interpolation import _blocks, _path, _split
from .kernels import PointSet, ScalarKernel, SeparableKernel
from .linalg import PSD_TOL, _SymFactor, pinv_sym


class PowerBreakdownError(RuntimeError):
    """Power-function value negative beyond the PSD tolerance."""


@dataclass(frozen=True)
class PowerEvaluator:
    """The Gramian of a kernel on a set of centers, factored for power queries.

    ``split`` is the congruence split the blocks follow, as in ``fit``, or
    None for the one block Gramian; ``factors`` holds one factor per block,
    in the order of ``split.groups``.  ``path`` is ``"cholesky"`` or
    ``"pseudo_inverse"`` (see ``build``).
    """

    kernel: SeparableKernel
    centers: PointSet
    split: CongruenceSplit | None
    factors: tuple

    @classmethod
    def build(cls, kernel, centers, rank_tol=None):
        """Factor each block of the Gramian of ``kernel`` on ``centers`` once.

        With ``rank_tol=None`` the route is Cholesky, with no cutoff, when
        the kernel is strictly pd and the block factors, and otherwise the
        pseudo-inverse at RANK_TOL; a strictly pd kernel whose block does
        not factor warns with its smallest eigenvalue.  An explicit
        ``rank_tol`` takes the pseudo-inverse of each block at that cutoff.
        """
        centers.assert_distinct()
        split = _split(kernel)
        factors = []
        for _, A in _blocks(kernel, split, centers):
            if rank_tol is not None:
                factors.append(_SymFactor.from_pinv(pinv_sym(A, rank_tol)))
            else:
                factors.append(_SymFactor(A, kernel.strictly_pd, "eigh"))
            del A
        return cls(kernel, centers, split, tuple(factors))

    @property
    def path(self):
        return _path([f.path for f in self.factors])

    @property
    def gram_pinv(self):
        """G^{-1} (Cholesky route) or G^+ as a dense matrix, for analysis.

        Through a split this is T^T G~^+ T blockwise, G~ the scalar blocks.
        """
        return self.solve(np.eye(self.centers.n * self.kernel.m))

    def solve(self, b):
        """G^{-1} b on the Cholesky route, G^+ b on the pseudo-inverse route.

        ``b`` is stacked like the coefficients, (n m,) or (n m, k).  Through
        a split each center's rows are mapped by T, solved per group and
        mapped back by T^T.
        """
        n, m = self.centers.n, self.kernel.m
        if self.split is None:
            # the factor's unknowns are component-major: row (a, i) is
            # component a at center i
            bc = b.reshape(n, m, -1).transpose(1, 0, 2).reshape(n * m, -1)
            x = self.factors[0].solve(bc)
            return x.reshape(m, n, -1).transpose(1, 0, 2).reshape(b.shape)
        T = self.split.T
        bt = np.einsum("da,nak->ndk", T, b.reshape(n, m, -1))
        x = np.empty_like(bt)
        for J, factor in zip(self.split.groups, self.factors):
            x[:, J] = factor.solve(bt[:, J].reshape(n, -1)).reshape(n, len(J), -1)
        return np.einsum("da,ndk->nak", T, x).reshape(b.shape)

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
            C = C.reshape(self.kernel.m, len(Xq), -1)
            D = self.kernel.diag_value(Xq) - self.factors[0].inner(C)
        else:
            # k_g(x, x) and the scalar power functions, one group at a time
            diag = self.split.lam.T @ [ks.diag(Xq) for ks, _ in self.kernel.terms]
            p2 = np.empty((len(Xq), self.kernel.m))
            blocks = _blocks(self.kernel, self.split, self.centers, Xq)
            for g, factor in enumerate(self.factors):
                J, C = next(blocks)
                p2[:, J] = (diag[g] - factor.inner(C[None])[:, 0, 0])[:, None]
                del C
            Ti = self.split.T_inv
            D = (Ti * p2[:, None, :]) @ Ti.T
        return 0.5 * (D + np.swapaxes(D, 1, 2))

    def bound_factors(self, Xq):
        """Pointwise error-bound factors for a (q, d) batch.

        With D(x) the deficiency matrix, returns a dict of (q,) arrays:
        ``two`` = ||D||_2^(1/2), ``inf`` = max_i |D_ii|^(1/2) and
        ``one`` = sqrt(m) ||D||_2^(1/2).
        """
        D = self.deficiency_many(Xq)
        # D(x) is symmetric, so its 2-norm is its largest eigenvalue magnitude
        two = np.sqrt(np.max(np.abs(np.linalg.eigvalsh(D)), axis=1))
        inf = np.sqrt(np.max(np.abs(np.diagonal(D, axis1=1, axis2=2)), axis=1))
        return {"two": two, "inf": inf, "one": np.sqrt(self.kernel.m) * two}

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
