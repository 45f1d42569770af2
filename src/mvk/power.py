"""The directional power-function and a-priori bounds.

With X a set of centers, the reproducing kernel of the span of kernel
translates is

    k_N(x, y) = k(x, X) k(X, X)^+ k(X, y)

and the squared directional power-function at x in direction alpha is
alpha^T (k(x, x) - k_N(x, x)) alpha.  The deficiency matrix
D(x) = k(x, x) - k_N(x, x) also drives the pointwise error bounds in the
2-, infinity- and 1-norm.

``PowerEvaluator`` factors the Gramian G = k(X, X) once, through
``linalg._SymFactor``, which picks the route.  For a strictly positive
definite kernel G^+ = G^{-1}, and a Cholesky factor G = L L^T gives
k_N(x, x) = W^T W with W = L^{-1} k(X, x), with no eigenvalue cutoff.
Otherwise one eigendecomposition gives the pseudo-inverse; a strictly pd
kernel whose Gramian fails Cholesky takes it too, with a warning.

``PowerEvaluator.deficiency_many`` is the one routine that computes D(x);
the power-function, the bound factors, the error bounds and the scalar
power-function (the m = 1 kernel ``k_s * [[1]]``) all read it.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import PointSet, ScalarKernel, SeparableKernel
from .linalg import PSD_TOL, _SymFactor, pinv_sym


class PowerBreakdownError(RuntimeError):
    """Power-function value negative beyond the PSD tolerance."""


@dataclass(frozen=True)
class PowerEvaluator:
    """The Gramian of a kernel on a set of centers, factored for power queries.

    ``path`` is ``"cholesky"`` or ``"pseudo_inverse"`` (see ``build``).
    """

    kernel: SeparableKernel
    centers: PointSet
    factor: _SymFactor

    @classmethod
    def build(cls, kernel, centers, rank_tol=None):
        """Factor the Gramian of ``kernel`` on ``centers``.

        With ``rank_tol=None`` the route is Cholesky, with no cutoff, when
        the kernel is strictly pd and the Gramian factors, and otherwise the
        pseudo-inverse at RANK_TOL; a strictly pd kernel whose Gramian does
        not factor warns with its smallest eigenvalue.  An explicit
        ``rank_tol`` takes the pseudo-inverse at that cutoff.
        """
        G = kernel.gramian(centers)
        if rank_tol is not None:
            factor = _SymFactor.from_pinv(pinv_sym(G, rank_tol))
        else:
            factor = _SymFactor(G, kernel.strictly_pd, "eigh")
        return cls(kernel, centers, factor)

    @property
    def path(self):
        return self.factor.path

    @property
    def gram_pinv(self):
        """G^{-1} (Cholesky route) or G^+ as a dense matrix, for analysis."""
        return self.factor.solve(np.eye(self.centers.n * self.kernel.m))

    def solve(self, b):
        """G^{-1} b on the Cholesky route, G^+ b on the pseudo-inverse route."""
        return self.factor.solve(b)

    def deficiency_many(self, Xq):
        """Deficiency matrices for a (q, d) batch, returns (q, m, m)."""
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        kxx = self.kernel.diag_value(Xq)
        if self.centers.n == 0:
            return kxx
        D = kxx - self.factor.inner(self.kernel.cross_many(Xq, self.centers))
        return 0.5 * (D + np.swapaxes(D, 1, 2))

    def bound_factors(self, Xq):
        """Pointwise error-bound factors for a (q, d) batch.

        With D(x) the deficiency matrix, returns a dict of (q,) arrays:
        ``two`` = ||D||_2^(1/2), ``inf`` = max_i |D_ii|^(1/2) and
        ``one`` = sqrt(m) ||D||_2^(1/2).
        """
        D = self.deficiency_many(Xq)
        two = np.sqrt(np.maximum(np.linalg.norm(D, 2, axis=(1, 2)), 0.0))
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
