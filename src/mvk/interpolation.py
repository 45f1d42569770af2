"""Fitting and evaluating matrix-valued kernel interpolants.

The interpolant of data (X, f(X)) is s(x) = sum_i k(x, x_i) alpha_i where
the stacked coefficient vector solves the block Gramian system
k(X, X) alpha = f(X).  Strictly positive definite kernels go through a
Cholesky factorization; merely positive definite kernels use the
minimal-norm pseudo-inverse solution, whose eigendecomposition also gives
the rank used.  Strictly positive definite kernels whose coefficients
have pairwise orthogonal products (the paper's uncoupled decomposition)
are fitted term by term, one n x n system each, without the block Gramian.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .decomposition import uncoupled_split
from .kernels import PointSet, SeparableKernel, _as_point
from .linalg import PSD_TOL, _SymFactor, sym_eig, symmetrize
from .linalg import pinv_sym  # noqa: F401  perfbench's tracer rebinds this name

# Relative residual beyond which a Cholesky fit is flagged ill-conditioned.
LIN_TOL = 1e-8
# Relative slack below zero tolerated in residual_norm_sq, on the scale of
# max(1, ||f||^2), before it raises.
RESIDUAL_TOL = 1e-8


class ConditioningError(RuntimeError):
    """Cholesky factorization failed on a strictly-pd-flagged kernel."""

    def __init__(self, msg, lam_min=None):
        super().__init__(msg)
        self.lam_min = lam_min


class KernelMismatchError(ValueError):
    """Two objects that must share a kernel do not."""


@dataclass(frozen=True)
class Interpolant:
    """Fitted kernel interpolant with stacked coefficients."""

    kernel: SeparableKernel
    centers: PointSet
    coeffs: np.ndarray  # shape (m * n,)
    solver_info: dict

    def __call__(self, x):
        """Evaluate s(x) = sum_i k(x, x_i) alpha_i at one point, returns (m,)."""
        return self.evaluate_many(_as_point(x, self.centers.d)[None, :])[0]

    def evaluate_many(self, Xq):
        """Evaluate at a (q, d) batch of points, returns (q, m)."""
        return self.kernel.apply(Xq, self.centers, self.coeff_blocks())

    def coeff_blocks(self):
        """Coefficients as an (n, m) array, row i = alpha_i."""
        return self.coeffs.reshape(self.centers.n, self.kernel.m)


def fit(kernel, X, values, fallback_to_pinv=False):
    """Fit the interpolant of ``values`` (an (n, m) array) on centers X.

    Strictly-pd kernels are solved by Cholesky; a factorization failure
    raises :class:`ConditioningError` with a lambda_min estimate unless
    ``fallback_to_pinv`` is set, in which case an LU solve of the same
    system is used (truncating tiny eigenvalues instead would put a floor
    under the achievable interpolation error).  Kernels that are merely
    positive definite take the minimal-norm pseudo-inverse solution.

    A strictly-pd kernel whose coefficients split per term
    (:func:`~mvk.decomposition.uncoupled_split`, Q_i = U_i diag(w_i) U_i^T)
    is solved term by term without forming the block Gramian: with
    K_i = k_i(X, X), each term gives B_i = K_i^{-1} (F U_i) diag(1/w_i),
    and the coefficients are alpha = sum_i B_i U_i^T.  Because the U_i
    together form an orthogonal matrix, the term residuals add up to the
    residual of the full system.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if X.n == 0:
        return Interpolant(kernel, X, np.zeros(0), {
            "path": "empty", "residual": 0.0, "rank_used": 0, "blocks": 0})
    if values.shape != (X.n, kernel.m):
        raise ValueError(f"values must have shape ({X.n}, {kernel.m})")
    X.assert_distinct()
    split = uncoupled_split(kernel.coefficients()) if kernel.strictly_pd else None

    if split is None:
        G = kernel.gramian(X, check_distinct=False)
        rhs = values.reshape(-1)
        alpha, path, rank_used = _solve(G, rhs, kernel.strictly_pd, fallback_to_pinv)
        res_norm = np.linalg.norm(G @ alpha - rhs)
        blocks = 1
    else:
        A = np.zeros((X.n, kernel.m))
        res_sq, paths = 0.0, []
        for (ks, _), (U, w) in zip(kernel.terms, split):
            K = symmetrize(ks.cross(X.points, X.points))
            FU = values @ U
            B, route, _ = _solve(K, FU / w, True, fallback_to_pinv)
            A += B @ U.T
            res_sq += np.linalg.norm(K @ B * w - FU) ** 2
            paths.append(route)
        alpha, rank_used, blocks = A.reshape(-1), A.size, len(split)
        res_norm = np.sqrt(res_sq)
        path = "lu_fallback" if "lu_fallback" in paths else "cholesky"

    scale = max(np.linalg.norm(values), 1e-300)
    residual = float(res_norm / scale)
    if path == "cholesky" and residual > LIN_TOL:
        warnings.warn(
            f"ill-conditioned interpolation system: relative residual "
            f"{residual:.3e} exceeds {LIN_TOL:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Interpolant(kernel, X, alpha, {
        "path": path, "residual": residual, "rank_used": rank_used, "blocks": blocks})


def _solve(G, rhs, strictly_pd, fallback_to_pinv):
    """Solve G x = rhs for one symmetric system; returns (x, path, rank)."""
    try:
        factor = _SymFactor.cholesky(G) if strictly_pd else _SymFactor.eigh(G)
    except LinAlgError:
        if not fallback_to_pinv:
            w, _ = sym_eig(G)
            raise ConditioningError(
                f"Cholesky failed on strictly-pd kernel "
                f"(lambda_min estimate {w[-1]:.3e})",
                lam_min=float(w[-1]),
            ) from None
        return np.linalg.solve(G, rhs), "lu_fallback", G.shape[0]
    return factor.solve(rhs), factor.path, factor.rank


@dataclass(frozen=True)
class NativeSpanFunction:
    """f(x) = sum_j k(x, y_j) beta_j; lies in the kernel's native space."""

    kernel: SeparableKernel
    sites: PointSet
    weights: np.ndarray  # shape (q, m)

    def __call__(self, x):
        return self.evaluate_many(_as_point(x, self.sites.d)[None, :])[0]

    def evaluate_many(self, Xq):
        return self.kernel.apply(Xq, self.sites, self.weights)


def native_norm_sq(f: NativeSpanFunction):
    """Squared native-space norm, the Gram quadratic form of the weights."""
    if f.sites.n == 0:
        return 0.0
    beta = f.weights.reshape(-1)
    G = f.kernel.gramian(f.sites)
    val = float(beta @ G @ beta)
    scale = max(1.0, float(np.abs(beta) @ np.abs(G) @ np.abs(beta)))
    if val < -PSD_TOL * scale:
        raise RuntimeError(f"native norm came out negative ({val:.3e})")
    return max(val, 0.0)


def residual_norm_sq(f: NativeSpanFunction, s: Interpolant):
    """Squared native norm of f - s for s the interpolant of f on X.

    Because the interpolant is the orthogonal projection onto the span of
    the centers, this equals ||f||^2 - ||s||^2; it is evaluated directly as
    the Gram quadratic form of f - s on the union of sites and centers,
    which stays nonnegative under roundoff.  Tiny negative values are
    clamped; larger ones raise.
    """
    if f.kernel.to_dict() != s.kernel.to_dict():
        raise KernelMismatchError("function and interpolant use different kernels")
    m = f.kernel.m
    pts = np.vstack([f.sites.points, s.centers.points]) if s.centers.n else f.sites.points
    if pts.shape[0] == 0:
        return 0.0
    gamma = np.concatenate(
        [f.weights.reshape(-1), -s.coeff_blocks().reshape(-1) if s.centers.n else []]
    )
    Z = PointSet(pts)
    G = f.kernel.gramian(Z, check_distinct=False)
    val = float(gamma @ G @ gamma)
    # ||f||^2 from the sites' leading block of the same Gramian
    k = f.weights.size
    scale = max(1.0, float(gamma[:k] @ G[:k, :k] @ gamma[:k]))
    if val < -RESIDUAL_TOL * scale:
        raise RuntimeError(f"residual norm squared is negative ({val:.3e})")
    return max(val, 0.0)


def save_model(s: Interpolant, path):
    """Write an interpolant to a JSON model file (17-digit round-trip)."""
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


def load_model(path) -> Interpolant:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "mvk-model-v1":
        raise ValueError(f"not a model file: {path}")
    kernel = SeparableKernel.from_dict(doc["kernel"])
    centers = PointSet(np.asarray(doc["centers"]), d=doc["input_dim"])
    coeffs = np.asarray(doc["coeffs"], dtype=np.float64)
    return Interpolant(kernel, centers, coeffs, doc["solver_info"])
