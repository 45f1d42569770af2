"""Fitting and evaluating matrix-valued kernel interpolants.

The interpolant of data (X, f(X)) is s(x) = sum_i k(x, x_i) alpha_i where
the stacked coefficient vector solves the block Gramian system
k(X, X) alpha = f(X).  ``fit`` solves it block by block through
``linalg._SymFactor``: Cholesky for strictly positive definite kernels,
otherwise the minimal-norm pseudo-inverse solution.  A strictly pd kernel
whose coefficients have pairwise orthogonal products (the paper's
uncoupled decomposition) gives one n x n block per term, without the
block Gramian; any other kernel gives the block Gramian as its one block.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .decomposition import uncoupled_split
from .kernels import PointSet, SeparableKernel, _as_point
from .linalg import PSD_TOL, ConditioningError, _SymFactor, symmetrize  # noqa: F401  fit raises it
from .linalg import pinv_sym  # noqa: F401  perfbench's tracer rebinds this name

# Relative residual beyond which a Cholesky fit is flagged ill-conditioned.
LIN_TOL = 1e-8
# Relative slack below zero tolerated in residual_norm_sq, on the scale of
# max(1, ||f||^2), before it raises.
RESIDUAL_TOL = 1e-8


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


def fit(kernel, X, values, lu_fallback=False):
    """Fit the interpolant of ``values`` (an (n, m) array) on centers X.

    Strictly-pd kernels are solved by Cholesky; a factorization failure
    raises :class:`ConditioningError` with a lambda_min estimate unless
    ``lu_fallback`` is set, in which case an LU solve of the same system
    is used (truncating tiny eigenvalues instead would put a floor under
    the achievable interpolation error).  Kernels that are merely positive
    definite take the minimal-norm pseudo-inverse solution.

    Each block (U, w, A) gives B = A^{-1} (F U) diag(1/w) and adds B U^T
    to the coefficients.  A strictly-pd kernel whose coefficients split
    (:func:`~mvk.decomposition.uncoupled_split`, Q_i = U_i diag(w_i) U_i^T)
    has one block per term with A = k_i(X, X); because the U_i together
    form an orthogonal matrix, the block residuals add up to the residual
    of the full system.  Any other kernel is one block (I_m, 1, k(X, X)).
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if X.n == 0:
        return Interpolant(kernel, X, np.zeros(0), {
            "path": "empty", "residual": 0.0, "rank_used": 0, "blocks": 0})
    if values.shape != (X.n, kernel.m):
        raise ValueError(f"values must have shape ({X.n}, {kernel.m})")
    X.assert_distinct()

    alpha = np.zeros((X.n, kernel.m))
    res_sq, rank_used, paths = 0.0, 0, []
    for U, w, A in _blocks(kernel, X):
        FU = values @ U
        factor = _SymFactor(A, kernel.strictly_pd, "lu" if lu_fallback else "raise")
        # (n, rank U) on a term's block, one stacked column on k(X, X)
        B = factor.solve((FU / w).reshape(len(A), -1))
        alpha += B.reshape(X.n, -1) @ U.T
        res_sq += np.linalg.norm(A @ B * w - FU.reshape(B.shape)) ** 2
        rank_used += factor.rank * B.shape[1]
        paths.append(factor.path)
        del A, factor  # free this block before the next one is built
    path = "lu_fallback" if "lu_fallback" in paths else paths[0]

    scale = max(np.linalg.norm(values), 1e-300)
    residual = float(np.sqrt(res_sq) / scale)
    if path == "cholesky" and residual > LIN_TOL:
        warnings.warn(
            f"ill-conditioned interpolation system: relative residual "
            f"{residual:.3e} exceeds {LIN_TOL:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Interpolant(kernel, X, alpha.reshape(-1), {
        "path": path, "residual": residual, "rank_used": rank_used,
        "blocks": len(paths)})


def _blocks(kernel, X):
    """The (U, w, A) blocks of ``fit``, each A built when it is reached."""
    split = uncoupled_split(kernel.coefficients()) if kernel.strictly_pd else None
    if split is None:
        yield np.eye(kernel.m), 1.0, kernel.gramian(X, check_distinct=False)
        return
    # No name here (nor zip's reused result tuple) may hold a term's matrix
    # while fit solves its block: the shared distances already take one.
    terms = kernel._term_matrices(X.points, X.points)
    for U, w in split:
        yield U, w, symmetrize(next(terms)[0])


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
