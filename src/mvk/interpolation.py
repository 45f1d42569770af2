"""Fitting and evaluating matrix-valued kernel interpolants; native norms.

The interpolant of data (X, f(X)) is s(x) = sum_i k(x, x_i) alpha_i where
the stacked coefficient vector solves the block Gramian system
k(X, X) alpha = f(X).  ``fit`` solves it block by block through
``linalg._SymFactor``: Cholesky for strictly positive definite kernels,
otherwise a diagonally pivoted Cholesky that skips the unknowns whose
Schur pivots vanish and sets their coefficients to zero.  A strictly pd
kernel whose coefficients split by one congruence T (T Q_i T^T diagonal,
see :func:`~mvk.decomposition.congruence_split`) gives one n x n scalar
block per distinct kernel sum_i lam_ig k_i, without the block Gramian;
the paper's uncoupled kernels split this way with one block per term.
Any other kernel gives the block Gramian as its one block, assembled in
place by ``SeparableKernel._blocks`` with the unknowns ordered by
component.
``_blocks`` builds the blocks for ``fit``, ``PowerEvaluator`` and both
native norms (one quadratic form, ``_quad_form``).  Data enter and leave
them through ``_block_solve``, F T^T in and B T out, so ``coeffs`` stays
point-major; ``fit`` and ``PowerEvaluator.solve`` agree bit for bit.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .decomposition import congruence_split
from .kernels import PointSet, SeparableKernel, _as_point
from .linalg import PSD_TOL, ConditioningError, _SymFactor, symmetrize  # noqa: F401  fit raises it
from .linalg import pinv_sym  # noqa: F401  perfbench's tracer rebinds this name

# Relative residual beyond which a Cholesky fit, plain or pivoted, warns.
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
    definite take the pivoted Cholesky (``linalg._PivotedCholesky``): the
    unknowns whose Schur pivots vanish are skipped and get zero
    coefficients, so ``rank_used`` counts the pivots kept.  A Cholesky
    fit, plain or pivoted, warns when the relative residual exceeds
    LIN_TOL, as it does for data outside the Gramian's range; the LU
    fallback does not.

    The blocks are ``_blocks``' and the mapping ``_block_solve``'s: with a
    split, group g is one scalar system K_g B_g = (F T^T)_g and alpha =
    B T; the residual of the full system is R T^-T, R the block residuals.
    Non-finite ``values`` raise ValueError.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if X.n == 0:
        return Interpolant(kernel, X, np.zeros(0), {
            "path": "empty", "residual": 0.0, "rank_used": 0, "blocks": 0})
    if values.shape != (X.n, kernel.m):
        raise ValueError(f"values must have shape ({X.n}, {kernel.m})")
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain non-finite entries")
    X.assert_distinct()

    split = _split(kernel)
    solved = []  # (path, rank used) of each block

    def solve(A, rhs):
        # the factor overwrites its matrix; the residual needs A
        factor = _SymFactor(A.copy(), kernel.strictly_pd, "lu" if lu_fallback else "raise")
        solved.append((factor.path, factor.rank * rhs.shape[1]))
        return factor.solve(rhs)

    B, R = _block_solve(split, values[:, :, None], _blocks(kernel, split, X), solve,
                        residual=True)

    scale = max(np.linalg.norm(values), 1e-300)
    residual = float(np.linalg.norm(R) / scale)
    path = _path([p for p, _ in solved])
    if path != "lu_fallback" and residual > LIN_TOL:
        warnings.warn(f"ill-conditioned interpolation system: relative residual "
                      f"{residual:.3e} exceeds {LIN_TOL:.1e}", RuntimeWarning, stacklevel=2)
    return Interpolant(kernel, X, B.reshape(-1), {
        "path": path, "residual": residual, "rank_used": sum(r for _, r in solved),
        "blocks": len(solved)})


def _path(paths):
    """The solver path of several blocks: the first one off Cholesky, if any."""
    return next((p for p in paths if p != "cholesky"), "cholesky")


def _split(kernel):
    """The congruence split ``fit`` and ``PowerEvaluator`` share, or None.

    Only strictly pd kernels split: their coefficient sum is positive
    definite and every group's scalar kernel is strictly pd.
    """
    return congruence_split(kernel.coefficients()) if kernel.strictly_pd else None


def _blocks(kernel, split, X, Xq=None):
    """Yield (J, A) for each block of the system on centers X.

    With a split, J holds the directions of a group g and A is its scalar
    matrix sum_i lam_ig k_i(Xq, X): the symmetric Gramian when ``Xq`` is
    None, otherwise the (q, n) cross matrix.  Without one, the one block is
    (all directions, the matrix of ``SeparableKernel._blocks``): the
    (m n, m n) Gramian or the (m q, m n) cross matrix, both component-major,
    row (a, i) for component a at point i.  Blocks come in group
    order, each built when it is reached from ``_term_matrices``: a group
    is yielded once its last term is in, and the last group to use a
    term's matrix scales it in place when it has no sum yet.
    """
    if split is None:
        Xa = X.points if Xq is None else Xq
        yield slice(None), kernel._blocks(Xa, None if Xq is None else X.points).reshape(
            kernel.m * len(Xa), kernel.m * X.n)
        return
    lam = split.lam
    users = [np.flatnonzero(row) for row in lam]
    done_at = [np.flatnonzero(col)[-1] for col in lam.T]
    # No name here (nor a reused result tuple) may hold a matrix while the
    # caller factors a block: the shared distances already take one.
    terms = kernel._term_matrices(X.points if Xq is None else Xq, X.points)
    acc = {}
    for i in range(kernel.p):
        K = next(terms)[0]
        for g in users[i]:
            if g in acc:
                acc[g] += lam[i, g] * K
            elif g == users[i][-1]:  # the last use of K
                acc[g] = K if lam[i, g] == 1.0 else np.multiply(K, lam[i, g], out=K)
            else:
                acc[g] = lam[i, g] * K
        del K
        for g in users[i]:
            if done_at[g] == i:
                yield split.groups[g], symmetrize(acc.pop(g)) if Xq is None else acc.pop(g)


def _block_solve(split, F, blocks, solve, residual=False):
    """Solve the system of data F, an (n, m, k) array, block by block.

    The one mapping between data and the blocks of ``_blocks``, shared by
    ``fit`` and ``PowerEvaluator.solve``.  With a split, F enters T
    coordinates as F T^T, one (n k, m) GEMM; without one it enters as is.
    ``blocks`` yields (J, A), A a block matrix or its factor, and
    ``solve(A, rhs)`` solves the block.  F[:, J]^T is (k, |J|, n), and its
    rows of N entries are the block's right-hand sides: N = n gives
    (n, k |J|) on a group's scalar block, N = n m the (n m, k)
    component-major stack on the block Gramian.  Solutions are unstacked
    the same way and leave T coordinates by T (alpha = B T).  With
    ``residual`` (A then a matrix), A sol - rhs is unstacked too and leaves
    by T^-T.  Returns the (n, m, k) coefficients and residuals, the latter
    None without ``residual``.
    """
    N = len(F) * (1 if split is not None else F.shape[1])
    F = F if split is None else np.tensordot(F, split.T.T, (1, 0)).transpose(0, 2, 1)
    B, R = np.empty_like(F), np.empty_like(F) if residual else None
    for J, A in blocks:
        FJ = F[:, J]
        rhs = FJ.T.reshape(-1, N).T
        sol = solve(A, rhs)
        B[:, J] = sol.T.reshape(FJ.T.shape).T
        if residual:
            R[:, J] = (A @ sol - rhs).T.reshape(FJ.T.shape).T
        del A  # free this block before the next one is built
    if split is not None:
        B = np.tensordot(B, split.T, (1, 0)).transpose(0, 2, 1)
        R = R if R is None else np.tensordot(R, split.T_inv.T, (1, 0)).transpose(0, 2, 1)
    return B, R


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


def _quad_form(kernel, Z, Gamma, lead=None):
    """||g||^2 for g = sum_j k(., z_j) gamma_j, row j of Gamma (N, m), and a scale.

    Over ``_blocks(kernel, _split(kernel), Z)``; Z may repeat points.  A
    split takes Gamma to T coordinates, B = Gamma T^-1, and the form is
    sum_g tr(B_J^T K_g B_J) as Q_i = T^-1 diag(lam_i) T^-T; without one,
    Gamma's columns are stacked as in ``_block_solve``.  The scale is the
    form of the first ``lead`` rows alone, or with ``lead`` None |B|^T |A| |B|.
    """
    if Z.n == 0:
        return 0.0, 0.0
    split = _split(kernel)
    B = Gamma if split is None else Gamma @ split.T_inv
    val = scale = 0.0
    for J, A in _blocks(kernel, split, Z):
        b = B[:, J].T.reshape(-1, len(A)).T
        val += float(np.vdot(b, A @ b))
        if lead is None:
            b = np.abs(b)
            scale += float(np.vdot(b, np.abs(A) @ b))
        else:  # rows and columns of the first ``lead`` points, in every component
            keep = np.arange(len(A)) % Z.n < lead
            scale += float(np.vdot(b[keep], A[np.ix_(keep, keep)] @ b[keep]))
    return val, scale


def native_norm_sq(f: NativeSpanFunction):
    """Squared native norm, ``_quad_form`` of the weights; raises below -PSD_TOL |form|."""
    val, scale = _quad_form(f.kernel, f.sites, np.reshape(f.weights, (f.sites.n, f.kernel.m)))
    if val < -PSD_TOL * max(1.0, scale):
        raise RuntimeError(f"native norm came out negative ({val:.3e})")
    return max(val, 0.0)


def residual_norm_sq(f: NativeSpanFunction, s: Interpolant):
    """Squared native norm of f - s for s the interpolant of f on X.

    It equals ||f||^2 - ||s||^2 but is the ``_quad_form`` of f - s on sites
    and centers, which stays nonnegative under roundoff.  It is clamped at
    0 and raises below -RESIDUAL_TOL max(1, ||f||^2), ||f||^2 read from the
    sites' leading sub-block of the same blocks.
    """
    if f.kernel.to_dict() != s.kernel.to_dict():
        raise KernelMismatchError("function and interpolant use different kernels")
    Z = PointSet(np.vstack([f.sites.points, s.centers.points]))
    Gamma = np.vstack([np.reshape(f.weights, (f.sites.n, f.kernel.m)), -s.coeff_blocks()])
    val, scale = _quad_form(f.kernel, Z, Gamma, lead=f.sites.n)
    if val < -RESIDUAL_TOL * max(1.0, scale):
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
    """Read a model file written by :func:`save_model`.

    Raises ValueError when the file is not JSON or not an mvk-model-v1
    document, lacks a field, or when its centers are not (n, input_dim)
    or its coefficients not n * m values.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # not JSON, or bytes that are not text
            raise ValueError(f"not a JSON file: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != "mvk-model-v1":
        raise ValueError("not an mvk-model-v1 file")
    try:
        kernel = SeparableKernel.from_dict(doc["kernel"])
        n, d = len(doc["centers"]), doc["input_dim"]
        centers = PointSet(np.asarray(doc["centers"], dtype=np.float64), d=d)
        coeffs = np.asarray(doc["coeffs"], dtype=np.float64)
        info = doc["solver_info"]
    except KeyError as err:
        raise ValueError(f"no field {err}") from None
    if centers.points.shape != (n, d):
        raise ValueError(f"centers have shape {centers.points.shape}, "
                         f"not (n, input_dim) = ({n}, {d})")
    if coeffs.shape != (n * kernel.m,):
        raise ValueError(f"coeffs have shape {coeffs.shape}, not (n * m,) = ({n * kernel.m},)")
    return Interpolant(kernel, centers, coeffs, info)
