"""Dense symmetric linear algebra with explicit tolerances.

All matrices handled here are real symmetric.  The pseudo-inverse is taken
through the symmetric eigendecomposition rather than an SVD, so that the
result is symmetric by spectral reconstruction.
"""

import numpy as np

# Relative tolerance for accepting a matrix as symmetric.
SYM_TOL = 1e-12
# Relative tolerance on eigendecomposition reconstruction / orthonormality.
EIG_TOL = 1e-10
# Default relative eigenvalue cutoff for rank decisions and pseudo-inverses.
RANK_TOL = 1e-10
# Relative slack when declaring a matrix positive semi-definite.
PSD_TOL = 1e-10
# Absolute floor so that rank(0) == 0 deterministically.
ZERO_FLOOR = 1e-14


class EigenSolverError(RuntimeError):
    """Raised when the symmetric eigensolver fails to converge."""


def symmetrize(A):
    """Return (A + A^T) / 2 as a float array."""
    A = np.asarray(A, dtype=np.float64)
    return 0.5 * (A + A.T)


def check_symmetric(A):
    """True if max |A - A^T| <= SYM_TOL * (1 + max |A|)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    scale = 1.0 + (np.max(np.abs(A)) if A.size else 0.0)
    return np.max(np.abs(A - A.T)) <= SYM_TOL * scale if A.size else True


def sym_eig(A):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and eigenvectors as orthonormal columns.
    """
    A = symmetrize(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as err:
        raise EigenSolverError(f"symmetric eigensolver failed: {err}") from err
    return w[::-1].copy(), V[:, ::-1].copy()


def pinv_sym(A, rank_tol=RANK_TOL):
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |lambda| <= rank_tol * max|lambda| are truncated to
    zero; the rest are inverted.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    w, V = sym_eig(A)
    aw = np.abs(w)
    cutoff = rank_tol * max(aw.max(initial=0.0), ZERO_FLOOR)
    inv = np.where(aw > cutoff, 1.0 / np.where(aw > cutoff, w, 1.0), 0.0)
    return symmetrize((V * inv) @ V.T)


def rank_of(A):
    """Numerical rank: count of |lambda_i| above RANK_TOL * max|lambda|."""
    w, _ = sym_eig(A)
    aw = np.abs(w)
    cutoff = RANK_TOL * max(aw.max(initial=0.0), ZERO_FLOOR)
    return int(np.count_nonzero(aw > cutoff))


def is_psd(A):
    """PSD test with reporting.

    Returns ``(flag, lam_min)`` where ``flag`` is True iff
    ``lam_min >= -PSD_TOL * max(1, ||A||_2)``.
    """
    w, _ = sym_eig(A)
    lam_min = float(w[-1]) if w.size else 0.0
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return lam_min >= -PSD_TOL * scale, lam_min
