"""Dense symmetric linear algebra with explicit tolerances.

All matrices handled here are real symmetric.  The pseudo-inverse is taken
through the symmetric eigendecomposition rather than an SVD, so that the
result is symmetric by spectral reconstruction.  ``_SymFactor`` is the one
factorization behind interpolation and the power-function; its constructor
alone picks the route and what happens when Cholesky fails.
"""

import warnings

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

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


class ConditioningError(RuntimeError):
    """Cholesky factorization failed on a strictly-pd-flagged kernel."""

    def __init__(self, msg, lam_min=None):
        super().__init__(msg)
        self.lam_min = lam_min


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


def _kept(w):
    """Mask of the eigenvalues with |lambda| > RANK_TOL * max|lambda|."""
    aw = np.abs(w)
    return aw > RANK_TOL * max(aw.max(initial=0.0), ZERO_FLOOR)


def _pinv_from_eig(w, V, kept):
    """V diag(1/w) V^T over the eigenvalues marked ``kept``."""
    inv = np.where(kept, 1.0 / np.where(kept, w, 1.0), 0.0)
    return symmetrize((V * inv) @ V.T)


def pinv_sym(A, rank_tol=RANK_TOL):
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |lambda| <= rank_tol * max|lambda| are truncated to
    zero; the rest are inverted.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    w, V = sym_eig(A)
    aw = np.abs(w)
    return _pinv_from_eig(w, V, aw > rank_tol * max(aw.max(initial=0.0), ZERO_FLOOR))


def rank_of(A):
    """Numerical rank: count of |lambda_i| above RANK_TOL * max|lambda|."""
    w, _ = sym_eig(A)
    return int(np.count_nonzero(_kept(w)))


class _SymFactor:
    """A symmetric positive semi-definite matrix A, factored once.

    The constructor picks the route: Cholesky (``path`` ``"cholesky"``)
    when ``strictly_pd`` is set, otherwise one eigendecomposition whose
    eigenvalues above RANK_TOL times the largest give the pseudo-inverse
    (``"pseudo_inverse"``).  When Cholesky fails, ``on_failure`` decides:
    ``"raise"`` raises :class:`ConditioningError` with lambda_min, ``"lu"``
    solves A by LU (``"lu_fallback"``) and ``"eigh"`` warns with lambda_min
    and takes the eigendecomposition.

    ``rank`` counts the eigenvalues kept (the order of A on the other
    routes) and ``lam_min`` is the smallest one; it is None where no
    eigendecomposition was taken, and both are None for ``from_pinv``.
    """

    def __init__(self, A, strictly_pd, on_failure):
        self.rank, self.lam_min = A.shape[0], None
        if strictly_pd:
            try:
                self.path, self._M = "cholesky", cho_factor(A, lower=True)[0]
                return
            except LinAlgError:
                if on_failure == "lu":
                    self.path, self._M = "lu_fallback", A
                    return
                w, V = sym_eig(A)
                if on_failure == "raise":
                    raise ConditioningError(
                        f"Cholesky failed on strictly-pd kernel "
                        f"(lambda_min estimate {w[-1]:.3e})",
                        lam_min=float(w[-1]),
                    ) from None
                warnings.warn(
                    f"Cholesky failed on the Gramian of a strictly pd kernel "
                    f"(lambda_min {w[-1]:.3e}); using the pseudo-inverse",
                    RuntimeWarning,
                    stacklevel=3,
                )
        else:
            w, V = sym_eig(A)
        kept = _kept(w)
        self.path, self._M = "pseudo_inverse", _pinv_from_eig(w, V, kept)
        self.rank = int(np.count_nonzero(kept))
        self.lam_min = float(w[-1]) if w.size else 0.0

    @classmethod
    def from_pinv(cls, P):
        """Wrap a pseudo-inverse taken at another cutoff (``pinv_sym``)."""
        self = cls.__new__(cls)
        self.path, self._M, self.rank, self.lam_min = "pseudo_inverse", P, None, None
        return self

    def solve(self, B):
        """A^{-1} B, or A^+ B on the pseudo-inverse route."""
        if self.path == "cholesky":
            return cho_solve((self._M, True), B)
        if self.path == "lu_fallback":
            return np.linalg.solve(self._M, B)
        return self._M @ B

    def inner(self, C):
        """C_q A^{-1} C_q^T (or A^+) for each (m, N) block of a (q, m, N) array.

        On the Cholesky route this is W_q^T W_q with W = L^{-1} C^T, one
        triangular solve over the flat (q m, N) array; ``C`` is overwritten.
        Not for the LU route, which only ``fit`` takes.
        """
        Cf = C.reshape(-1, C.shape[2])
        if self.path == "cholesky":
            # Cf^T is Fortran-ordered, so LAPACK solves it in place; the
            # result's transpose is C-ordered again.
            W = solve_triangular(self._M, Cf.T, lower=True, overwrite_b=True).T
            W = W.reshape(C.shape)
            return np.einsum("qan,qbn->qab", W, W)
        # One (q m, N) x (N, N) GEMM; a 3-D C would make numpy issue one
        # small GEMM per block.
        CP = (Cf @ self._M).reshape(C.shape)
        return np.einsum("qan,qbn->qab", CP, C)


def is_psd(A):
    """PSD test with reporting.

    Returns ``(flag, lam_min)`` where ``flag`` is True iff
    ``lam_min >= -PSD_TOL * max(1, ||A||_2)``.
    """
    w, _ = sym_eig(A)
    lam_min = float(w[-1]) if w.size else 0.0
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return lam_min >= -PSD_TOL * scale, lam_min
