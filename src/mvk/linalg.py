"""Dense symmetric linear algebra with explicit tolerances.

All matrices handled here are real symmetric.  The pseudo-inverse is taken
through the symmetric eigendecomposition rather than an SVD, so that the
result is symmetric by spectral reconstruction.  ``_SymFactor`` is the one
factorization behind interpolation and the power-function; its constructor
alone picks the route and what happens when Cholesky fails.
``_NestedCholesky`` factors a Gramian once for all prefixes of its
centers, skipping the centers whose pivots vanish.

The Cholesky factor and its solves call scipy's f2py LAPACK extension,
``scipy/linalg/_flapack``, loaded from its file at import.  Importing
``scipy.linalg`` for its three wrappers would cost most of the start-up
of every ``mvk`` command (it pulls in ``numpy.testing``, ``unittest`` and
``email`` through scipy's array-API layer), and locating the file with
``find_spec("scipy")`` does not run ``scipy/__init__``.  Where the file
is missing or does not load, ``scipy.linalg.lapack`` provides the same
routines.  ``cho_factor``, ``cho_solve`` and ``solve_triangular`` below
make the checks and LAPACK calls of scipy's wrappers of those names for
a lower factor and float64 arrays, so their results are bit-identical.
"""

import importlib.machinery
import importlib.util
import os
import sys
import warnings

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


def _flapack_path():
    """Path of scipy's ``linalg/_flapack`` extension, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_flapack():
    """scipy's LAPACK module, loaded without importing ``scipy.linalg``.

    Loading an extension enters it in ``sys.modules``; the entry is put
    back as it was, so that no part of ``scipy.linalg`` looks imported.  A
    later import of it finds the extension cached under the same name and
    shares its routines.
    """
    path = _flapack_path()
    if path is not None:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        previous = sys.modules.get(spec.name)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
        finally:
            if previous is None:
                sys.modules.pop(spec.name, None)
            else:
                sys.modules[spec.name] = previous
    from scipy.linalg import lapack

    return lapack


# Loaded here, not on first use, so that scipy's OpenBLAS and its worker
# pool start with the import, while ``mvk/__init__`` still holds its
# OPENBLAS_THREAD_TIMEOUT, which OpenBLAS reads only when it loads.
_lapack = _load_flapack()


def cho_factor(a, overwrite_a=False):
    """Lower Cholesky factor of ``a`` as ``scipy.linalg.cho_factor(a, lower=True)[0]``.

    The strict upper triangle of the result is what ``a`` held there.
    Raises ``numpy.linalg.LinAlgError``, the class scipy raises, when
    ``a`` is not positive definite.
    """
    a1 = np.asarray_chkfinite(a)
    if a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a1.shape}")
    if a1.size == 0:
        return np.empty_like(a1, dtype=np.float64)
    c, info = _lapack.dpotrf(a1, lower=1, clean=0, overwrite_a=overwrite_a)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return c


def cho_solve(c, b):
    """A^{-1} b from the lower factor ``c`` of A, as ``scipy.linalg.cho_solve``."""
    b1, c = np.asarray_chkfinite(b), np.asarray_chkfinite(c)
    if c.shape[1] != b1.shape[0]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {b1.shape})")
    if b1.size == 0:
        return np.empty_like(b1, dtype=np.float64)
    x, info = _lapack.dpotrs(c, b1, lower=1, overwrite_b=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def solve_triangular(a, b, overwrite_b=False, trans=0):
    """L^{-1} b, or L^{-T} b with ``trans=1``, for the Fortran-ordered lower triangle L of ``a``.

    As ``scipy.linalg.solve_triangular(a, b, trans, lower=True)``, which
    passes a Fortran-ordered ``a`` to LAPACK unchanged.
    """
    a1, b1 = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if not a1.flags.f_contiguous:
        raise ValueError("the triangular factor must be Fortran-ordered")
    if a1.shape[0] != b1.shape[0]:
        raise ValueError(f"shapes of a {a1.shape} and b {b1.shape} are incompatible")
    if b1.size == 0:
        return np.empty_like(b1, dtype=np.float64)
    x, info = _lapack.dtrtrs(a1, b1, lower=1, trans=trans, unitdiag=0,
                            overwrite_b=overwrite_b)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


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

    A must be exactly symmetric, and Cholesky overwrites it: A^T is then
    A in Fortran order, so LAPACK factors it in place, writing L over the
    upper triangle of A's rows.  A caller that needs A afterwards passes a
    copy.  A failed Cholesky restores A from its intact lower triangle and
    the diagonal saved before, so the fallbacks see the original matrix.
    """

    def __init__(self, A, strictly_pd, on_failure):
        self.rank, self.lam_min = A.shape[0], None
        if strictly_pd:
            diag = A.diagonal().copy()
            try:
                self.path, self._M = "cholesky", cho_factor(A.T, overwrite_a=True)
                return
            except np.linalg.LinAlgError:
                np.copyto(A, A.T, where=~np.tri(len(A), dtype=bool))
                np.fill_diagonal(A, diag)
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
            return cho_solve(self._M, B)
        if self.path == "lu_fallback":
            return np.linalg.solve(self._M, B)
        return self._M @ B

    def inner(self, C):
        """C_x A^{-1} C_x^T (or A^+) for each query x of a (k, q, N) array.

        ``C`` holds the rows of the cross matrix in the component-major
        order of ``SeparableKernel._blocks``: C[a, x] is the row of
        component a at query x, and k is 1 for a group's scalar block.
        Returns the (q, k, k) products.  On the Cholesky route this is
        W_x^T W_x with W = L^{-1} C^T, one triangular solve over the flat
        (k q, N) array; ``C`` is overwritten.  Not for the LU route, which
        only ``fit`` takes.
        """
        Cf = C.reshape(-1, C.shape[2])
        if self.path == "cholesky":
            # Cf^T is Fortran-ordered, so LAPACK solves it in place; the
            # result's transpose is C-ordered again.
            W = solve_triangular(self._M, Cf.T, overwrite_b=True).T
            W = W.reshape(C.shape)
            return np.einsum("aqn,bqn->qab", W, W)
        # One (k q, N) x (N, N) GEMM; a 3-D C would make numpy issue one
        # small GEMM per block.
        CP = (Cf @ self._M).reshape(C.shape)
        return np.einsum("aqn,bqn->qab", CP, C)


class _NestedCholesky:
    """Cholesky factors of a Gramian on every prefix of its centers, from one factor.

    Left-looking, one center j at a time in the order of A's rows: with L
    the factor of the centers kept before j, j's row is l = L^{-1} A[kept, j]
    and its Schur pivot d^2 = A_jj - l^T l, the power function at center j
    of the centers before it.  A center whose pivot is d^2 <= RANK_TOL * A_jj
    is skipped, with no eigenvalue cutoff; ``kept`` marks the centers taken.  The factor of the kept centers among the
    first i is then the leading block of L, so one factor serves every
    prefix: ``forward`` applies L^{-1} once, and ``back`` solves with the
    leading block.  Each pivot lowers the power function by the square of
    one Newton basis function, the matching row of ``forward`` on the
    cross matrix (Mueller and Schaback, J. Approx. Theory 2009).
    """

    path = "cholesky"

    def __init__(self, A):
        A = np.asarray_chkfinite(A)
        n = len(A)
        # row k of Lt is column k of L, over all n centers
        Lt, kept, r = np.zeros((n, n)), np.zeros(n, dtype=bool), 0
        for j in range(n):
            v = A[j, j:] - Lt[:r, j] @ Lt[:r, j:]
            if v[0] > RANK_TOL * A[j, j]:
                Lt[r, j:] = v / np.sqrt(v[0])
                kept[j], r = True, r + 1
        self.kept = kept
        # the (r, r) lower factor of the kept centers, Fortran-ordered
        self._L = np.asfortranarray(Lt[:r, kept].T)

    def forward(self, B):
        """L^{-1} B[kept] for an (n, k) ``B`` with one row per center of A."""
        return solve_triangular(self._L, np.asfortranarray(B[self.kept]), overwrite_b=True)

    def back(self, Z, r):
        """L_r^{-T} Z[:r], L_r the factor's leading (r, r) block."""
        return solve_triangular(np.asfortranarray(self._L[:r, :r]), Z[:r], trans=1)


def is_psd(A):
    """PSD test with reporting.

    Returns ``(flag, lam_min)`` where ``flag`` is True iff
    ``lam_min >= -PSD_TOL * max(1, ||A||_2)``.
    """
    w, _ = sym_eig(A)
    lam_min = float(w[-1]) if w.size else 0.0
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return lam_min >= -PSD_TOL * scale, lam_min
