"""Dense symmetric linear algebra with explicit tolerances.

All matrices handled here are real symmetric.  ``_SymFactor`` is the one
factorization behind interpolation and the power-function; its constructor
alone picks the route and what happens when Cholesky fails.  A Gramian
that need not be positive definite takes a diagonally pivoted Cholesky,
``_PivotedCholesky``, which skips the unknowns whose Schur pivots vanish
instead of cutting eigenvalues.  ``_NestedCholesky`` takes the pivots in
the order of the centers, so that one factor serves every prefix of
them.  No route takes a pseudo-inverse; ``pinv_sym``, the eigenvalue-cutoff
pseudo-inverse at RANK_TOL, serves only the benchmark's by-name hooks.

The Cholesky factor and its solves call scipy's f2py LAPACK extension,
``scipy/linalg/_flapack``, loaded from its file at import, and
``sym_lower_matmul`` its BLAS extension, ``scipy/linalg/_fblas``, loaded
from its file on first use.
Importing ``scipy.linalg`` for its wrappers would cost most of the
start-up of every ``mvk`` command (it pulls in ``numpy.testing``,
``unittest`` and ``email`` through scipy's array-API layer), and locating
the files with ``find_spec("scipy")`` does not run ``scipy/__init__``.
Where a file is missing or does not load, ``scipy.linalg.lapack`` or
``scipy.linalg.blas`` provides the same routines.  ``cho_factor``,
``cho_solve`` and ``solve_triangular`` below make the checks and LAPACK
calls of scipy's wrappers of those names for a lower factor and float64
arrays, so their results are bit-identical; the solves skip the
finiteness scan of the factor, which is always one made here from a
checked matrix.
"""

import functools
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
# Relative cutoff for rank decisions (eigenvalues, and the pivots of
# ``_NestedCholesky``).
RANK_TOL = 1e-10
# Relative slack when declaring a matrix positive semi-definite.
PSD_TOL = 1e-10
# Absolute floor so that rank(0) == 0 deterministically.
ZERO_FLOOR = 1e-14
# Rows and columns of the square tiles of ``symmetrize_in_place``: a tile
# of float64 is 32 KiB, so the two mirror tiles and the sum stay in L2.
SYM_TILE = 64


def _extension_path(name):
    """Path of scipy's ``linalg/<name>`` extension, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_extension(name):
    """scipy's ``linalg/<name>`` extension, loaded without importing ``scipy.linalg``.

    ``name`` is ``"_flapack"`` (LAPACK) or ``"_fblas"`` (BLAS).  Loading an
    extension enters it in ``sys.modules``; the entry is put back as it
    was, so that no part of ``scipy.linalg`` looks imported.  A later
    import of it finds the extension cached under the same name and shares
    its routines.  Where the file is missing or does not load, the module
    comes from ``scipy.linalg.lapack`` or ``scipy.linalg.blas``.
    """
    path = _extension_path(name)
    if path is not None:
        spec = importlib.util.spec_from_file_location("scipy.linalg." + name, path)
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
    return importlib.import_module({"_flapack": "scipy.linalg.lapack",
                                    "_fblas": "scipy.linalg.blas"}[name])


# Loaded here, not on first use, so that scipy's OpenBLAS and its worker
# pool start with the import, while ``mvk/__init__`` still holds its
# OPENBLAS_THREAD_TIMEOUT, which OpenBLAS reads only when it loads.
_lapack = _load_extension("_flapack")


@functools.cache
def _blas():
    """scipy's BLAS extension, loaded on first use.

    Only ``fit``'s residual needs it, and loading it takes about 5 ms, so
    the commands that do not fit skip it.  It links the OpenBLAS that
    ``_lapack`` has already started.
    """
    return _load_extension("_fblas")


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
    """A^{-1} b from the lower factor ``c`` of A, as ``scipy.linalg.cho_solve``.

    ``c`` must be a factor made here (``cho_factor``), from a matrix that
    was checked to be finite then, so only ``b`` is checked; a non-finite
    ``b`` raises ValueError, as scipy's does.
    """
    b1 = np.asarray_chkfinite(b)
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
    passes a Fortran-ordered ``a`` to LAPACK unchanged.  ``a`` must be a
    factor made here (``cho_factor``, ``_PivotedCholesky``,
    ``_NestedCholesky``), from a matrix that was checked to be finite
    then, so only ``b`` is checked; a non-finite ``b`` raises ValueError,
    as scipy's does.
    """
    a1, b1 = np.asarray(a), np.asarray_chkfinite(b)
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


def symmetrize_in_place(A):
    """Overwrite the square float64 array A with (A + A^T) / 2 and return it.

    Bit for bit ``symmetrize(A)``, without its two full-size temporaries.
    A may be a view with rows of any stride.  It goes in square tiles of
    SYM_TILE rows: each pair of mirror tiles is summed into one reused
    tile, halved and written back to both, so the three tiles stay in cache.
    """
    t, n = SYM_TILE, len(A)
    buf = np.empty((min(t, n), min(t, n)))
    for i in range(0, n, t):
        for j in range(i, n, t):
            a, b = A[i:i + t, j:j + t], A[j:j + t, i:i + t]
            s = buf[:len(a), :len(b)]
            np.add(a, b.T, out=s)
            s *= 0.5
            a[...] = s
            b[...] = s.T
    return A


def sym_lower_matmul(A, B):
    """A B for a symmetric A given by its lower triangle and an (n, k) B.

    Only the lower triangle and diagonal of the C-ordered (n, n) ``A`` are
    read, so its strict upper triangle may hold anything, such as the
    Cholesky factor that ``_SymFactor`` writes there.  A^T is A in Fortran
    order, whose upper triangle BLAS dsymv (k = 1) or dsymm reads.
    """
    if B.shape[1] == 1:
        return _blas().dsymv(alpha=1.0, a=A.T, x=B[:, 0], lower=0)[:, None]
    return _blas().dsymm(alpha=1.0, a=A.T, b=B, lower=0)


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


def pinv_sym(A):
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |lambda| <= RANK_TOL * max|lambda| are truncated to
    zero; the rest are inverted.
    """
    w, V = sym_eig(A)
    aw = np.abs(w)
    kept = aw > RANK_TOL * max(aw.max(initial=0.0), ZERO_FLOOR)
    return symmetrize((V * np.divide(1.0, w, out=np.zeros_like(w), where=kept)) @ V.T)


def rank_of(A):
    """Numerical rank: count of |lambda_i| above RANK_TOL * max|lambda|."""
    aw = np.abs(sym_eig(A)[0])
    return int(np.count_nonzero(aw > RANK_TOL * max(aw.max(initial=0.0), ZERO_FLOOR)))


class _SymFactor:
    """A symmetric positive semi-definite matrix A, factored once.

    The constructor picks the route: Cholesky (``path`` ``"cholesky"``)
    when ``strictly_pd`` is set, otherwise a diagonally pivoted Cholesky
    that skips the unknowns whose Schur pivots vanish
    (``_PivotedCholesky``, path ``"pivoted_cholesky"``).  When Cholesky
    fails, ``on_failure`` decides: ``"raise"`` raises
    :class:`ConditioningError` with lambda_min, ``"lu"`` solves A by LU
    (``"lu_fallback"``) and ``"skip"`` warns with the number of pivots
    skipped and takes the pivoted factor.

    ``rank`` counts the pivots kept (the order of A on the other routes).

    A must be exactly symmetric, and Cholesky overwrites it: A^T is then
    A in Fortran order, so LAPACK factors it in place, writing L over the
    diagonal and the upper triangle of A's rows.  A failed Cholesky
    restores A from its intact lower triangle and the diagonal saved
    before, so the fallbacks see the original matrix; they do not write to
    A.  On every route the strict lower triangle of A is left as it was, so
    a caller that needs A afterwards saves its diagonal, puts it back once
    it is done with the factor and reads A from that triangle
    (``sym_lower_matmul``), as ``fit`` does for its residual.
    """

    def __init__(self, A, strictly_pd, on_failure):
        self.rank = A.shape[0]
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
                if on_failure == "raise":
                    lam_min = float(sym_eig(A)[0][-1])
                    raise ConditioningError(f"Cholesky failed on strictly-pd kernel (lambda_min "
                                            f"estimate {lam_min:.3e})", lam_min) from None
        self.path, self._M = "pivoted_cholesky", _PivotedCholesky(A)
        self.rank = len(self._M.order)
        if strictly_pd:  # stacklevel 3: the caller of PowerEvaluator.build
            warnings.warn(f"Cholesky failed on the Gramian of a strictly pd kernel; the pivoted "
                          f"Cholesky skipped {len(A) - self.rank} of {len(A)} pivots",
                          RuntimeWarning, stacklevel=3)

    def solve(self, B):
        """A^{-1} B, zero at the skipped unknowns on the pivoted route."""
        if self.path == "cholesky":
            return cho_solve(self._M, B)
        if self.path == "lu_fallback":
            return np.linalg.solve(self._M, B)
        X = np.zeros(np.shape(B))
        X[self._M.order] = self._M.back(self._M.forward(B), self.rank)
        return X

    def inner(self, C):
        """C_x A^{-1} C_x^T for each query x of a (k, q, N) array.

        ``C`` holds the rows of the cross matrix in the component-major
        order of ``SeparableKernel._blocks``: C[a, x] is the row of
        component a at query x, and k is 1 for a group's scalar block.
        Returns the (q, k, k) products.  On the Cholesky routes this is
        W_x^T W_x with W = L^{-1} C^T, one triangular solve over the flat
        (k q, N) array, over the kept unknowns on the pivoted route; the
        plain route overwrites ``C``.  Not for the LU route, which only
        ``fit`` takes.
        """
        Cf = C.reshape(-1, C.shape[2])
        # Cf^T is Fortran-ordered, so LAPACK solves it in place on the plain
        # route; the result's transpose is C-ordered again.
        W = (solve_triangular(self._M, Cf.T, overwrite_b=True) if self.path == "cholesky"
             else self._M.forward(Cf.T)).T
        W = W.reshape(C.shape[0], C.shape[1], W.shape[1])
        return np.einsum("aqn,bqn->qab", W, W)


class _PivotedCholesky:
    """L L^T = A[order][:, order] for a symmetric psd A, skipping vanishing pivots.

    Diagonal pivoting: each step takes the unknown j whose Schur pivot d_j,
    the power function at j of the unknowns taken before, is largest
    relative to A_jj.  The factor stops once that ratio is at most n eps,
    the roundoff of a Schur complement of order n (LAPACK's dpstrf stops
    at n eps max_j A_jj), and skips the unknowns left; there is no
    eigenvalue cutoff.  The greedy choice keeps the factored block well
    conditioned, so that its roundoff stays small.  A stop at roundoff,
    not at RANK_TOL, drops only directions that the kept unknowns span to
    roundoff, so that adding centers does not raise the power function,
    as a coarser cutoff can.  ``order`` lists the unknowns kept, in the
    order of L's rows; ``forward`` applies L^{-1} and ``back`` solves with
    a leading block of L^T.
    """

    def __init__(self, A):
        A = np.asarray_chkfinite(A)
        # As in LAPACK's dpstrf: position r takes the r-th pivot's unknown,
        # perm[r], so the unknowns left stay in the columns r: of Lt, whose
        # row k is column k of L; d and diag are the Schur pivots and A's
        # diagonal in the same order.
        n, diag = len(A), A.diagonal().copy()
        perm, Lt, d = np.arange(n), np.zeros((n, n)), diag.copy()
        for r in range(n + 1):
            rel = np.divide(d[r:], diag[r:], out=np.zeros(n - r), where=diag[r:] > 0)
            if r == n or rel.max() <= n * np.finfo(float).eps:
                break
            j = r + int(np.argmax(rel))
            for a in (perm, d, diag, Lt[:r].T):
                a[[r, j]] = a[[j, r]]
            Lt[r, r:] = (A[perm[r], perm[r:]] - Lt[:r, r] @ Lt[:r, r:]) / np.sqrt(d[r])
            d[r:] -= Lt[r, r:] ** 2
        self.order = perm[:r]
        # the (r, r) lower factor of the kept unknowns, Fortran-ordered
        self._L = np.asfortranarray(Lt[:r, :r].T)

    def forward(self, B):
        """L^{-1} B[order] for an (n, k) ``B`` with one row per unknown of A."""
        return solve_triangular(self._L, np.asfortranarray(B[self.order]), overwrite_b=True)

    def back(self, Z, r):
        """L_r^{-T} Z[:r], L_r the factor's leading (r, r) block."""
        return solve_triangular(np.asfortranarray(self._L[:r, :r]), Z[:r], trans=1)


class _NestedCholesky(_PivotedCholesky):
    """Cholesky factors of a Gramian on every prefix of its centers, from one factor.

    Left-looking, one center j at a time in the order of A's rows: with L
    the factor of the centers kept before j, j's row is l = L^{-1} A[kept, j]
    and its Schur pivot d^2 = A_jj - l^T l, the power function at center j
    of the centers before it.  A center whose pivot is d^2 <= RANK_TOL * A_jj
    is skipped, with no eigenvalue cutoff; ``kept`` marks the centers
    taken, and ``order`` lists them.  The factor of the kept centers among
    the first i is then the leading block of L, so one factor serves every
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
        self.kept, self.order = kept, np.flatnonzero(kept)
        self._L = np.asfortranarray(Lt[:r, kept].T)


def is_psd(A):
    """PSD test with reporting.

    Returns ``(flag, lam_min)`` where ``flag`` is True iff
    ``lam_min >= -PSD_TOL * max(1, ||A||_2)``.
    """
    w, _ = sym_eig(A)
    lam_min = float(w[-1]) if w.size else 0.0
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return lam_min >= -PSD_TOL * scale, lam_min
