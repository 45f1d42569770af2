"""Scalar kernels, separable matrix-valued kernels and block Gramians.

A separable matrix-valued kernel is a finite sum

    k(x, y) = sum_i k_i(x, y) * Q_i

with scalar kernels ``k_i`` and symmetric m x m coefficient matrices
``Q_i``.  Its block kernel matrices have the Kronecker structure
``sum_i k_i(X, Y) (x) Q_i``, and every evaluation here works from the
per-term scalar matrices ``k_i(X, Y)``: every block matrix comes from one
assembler (``SeparableKernel._blocks``), which fills the unknowns in
component-major order, block (a, b) = sum_i Q_i[a, b] k_i(X, Y), in place.
``gramian`` and ``cross_many`` permute it to the point-major Kronecker
layout; no solver or norm uses them (they serve ``counterexample``, tests
and benchmark hooks).  Interpolants are evaluated term by term without the
block matrix.  All of them, and the term-by-term fit, take the per-term
matrices from one generator (``_term_matrices``), which computes one
squared-distance matrix per point pair for all Gaussian terms.
"""

from dataclasses import dataclass, field

import numpy as np

from . import backends, linalg
from .linalg import PSD_TOL, check_symmetric, is_psd, symmetrize

# Minimal pairwise distance for interpolation centers, in the input scale.
DUP_TOL = 1e-12


class DuplicateCentersError(ValueError):
    """Point set used as centers contains (near-)duplicate points."""


@dataclass(frozen=True)
class ScalarKernel:
    """A symmetric positive (semi-)definite scalar kernel.

    ``gaussian``:   k(x, y) = exp(-shape * ||x - y||^2), shape > 0
    ``polynomial``: k(x, y) = (x . y)^degree, degree >= 1
    """

    kind: str
    shape: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.shape is None or self.shape <= 0:
                raise ValueError("gaussian kernel needs shape > 0")
        elif self.kind == "polynomial":
            if self.degree is None or self.degree < 1:
                raise ValueError("polynomial kernel needs degree >= 1")
        else:
            raise ValueError(f"unknown scalar kernel kind {self.kind!r}")

    @classmethod
    def gaussian(cls, shape):
        return cls("gaussian", shape=float(shape))

    @classmethod
    def polynomial(cls, degree):
        return cls("polynomial", degree=int(degree))

    @property
    def strictly_pd(self) -> bool:
        # Gaussians are s.p.d. on any point set; polynomial kernels are not.
        return self.kind == "gaussian"

    def cross(self, X, Y):
        """Kernel matrix between point arrays X (n, d) and Y (q, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
        if self.kind == "gaussian":
            return backends.gaussian_cross(X, Y, self.shape)
        return backends.polynomial_cross(X, Y, self.degree)

    def diag(self, X):
        """Values k(x, x) for the rows x of X (q, d), shape (q,)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.kind == "gaussian":
            return np.ones(X.shape[0])
        return np.einsum("ij,ij->i", X, X) ** self.degree

    def __call__(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        return float(self.cross(x[None, :], y[None, :])[0, 0])

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind == "gaussian":
            d["shape"] = self.shape
        else:
            d["degree"] = self.degree
        return d

    @classmethod
    def from_dict(cls, d):
        if d["kind"] == "gaussian":
            return cls.gaussian(d["shape"])
        return cls.polynomial(d["degree"])


class PointSet:
    """Ordered list of n points in R^d."""

    def __init__(self, points, d=None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, d if d is not None else 1)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def min_separation(self) -> float:
        if self.n < 2:
            return np.inf
        # squared distances summed one coordinate at a time into one n x n
        # array through one difference buffer; sqrt is monotone, so only the
        # minimum needs it
        sq = np.zeros((self.n, self.n))
        diff = np.empty_like(sq)
        for x in self.points.T:
            np.subtract.outer(x, x, out=diff)
            diff *= diff
            sq += diff
        np.fill_diagonal(sq, np.inf)
        return float(np.sqrt(sq.min()))

    def assert_distinct(self):
        sep = self.min_separation()
        if sep <= DUP_TOL:
            raise DuplicateCentersError(
                f"points are not pairwise distinct (min separation "
                f"{sep:.3e} <= {DUP_TOL:.1e})"
            )

    def prefix(self, i) -> "PointSet":
        return PointSet(self.points[:i], d=self.d)

    def __len__(self):
        return self.n


def _as_point(x, d):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (d,):
        raise ValueError(f"expected a point of dimension {d}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class SeparableKernel:
    """Matrix-valued kernel k(x, y) = sum_i k_i(x, y) Q_i."""

    m: int
    terms: tuple
    strictly_pd: bool = field(default=False)

    @classmethod
    def create(cls, terms, unchecked=False):
        """Build a kernel from (ScalarKernel, coefficient matrix) pairs.

        Coefficients are symmetrized and, unless ``unchecked``, validated
        positive semi-definite.  The kernel is flagged ``strictly_pd`` when
        every scalar kernel is s.p.d., all coefficients are PSD and their
        sum is positive definite.
        """
        norm_terms = []
        m = None
        all_psd = True
        for ks, Q in terms:
            Q = np.asarray(Q, dtype=np.float64)
            if not check_symmetric(Q):
                raise ValueError("coefficient matrix is not symmetric")
            Q = symmetrize(Q)
            if m is None:
                m = Q.shape[0]
            elif Q.shape[0] != m:
                raise ValueError("coefficient matrices have mismatched sizes")
            ok, lam = is_psd(Q)
            if not (ok or unchecked):
                raise ValueError(
                    f"coefficient matrix is not PSD (lambda_min = {lam:.3e}); "
                    "use unchecked=True for indefinite coefficients"
                )
            all_psd = all_psd and ok
            norm_terms.append((ks, Q))
        if not norm_terms:
            raise ValueError("kernel needs at least one term")
        # The spectral norm of the symmetric sum is its largest eigenvalue
        # magnitude, so one eigendecomposition gives lambda_min and the norm.
        w, _ = linalg.sym_eig(sum(Q for _, Q in norm_terms))
        spd = (
            all(ks.strictly_pd for ks, _ in norm_terms)
            and all_psd
            and float(w[-1]) > PSD_TOL * max(1.0, float(np.max(np.abs(w))))
        )
        return cls(m=m, terms=tuple(norm_terms), strictly_pd=spd)

    @property
    def p(self) -> int:
        return len(self.terms)

    def __call__(self, x, y):
        """Evaluate the m x m kernel value at a pair of points."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = _as_point(y, x.shape[0])
        return self._blocks(x[None], y[None])[:, 0, :, 0]

    def diag_value(self, x):
        """k(x, x); for x an (q, d) array returns (q, m, m)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim <= 1:
            return self(x, x)
        return sum(ks.diag(x)[:, None, None] * Q for ks, Q in self.terms)

    def _term_matrices(self, Xa, Xb):
        """Yield (k_i(Xa, Xb), Q_i) in term order, each matrix a new array.

        The Gaussian terms share one squared-distance matrix, and the last
        of them is exponentiated into it; polynomial terms are built by
        their scalar kernel.
        """
        gaussian = [i for i, (ks, _) in enumerate(self.terms) if ks.kind == "gaussian"]
        d2 = backends._sq_dists(Xa, Xb) if gaussian else None
        for i, (ks, Q) in enumerate(self.terms):
            if i not in gaussian:
                yield ks.cross(Xa, Xb), Q
            else:
                out = d2 if i == gaussian[-1] else None
                yield backends._gaussian(d2, ks.shape, out=out), Q

    def _blocks(self, Xa, Xb):
        """The block matrix k(Xa, Xb) in component-major order, (m, na, m, nb).

        Entry [a, i, b, j] is sum_t Q_t[a, b] k_t(xa_i, xb_j): the unknowns
        are ordered by component, then by point, so block (a, b) is the
        (na, nb) matrix sum_t Q_t[a, b] K_t.  ``Xb`` None gives the Gramian
        of ``Xa``, with each block symmetrized as 0.5 (S + S^T), which is
        exactly what ``symmetrize`` makes of the point-major Gramian.

        Blocks are filled in place from ``_term_matrices``, summed in term
        order.  The coefficients are symmetric, so block (b, a) equals block
        (a, b): only the blocks a >= b are summed, and each is copied once
        into its mirror.
        """
        sym = Xb is None
        Xb = Xa if sym else Xb
        m = self.m
        G = np.zeros((m, len(Xa), m, len(Xb)))
        # each Q[a, b] K product goes through one reused (na, nb) buffer
        buf = np.empty((len(Xa), len(Xb)))
        lower = [(a, b) for a in range(m) for b in range(a + 1)]
        for K, Q in self._term_matrices(Xa, Xb):
            for a, b in lower:
                G[a, :, b] += np.multiply(K, Q[a, b], out=buf)
            del K  # free this term's matrix before the next one is built
        for a, b in lower:
            blk = G[a, :, b]
            if sym:
                np.copyto(buf, blk.T)
                blk += buf
                blk *= 0.5
            if a != b:
                G[b, :, a] = blk
        return G

    def gramian(self, X: PointSet):
        """Point-major block Gramian k(X, X) = sum_i kron(K_i, Q_i) of distinct X.

        The assembler's Gramian permuted, (m n, m n); kept for ``counterexample`` and tests.
        """
        X.assert_distinct()
        nm = X.n * self.m
        return self._blocks(X.points, None).transpose(1, 0, 3, 2).reshape(nm, nm)

    def cross_many(self, Xq, X: PointSet):
        """Cross blocks for a batch of query points, shape (q, m, m n).

        Point-major like ``gramian``: row a of block x is sum_i
        kron(k_i(x, X), Q_i[a]).  Kept for tests and benchmark hooks.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        C = self._blocks(Xq, X.points).transpose(1, 0, 3, 2)
        return C.reshape(len(Xq), self.m, X.n * self.m)

    def apply(self, Xq, X: PointSet, A):
        """sum_j k(x, x_j) a_j at each row x of Xq, shape (q, m).

        ``A`` is the (n, m) array whose row j is a_j.  It is evaluated term
        by term as sum_i k_i(Xq, X) (A Q_i), which never forms the
        (q, m, m n) cross blocks.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        out = np.zeros((Xq.shape[0], self.m))
        if X.n == 0:
            return out
        A = np.asarray(A, dtype=np.float64).reshape(X.n, self.m)
        for K, Q in self._term_matrices(Xq, X.points):
            out += K @ (A @ Q)
            del K  # free this term's matrix before the next one is built
        return out

    def coefficients(self):
        return [Q for _, Q in self.terms]

    def to_dict(self):
        return {
            "m": self.m,
            "terms": [
                {**ks.to_dict(), "coeff": Q.flatten().tolist()}
                for ks, Q in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, d, unchecked=False):
        m = int(d["m"])
        terms = []
        for t in d["terms"]:
            ks = ScalarKernel.from_dict(t)
            Q = np.asarray(t["coeff"], dtype=np.float64).reshape(m, m)
            terms.append((ks, Q))
        return cls.create(terms, unchecked=unchecked)
