"""Dense symmetric eigensolvers, small SVDs and related primitives.

Every factorization goes to LAPACK through numpy: the full
eigendecomposition of an operator (`symmetric_eig`, on the dense matrix or
on the Kronecker factor), the Gram eigensolve of `spectral_norm` (the norm
of a small dense matrix, such as the angle diagnostic's coupling matrix),
and the small SVDs of `_svd_small` and `least_squares` (projected
matrices of at most k_max + 1 rows, as in the hybrid solvers' inner
truncation).  Rectangular SVDs are computed directly, without squaring
into a Gram matrix, which keeps small singular values accurate to eps
times the largest.
"""

import copy
import math

import numpy as np

from .exceptions import ContractViolation, ResourceLimitError

EPS = float(np.finfo(np.float64).eps)
DENSE_EIG_LIMIT = 4096


# ---------------------------------------------------------------------------
# operator storage


def _max_abs(a):
    """max |a_ij| without an |a| temporary; refuses NaN and infinite entries."""
    scale = max(float(a.max()), -float(a.min())) if a.size else 0.0
    if not math.isfinite(scale):
        raise ContractViolation("operator has NaN or infinite entries")
    return scale


class SymmetricMatrix:
    """Symmetric operator with dense or Kronecker-of-Toeplitz storage.

    The dense form never retains the caller's array: it keeps one
    C-contiguous symmetrized copy (A + A^T) / 2, built in a single work
    array.  The Kronecker form keeps a banded symmetric Toeplitz factor T of
    order m and acts as the order-m**2 product T (x) T one vector at a time:
    `dense` and `block_matvec` refuse it.  Vectors interact with the
    Kronecker form in column-stacked order.  Entries must be finite.
    """

    def __init__(self, dense=None, toeplitz_first_col=None):
        if (dense is None) == (toeplitz_first_col is None):
            raise ContractViolation("exactly one storage form must be given")
        if dense is not None:
            a = np.asarray(dense, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ContractViolation("dense storage must be a square matrix")
            scale = _max_abs(a)
            # one work array holds |A - A^T|, then the stored (A + A^T) / 2; it
            # is C-ordered whatever the input's order, since the dense matvec's
            # rounding depends on the layout
            work = np.subtract(a, a.T, out=np.empty(a.shape))
            np.abs(work, out=work)
            if scale > 0.0 and float(work.max()) > 1e-8 * scale:
                raise ContractViolation("dense input is not symmetric")
            np.add(a, a.T, out=work)
            work *= 0.5
            self._dense = work
            self._factor = None
            self.n = a.shape[0]
            self.m = None
        else:
            col = np.array(toeplitz_first_col, dtype=float)
            if col.ndim != 1 or col.size < 1:
                raise ContractViolation("Toeplitz factor needs a 1-d first column")
            _max_abs(col)
            m = col.size
            idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
            self._factor = col[idx]
            self._dense = None
            self.m = m
            self.n = m * m

    @property
    def is_kronecker(self):
        return self._factor is not None

    @property
    def factor(self):
        return self._factor

    @property
    def dtype(self):
        return (self._factor if self._dense is None else self._dense).dtype

    def astype(self, dtype):
        """This operator with its storage cast to `dtype` once.

        np.longdouble gives extended-precision products: the stored double
        entries are exact in that type, so only its rounding enters.  The
        copy holds the cast storage (twice the memory of double for
        np.longdouble).
        """
        out = copy.copy(self)
        if self._dense is not None:
            out._dense = self._dense.astype(dtype)
        else:
            out._factor = self._factor.astype(dtype)
        return out

    def matvec(self, x):
        """A x, computed in the storage dtype."""
        x = np.asarray(x, dtype=self.dtype)
        if x.shape != (self.n,):
            raise ContractViolation(f"expected vector of length {self.n}")
        if self._dense is not None:
            return np.dot(self._dense, x)
        t = self._factor
        xm = x.reshape(self.m, self.m, order="F")
        return (t @ xm @ t).ravel(order="F")

    def block_matvec(self, rows):
        """A x for every row x of a (c, n) array, as the rows of one (c, n)
        array, computed in the storage dtype: one matrix product rows @ A
        (the stored A is exactly symmetric).  Dense storage only."""
        rows = np.asarray(rows, dtype=self.dtype)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ContractViolation(f"expected rows of length {self.n}")
        return rows @ self.dense()

    def dense(self):
        """The stored dense matrix.  Dense storage only."""
        if self._dense is None:
            raise ContractViolation("a Kronecker operator has no dense form or block "
                                    "product: it acts one vector at a time, through matvec")
        return self._dense


# ---------------------------------------------------------------------------
# spectral decomposition


_RQ_POLISH_LIMIT = 512
_RQ_POLISH_BLOCK = 32


def _rayleigh_polish(a, q):
    """Extended-precision Rayleigh quotients of the computed eigenvectors.

    LAPACK eigenvalues carry ~n*eps*||A|| error; spectral diagnostics that
    hinge on differences between converged projected values and eigenvalues
    need them at the rounding level.  Cubic in longdouble, so capped by order.
    The eigenvectors go through in column blocks, so besides the longdouble
    copy of A only a block of columns is held in longdouble; each quotient
    is summed in the same order as the full product.
    """
    a_ld = a.astype(np.longdouble)
    lams = np.empty(q.shape[1])
    for j in range(0, q.shape[1], _RQ_POLISH_BLOCK):
        q_ld = q[:, j : j + _RQ_POLISH_BLOCK].astype(np.longdouble)
        w = np.dot(a_ld, q_ld)
        num = np.einsum("ij,ij->j", q_ld, w)
        den = np.einsum("ij,ij->j", q_ld, q_ld)
        lams[j : j + _RQ_POLISH_BLOCK] = num / den
    return lams


def _eig_order(lams):
    """Sort order: |eigenvalue| descending, positive sign first, then position."""
    n = lams.size
    return np.lexsort((np.arange(n), (lams < 0).astype(int), -np.abs(lams)))


class SpectralDecomposition:
    """Eigen decomposition of a symmetric operator.

    Eigenvalues are ordered by decreasing magnitude (ties: positive sign
    first, then original position), which makes sigmas non-increasing.
    The eigenvector basis is stored dense or, for Kronecker operators, as
    the factor basis plus the index pairing, so blur-sized operators never
    materialize an n-by-n matrix.
    """

    def __init__(self, eigenvalues, v=None, kron=None):
        if (v is None) == (kron is None):
            raise ContractViolation("exactly one basis form must be given")
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.sigmas = np.abs(self.eigenvalues)
        self.n = self.eigenvalues.size
        self._v = v
        self._kron = kron  # (factor_v, left_index, right_index)

    def project(self, vec):
        """Coefficients V^T vec of a vector in the eigenbasis."""
        vec = np.asarray(vec, dtype=float)
        if self._v is not None:
            return self._v.T @ vec
        fv, li, ri = self._kron
        m = fv.shape[0]
        c = fv.T @ vec.reshape(m, m, order="F") @ fv
        return c[li, ri]

    def lincomb(self, coeffs):
        """Vector V @ coeffs."""
        coeffs = np.asarray(coeffs, dtype=float)
        if self._v is not None:
            return self._v @ coeffs
        fv, li, ri = self._kron
        m = fv.shape[0]
        c = np.zeros((m, m))
        c[li, ri] = coeffs
        return (fv @ c @ fv.T).ravel(order="F")

    def column(self, i):
        if self._v is not None:
            return self._v[:, i].copy()
        fv, li, ri = self._kron
        return np.outer(fv[:, li[i]], fv[:, ri[i]]).ravel(order="F")

    def columns(self, count):
        """First `count` eigenvectors as an (n, count) array."""
        if self._v is not None:
            return self._v[:, :count].copy()
        return np.column_stack([self.column(i) for i in range(count)])


def symmetric_eig(a):
    """Full spectral decomposition of a SymmetricMatrix.

    Dense operators go to LAPACK (`np.linalg.eigh`), followed by an
    extended-precision Rayleigh polish of the eigenvalues up to order 512.
    Kronecker operators only decompose the Toeplitz factor; the pair
    products give the full spectrum exactly.  The output is byte-identical
    from run to run on one machine with a fixed BLAS thread count.
    """
    if not isinstance(a, SymmetricMatrix):
        a = SymmetricMatrix(dense=a)
    if not a.is_kronecker:
        if a.n > DENSE_EIG_LIMIT:
            raise ResourceLimitError(
                f"dense eigensolve of order {a.n} exceeds limit {DENSE_EIG_LIMIT}"
            )
        lams, q = np.linalg.eigh(a.dense())
        if a.n <= _RQ_POLISH_LIMIT:
            lams = _rayleigh_polish(a.dense(), q)
        order = _eig_order(lams)
        return SpectralDecomposition(lams[order], v=q[:, order])
    lam_f, vf = np.linalg.eigh(a.factor)
    if a.m <= _RQ_POLISH_LIMIT:
        lam_f = _rayleigh_polish(a.factor, vf)
    m = a.m
    pair_lam = (lam_f[:, None] * lam_f[None, :]).ravel()
    li, ri = np.divmod(np.arange(m * m), m)
    order = _eig_order(pair_lam)
    return SpectralDecomposition(
        pair_lam[order], kron=(vf, li[order], ri[order])
    )


# ---------------------------------------------------------------------------
# rectangular tridiagonal matrices and small SVDs


class TridiagonalRect:
    """The (k+1)-by-k tridiagonal produced by k Lanczos steps.

    alpha holds the k diagonal entries, beta the k off-diagonal entries;
    beta[k-1] is the lone entry of the extra bottom row (zero at breakdown).
    Entries are double, or np.longdouble when given in that type.
    """

    def __init__(self, alpha, beta):
        extended = np.result_type(np.asarray(alpha), np.asarray(beta)) == np.longdouble
        dtype = np.longdouble if extended else float
        self.alpha = np.asarray(alpha, dtype=dtype)
        self.beta = np.asarray(beta, dtype=dtype)
        if self.alpha.ndim != 1 or self.alpha.shape != self.beta.shape:
            raise ContractViolation("alpha and beta must be 1-d of equal length")
        if self.alpha.size < 1:
            raise ContractViolation("at least one column is required")
        self.k = self.alpha.size

    def dense(self):
        k = self.k
        t = np.zeros((k + 1, k), dtype=self.alpha.dtype)
        idx = np.arange(k)
        t[idx, idx] = self.alpha
        t[idx + 1, idx] = self.beta
        t[idx[:-1], idx[:-1] + 1] = self.beta[:-1]
        return t

    def head(self, k):
        """The factorization truncated to its first k columns."""
        if not 1 <= k <= self.k:
            raise ContractViolation(f"need 1 <= k <= {self.k}")
        return TridiagonalRect(self.alpha[:k], self.beta[:k])


def _svd_small(m_mat):
    """Thin SVD of a small dense matrix by LAPACK (`np.linalg.svd`).

    Returns (s, u, v) with s of length min(shape), non-increasing, u and v
    with orthonormal columns (also for zero singular values), and
    m_mat ~= u @ diag(s) @ v.T.  Every singular value is accurate to about
    eps * s[0] absolute; no Gram matrix is formed.  Extended-precision
    input is rounded to double.
    """
    u, s, vt = np.linalg.svd(np.asarray(m_mat, dtype=float), full_matrices=False)
    return s, u, vt.T


# ---------------------------------------------------------------------------
# spectral norm


def _gram_top_eigenvalue(m_mat):
    g = m_mat @ m_mat.T if m_mat.shape[0] <= m_mat.shape[1] else m_mat.T @ m_mat
    g = 0.5 * (g + g.T)
    return float(max(np.linalg.eigvalsh(g).max(), 0.0))


def spectral_norm(m_mat):
    """Largest singular value of a small dense matrix.

    The square root of the top eigenvalue of the smaller Gram matrix, by
    LAPACK; squaring is harmless for the largest singular value.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.ndim == 1:
        m_mat = m_mat[None, :]
    if m_mat.size == 0 or not np.any(m_mat):
        return 0.0
    return math.sqrt(_gram_top_eigenvalue(m_mat))


# ---------------------------------------------------------------------------
# least squares


def rank_cutoff(s, shape):
    """The numerical-rank cutoff of the non-increasing singular values s of
    a matrix of the given shape: those at or below it count as zero."""
    return s[0] * max(shape) * 1e-14 if s.size else 0.0


def least_squares(m_mat, rhs):
    """Minimum-norm least squares minimizer of ||rhs - M y|| for a dense M.

    Singular directions at or below `rank_cutoff` contribute nothing.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (m_mat.shape[0],):
        raise ContractViolation(
            f"rhs length {rhs.shape} does not match {m_mat.shape[0]} rows"
        )
    s, u, v = _svd_small(m_mat)
    keep = s > rank_cutoff(s, m_mat.shape)
    c = (u[:, keep].T @ rhs) / s[keep]
    return v[:, keep] @ c
