"""Dense symmetric eigensolvers, small SVDs and related primitives.

Full eigendecompositions of an operator (`symmetric_eig`, on the dense
matrix or on the Kronecker factor) and the Gram fallback of
`spectral_norm` go to LAPACK through numpy.  The small projected problems,
of order at most about twice the number of Krylov steps, go through the
package's own core: Householder reduction to tridiagonal form followed by
implicit-shift QL iteration.  Its rounding is pinned, so the hybrid
solvers' inner SVDs and the harmonic Ritz values reproduce bit for bit.
Rectangular SVDs are obtained from the symmetric eigenproblem of the
augmented matrix [[0, M], [M^T, 0]], which keeps small singular values
accurate (no Gram-matrix squaring).
"""

import math

import numpy as np
from scipy.linalg.blas import drot as _blas_drot

from .exceptions import ContractViolation, NumericalError, ResourceLimitError

EPS = float(np.finfo(np.float64).eps)
DENSE_EIG_LIMIT = 4096


# ---------------------------------------------------------------------------
# operator storage


class SymmetricMatrix:
    """Symmetric operator with dense or Kronecker-of-Toeplitz storage.

    The Kronecker form keeps a banded symmetric Toeplitz factor T of order m
    and acts as the order-m**2 product T (x) T without materializing it.
    Vectors interact with the Kronecker form in column-stacked order.
    """

    def __init__(self, dense=None, toeplitz_first_col=None):
        if (dense is None) == (toeplitz_first_col is None):
            raise ContractViolation("exactly one storage form must be given")
        if dense is not None:
            a = np.array(dense, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ContractViolation("dense storage must be a square matrix")
            scale = float(np.abs(a).max()) if a.size else 0.0
            if scale > 0.0 and float(np.abs(a - a.T).max()) > 1e-8 * scale:
                raise ContractViolation("dense input is not symmetric")
            self._dense = 0.5 * (a + a.T)
            self._factor = None
            self.n = a.shape[0]
            self.m = None
        else:
            col = np.array(toeplitz_first_col, dtype=float)
            if col.ndim != 1 or col.size < 1:
                raise ContractViolation("Toeplitz factor needs a 1-d first column")
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

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ContractViolation(f"expected vector of length {self.n}")
        if self._dense is not None:
            return self._dense @ x
        t = self._factor
        xm = x.reshape(self.m, self.m, order="F")
        return (t @ xm @ t).ravel(order="F")

    def matmat(self, x):
        x = np.asarray(x, dtype=float)
        if self._dense is not None:
            return self._dense @ x
        return np.column_stack([self.matvec(x[:, j]) for j in range(x.shape[1])])

    def extended_matvec(self):
        """The product x -> A x with np.longdouble vectors and arithmetic.

        The stored double entries are exact in extended precision, so only
        the extended rounding enters.  The returned function holds an
        extended copy of the storage (twice the memory of the double one).
        """
        ld = np.longdouble
        if self._dense is not None:
            a_ld = self._dense.astype(ld)
            return lambda x: np.dot(a_ld, x)
        t = self._factor.astype(ld)
        m = self.m
        return lambda x: (t @ x.reshape(m, m, order="F") @ t).ravel(order="F")

    def dense(self):
        if self._dense is not None:
            return self._dense
        if self.m > 64:
            raise ResourceLimitError(
                f"dense materialization of a Kronecker operator with factor order "
                f"{self.m} > 64 is not allowed"
            )
        return np.kron(self._factor, self._factor)


# ---------------------------------------------------------------------------
# Householder tridiagonalization + implicit-shift QL


def _householder_tridiag(a, vectors=True):
    """Reduce a symmetric matrix to tridiagonal form.

    Returns (d, e, q) with q @ tri(d, e) @ q.T reproducing the input;
    q is None when vectors=False.  The input array is destroyed.
    """
    n = a.shape[0]
    reflectors = []
    for k in range(n - 2):
        x = a[k + 1:, k]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        alpha = -nx if x[0] >= 0.0 else nx
        v = x.copy()
        v[0] -= alpha
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        v /= nv
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        a[k + 2:, k] = 0.0
        a[k, k + 2:] = 0.0
        s = a[k + 1:, k + 1:]
        w = s @ v
        c = float(v @ w)
        w2 = w - c * v
        s -= 2.0 * (np.outer(v, w2) + np.outer(w2, v))
        if vectors:
            reflectors.append((k + 1, v))
    d = np.diag(a).copy()
    e = np.diag(a, 1).copy() if n > 1 else np.zeros(0)
    q = None
    if vectors:
        q = np.eye(n)
        for start, v in reversed(reflectors):
            q[start:, :] -= 2.0 * np.outer(v, v @ q[start:, :])
    return d, e, q


def _ql_implicit(d, e, z=None, max_iter=60):
    """Implicit-shift QL iteration on a symmetric tridiagonal matrix.

    d (diagonal) is overwritten with the eigenvalues; e (off-diagonal,
    length n-1) is left alone.  If z is given its columns accumulate the
    rotations, so passing the tridiagonalizing transform yields eigenvectors.
    The scalar recurrence runs on Python floats; the rotations go to BLAS
    drot on contiguous rows of the transposed accumulator.  drot's rounding
    (fused multiply-adds in OpenBLAS) is part of the pinned output: a numpy
    rotation gives different bits.
    """
    n = d.size
    if n <= 1:
        return
    zt = None if z is None else np.ascontiguousarray(z.T)
    # Absolute deflation floor: entries below eps * ||T|| carry no information
    # and would otherwise stall the relative test on strongly graded matrices.
    tnorm = max(float(np.max(np.abs(d))), float(np.max(np.abs(e))))
    floor = EPS * tnorm
    d_out = d
    d = d.tolist()
    ee = e.tolist() + [0.0]
    for l in range(n):
        iters = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= EPS * dd or abs(ee[m]) <= floor:
                    break
                m += 1
            if m == l:
                break
            if iters == max_iter:
                raise NumericalError(
                    f"QL iteration failed to converge for eigenvalue index {l}"
                )
            iters += 1
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + (r if g >= 0.0 else -r))
            s = 1.0
            c = 1.0
            p = 0.0
            early = False
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    early = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if zt is not None:
                    # x' = c x + s y, y' = -s x + c y; our update needs (c, -s).
                    _blas_drot(zt[i], zt[i + 1], c, -s, overwrite_x=1, overwrite_y=1)
            if early:
                continue
            d[l] -= p
            ee[l] = g
            ee[m] = 0.0
    d_out[:] = d
    if zt is not None:
        z[:] = zt.T


def _symmetric_eig_dense(a, vectors=True):
    """Eigenvalues (and optionally eigenvectors) of a small dense symmetric array.

    The in-house core, kept for the projected problems whose outputs are
    pinned bit for bit; operator-sized problems go to LAPACK.
    """
    d, e, q = _householder_tridiag(np.array(a, dtype=float), vectors=vectors)
    _ql_implicit(d, e, q)
    return d, q


_RQ_POLISH_LIMIT = 512


def _rayleigh_polish(a, lams, q):
    """Extended-precision Rayleigh quotients of the computed eigenvectors.

    LAPACK eigenvalues carry ~n*eps*||A|| error; spectral diagnostics that
    hinge on differences between converged projected values and eigenvalues
    need them at the rounding level.  Cubic in longdouble, so capped by order.
    """
    a_ld = a.astype(np.longdouble)
    q_ld = q.astype(np.longdouble)
    w = a_ld @ q_ld
    num = np.einsum("ij,ij->j", q_ld, w)
    den = np.einsum("ij,ij->j", q_ld, q_ld)
    return (num / den).astype(float)


def _eig_order(lams):
    """Sort order: |eigenvalue| descending, positive sign first, then position."""
    n = lams.size
    return np.lexsort((np.arange(n), (lams < 0).astype(int), -np.abs(lams)))


# ---------------------------------------------------------------------------
# spectral decomposition


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
        self.signs = np.where(self.eigenvalues >= 0.0, 1.0, -1.0)
        self.n = self.eigenvalues.size
        self._v = v
        self._kron = kron  # (factor_v, left_index, right_index)

    @property
    def is_kronecker(self):
        return self._kron is not None

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

    def v_dense(self):
        if self._v is not None:
            return self._v
        if self.n > DENSE_EIG_LIMIT:
            raise ResourceLimitError(
                f"materializing a {self.n}x{self.n} eigenvector basis exceeds "
                f"the dense limit {DENSE_EIG_LIMIT}"
            )
        return self.columns(self.n)


def symmetric_eig(a, dense_limit=DENSE_EIG_LIMIT):
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
        if a.n > dense_limit:
            raise ResourceLimitError(
                f"dense eigensolve of order {a.n} exceeds limit {dense_limit}"
            )
        lams, q = np.linalg.eigh(a.dense())
        if a.n <= _RQ_POLISH_LIMIT:
            lams = _rayleigh_polish(a.dense(), lams, q)
        order = _eig_order(lams)
        return SpectralDecomposition(lams[order], v=q[:, order])
    lam_f, vf = np.linalg.eigh(a.factor)
    if a.m <= _RQ_POLISH_LIMIT:
        lam_f = _rayleigh_polish(a.factor, lam_f, vf)
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

    def square(self):
        """Leading k-by-k (symmetric) block."""
        return self.dense()[: self.k, :]

    def head(self, k):
        """The factorization truncated to its first k columns."""
        if not 1 <= k <= self.k:
            raise ContractViolation(f"need 1 <= k <= {self.k}")
        return TridiagonalRect(self.alpha[:k], self.beta[:k])


def _svd_small(m_mat):
    """Thin SVD of a small dense matrix via the augmented eigenproblem.

    Returns (s, u, v) with s of length min(shape), non-increasing, and
    m_mat ~= u @ diag(s) @ v.T.  Accuracy of every singular value is
    ~eps * s[0] (absolute), which Gram-matrix approaches cannot deliver.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    p, q = m_mat.shape
    r = min(p, q)
    aug = np.zeros((p + q, p + q))
    aug[:p, p:] = m_mat
    aug[p:, :p] = m_mat.T
    lams, z = _symmetric_eig_dense(aug)
    idx = np.argsort(-lams, kind="stable")[:r]
    s = np.clip(lams[idx], 0.0, None)
    u = z[:p, idx] * math.sqrt(2.0)
    v = z[p:, idx] * math.sqrt(2.0)
    # Degenerate pairs (only possible at the round-off floor) may have
    # unbalanced halves; renormalize where meaningful.
    for j in range(r):
        nu = float(np.linalg.norm(u[:, j]))
        nv = float(np.linalg.norm(v[:, j]))
        if nu > 1e-3:
            u[:, j] /= nu
        if nv > 1e-3:
            v[:, j] /= nv
    return s, u, v


def small_svd(t):
    """SVD of a TridiagonalRect (or small dense array).

    Returns (s, u, v): singular values non-increasing, u of shape
    (rows, k) and v of shape (k, k).
    """
    if isinstance(t, TridiagonalRect):
        t = t.dense()
    return _svd_small(t)


# ---------------------------------------------------------------------------
# spectral norm


def _gram_top_eigenvalue(m_mat):
    g = m_mat @ m_mat.T if m_mat.shape[0] <= m_mat.shape[1] else m_mat.T @ m_mat
    g = 0.5 * (g + g.T)
    return float(max(np.linalg.eigvalsh(g).max(), 0.0))


def spectral_norm(m_mat, dense_limit=DENSE_EIG_LIMIT, coarse_below=None):
    """Largest singular value of a dense matrix to ~1e-10 relative.

    Power iteration on M^T M with a deterministic start; when the convergence
    ratio cannot certify the tolerance, falls back to a dense symmetric
    eigensolve of the smaller Gram matrix (squaring is harmless for the
    largest singular value).  If coarse_below is given, a stagnated power
    estimate at or below that level is returned as is; callers use this for
    quantities already known to sit at the round-off floor.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.ndim == 1:
        m_mat = m_mat[None, :]
    if m_mat.size == 0 or not np.any(m_mat):
        return 0.0
    n = m_mat.shape[1]
    v = 1.0 + np.arange(n) / max(n, 1)
    v /= np.linalg.norm(v)
    sigma = 0.0
    prev = -1.0
    prev_delta = np.inf
    stagnant = 0
    ratio = 1.0
    for _ in range(300):
        w = m_mat @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        v = m_mat.T @ w
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return sigma
        v /= nv
        delta = abs(sigma - prev)
        if prev >= 0.0 and prev_delta > 0.0:
            ratio = delta / prev_delta
        if delta <= 1e-13 * max(sigma, 1e-300):
            stagnant += 1
            if stagnant >= 3:
                break
        else:
            stagnant = 0
        prev = sigma
        prev_delta = delta if delta > 0.0 else prev_delta
    else:
        ratio = 1.0  # cap reached without certified stagnation
    if stagnant >= 3 and ratio <= 0.99:
        return sigma
    if coarse_below is not None and sigma <= coarse_below:
        return sigma
    if max(m_mat.shape) <= dense_limit:
        return math.sqrt(_gram_top_eigenvalue(m_mat))
    return sigma


# ---------------------------------------------------------------------------
# canonical angles and least squares


def _qr_r(a):
    """R factor of a Householder QR of a tall matrix (returns k-by-k)."""
    a = np.array(a, dtype=float)
    n, k = a.shape
    for j in range(min(n - 1, k)):
        x = a[j:, j]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += nx if x[0] >= 0.0 else -nx
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        v /= nv
        a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
    return np.triu(a[:k, :k])


def canonical_angles(x, y):
    """Sines of the canonical angles between two orthonormal bases.

    Returns the singular values of (I - X X^T) Y in non-increasing order;
    the first entry is the sine of the largest principal angle.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
        raise ContractViolation("bases must be 2-d arrays of identical shape")
    k = x.shape[1]
    for name, b in (("first", x), ("second", y)):
        gram_err = np.linalg.norm(b.T @ b - np.eye(k))
        if gram_err > 1e-8:
            raise ContractViolation(
                f"{name} basis is not orthonormal (defect {gram_err:.2e})"
            )
    z = y - x @ (x.T @ y)
    s, _, _ = _svd_small(_qr_r(z))
    return np.clip(s, 0.0, 1.0)


def least_squares(m_mat, rhs):
    """Minimum-norm least squares minimizer of ||rhs - M y||.

    Rank decisions use the standard cutoff s1 * max(shape) * 1e-14 on the
    singular values from small_svd.
    """
    if isinstance(m_mat, TridiagonalRect):
        m_mat = m_mat.dense()
    m_mat = np.asarray(m_mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (m_mat.shape[0],):
        raise ContractViolation(
            f"rhs length {rhs.shape} does not match {m_mat.shape[0]} rows"
        )
    s, u, v = _svd_small(m_mat)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(m_mat.shape[1])
    keep = s > s[0] * max(m_mat.shape) * 1e-14
    c = (u[:, keep].T @ rhs) / s[keep]
    return v[:, keep] @ c
