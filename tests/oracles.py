"""Independent reference computations used only for checking.

Everything here deliberately avoids the code paths of the package: the
eigen oracle is a cyclic Jacobi sweep, the SVD oracle is one-sided
(Hestenes) Jacobi, and the Krylov least-squares oracles build an Arnoldi
basis by modified Gram-Schmidt and solve with numpy's lstsq.  The
exceptions are computations the package must reproduce bit for bit:
`givens_ls`, the per-k Givens solve (it shares the package's
pseudoinverse fallback for that reason), and the dense set-up by
`meshgrid_problem` and `polished_eig`, which form every kernel on full
meshgrids and the Rayleigh quotients from one full longdouble product.
`dense` forms a Kronecker operator's matrix, which the package refuses to.
`lanczos` and `golub_kahan` are the package's builders as they were before
the bases moved into one row store: Python lists of columns, re-stacked by
`np.column_stack` at every step.  They agree with the package to rounding,
not bit for bit.
`deflated_norm` is the rank-k error's build of one k as it was before the
k's ran in batches; a batch of one k must reproduce it bit for bit.
`spectral_twin` rebuilds a problem from its eigenpairs with the
eigenvalues mapped, as evidence for what the acceptance criteria's misses
depend on, and `read_trace_csv` parses the package's trace CSVs.
"""

import dataclasses
import math

import numpy as np

from regkrylov.exceptions import ContractViolation
from regkrylov.krylov import (
    START_FILTERED,
    START_RESIDUAL,
    Basis,
    BidiagFactorization,
    LanczosFactorization,
    finite_rhs,
)
from regkrylov.linalg import (
    EPS,
    SpectralDecomposition,
    SymmetricMatrix,
    TridiagonalRect,
    least_squares,
)


def jacobi_eigh(a, sweeps=60, tol=1e-15):
    """Cyclic two-sided Jacobi eigenvalue iteration for symmetric matrices."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                off = max(off, abs(apq))
                if abs(apq) <= tol * np.sqrt(abs(a[p, p] * a[q, q])) or apq == 0.0:
                    continue
                zeta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(zeta, 1.0))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                rp = a[:, p].copy()
                rq = a[:, q].copy()
                a[:, p] = c * rp - s * rq
                a[:, q] = s * rp + c * rq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if off <= 1e-18:
            break
    return np.diag(a).copy(), v


def jacobi_svd(m, sweeps=60):
    """One-sided (Hestenes) Jacobi SVD; returns singular values descending."""
    u = np.array(m, dtype=float)
    transposed = False
    if u.shape[0] < u.shape[1]:
        u = u.T.copy()
        transposed = True
    rows, cols = u.shape
    v = np.eye(cols)
    for _ in range(sweeps):
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                alpha = u[:, p] @ u[:, p]
                beta = u[:, q] @ u[:, q]
                gamma = u[:, p] @ u[:, q]
                if abs(gamma) <= 1e-16 * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(zeta, 1.0))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                up = u[:, p].copy()
                u[:, p] = c * up - s * u[:, q]
                u[:, q] = s * up + c * u[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if not rotated:
            break
    svals = np.linalg.norm(u, axis=0)
    order = np.argsort(-svals)
    return svals[order]


def krylov_subspace_minimizer(matvec, b, k):
    """Minimizer of ||b - A x|| over span{Ab, ..., A^k b}, on the Arnoldi
    basis."""
    return arnoldi_minimizers(matvec, matvec(np.asarray(b, dtype=float)), b, k)[-1]


def krylov_residual_minimizer(matvec, b, k):
    """Minimizer of ||b - A x|| over span{b, ..., A^{k-1} b}, on the Arnoldi
    basis."""
    return arnoldi_minimizers(matvec, np.asarray(b, dtype=float), b, k)[-1]


def arnoldi_basis(matvec, start, k):
    """Orthonormal basis of span{start, ..., A^{k-1} start} built one vector
    at a time: each new vector is A times the last one, orthogonalized by
    modified Gram-Schmidt applied twice.  Unlike the power basis, it stays
    well conditioned deep into the ill-posed regime."""
    w = np.asarray(start, dtype=float)
    cols = [w / np.linalg.norm(w)]
    for _ in range(k - 1):
        w = matvec(cols[-1])
        for _ in range(2):
            for q in cols:
                w = w - (q @ w) * q
        cols.append(w / np.linalg.norm(w))
    return np.column_stack(cols)


def arnoldi_minimizers(matvec, start, b, k_max):
    """Minimizers of ||b - A x|| over the first k columns of the Arnoldi
    basis from `start`, for k = 1..k_max, each solved with lstsq."""
    basis = arnoldi_basis(matvec, start, k_max)
    image = np.column_stack([matvec(basis[:, j]) for j in range(k_max)])
    out = []
    for k in range(1, k_max + 1):
        z, *_ = np.linalg.lstsq(image[:, :k], b, rcond=None)
        out.append(basis[:, :k] @ z)
    return out


def givens_ls(m_mat, rhs):
    """Least squares for one small (rows, k) projected system via a Givens
    QR of that system alone; returns (y, projected residual norm).

    Every column is rotated from its last row up, skipping exact zeros.  An
    exactly singular triangular factor falls back to the package's
    truncated pseudoinverse.
    """
    r = np.array(m_mat, dtype=float)
    b = np.array(rhs, dtype=float)
    rows, k = r.shape
    for j in range(k):
        for i in range(rows - 1, j, -1):
            if r[i, j] == 0.0:
                continue
            f, g = r[i - 1, j], r[i, j]
            rad = math.hypot(f, g)
            c, s = f / rad, g / rad
            upper = c * r[i - 1, j:] + s * r[i, j:]
            r[i, j:] = -s * r[i - 1, j:] + c * r[i, j:]
            r[i - 1, j:] = upper
            b[i - 1], b[i] = c * b[i - 1] + s * b[i], -s * b[i - 1] + c * b[i]
    diag = np.abs(np.diag(r[:k, :k]))
    if k and diag.min() == 0.0:
        y = least_squares(m_mat, rhs)
        return y, float(np.linalg.norm(rhs - m_mat @ y))
    y = np.zeros(k)
    for j in range(k - 1, -1, -1):
        y[j] = (b[j] - r[j, j + 1 :] @ y[j + 1 :]) / r[j, j]
    return y, float(np.linalg.norm(b[k:]))


def _meshgrid_kernel(name, n):
    """Kernel matrix and exact solution of a 1-D test problem, each kernel
    evaluated on full (s, t) meshgrids of the midpoint nodes."""
    lo, hi = {"shaw": (-np.pi / 2, np.pi / 2), "phillips": (-6.0, 6.0)}.get(name, (0.0, 1.0))
    h = (hi - lo) / n
    t = lo + (np.arange(n) + 0.5) * h
    s, tt = np.meshgrid(t, t, indexing="ij")

    def psi(x):
        return np.where(np.abs(x) < 3.0, 1.0 + np.cos(np.pi * x / 3.0), 0.0)

    if name == "shaw":
        u = np.pi * (np.sin(s) + np.sin(tt))
        safe = np.where(u == 0.0, 1.0, u)
        sinc = np.where(u == 0.0, 1.0, np.sin(safe) / safe)
        a = h * (np.cos(s) + np.cos(tt)) ** 2 * sinc**2
        x = 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    elif name == "foxgood":
        a, x = h * np.sqrt(s**2 + tt**2), t.copy()
    elif name == "gravity":
        depth = 0.25
        a = h * depth * (depth**2 + (s - tt) ** 2) ** -1.5
        x = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    elif name == "phillips":
        a, x = h * psi(s - tt), psi(t)
    else:
        a, x = h * np.where(s <= tt, s * (tt - 1.0), tt * (s - 1.0)), t.copy()
    return a, x


def meshgrid_problem(name, n):
    """(A, x_true, b_hat) of a 1-D test problem: the meshgrid kernel
    averaged with its transpose, and b_hat = A x_true by np.dot."""
    a, x = _meshgrid_kernel(name, n)
    a = 0.5 * (a + a.T)
    return a, x, np.dot(a, x)


def dense(a):
    """The dense matrix of a SymmetricMatrix; a Kronecker operator's is
    np.kron(T, T) of its factor, which the package never forms."""
    return np.kron(a.factor, a.factor) if a.is_kronecker else a.dense()


def polished_eig(a):
    """Eigenvalues and eigenvectors of a dense symmetric matrix in the
    package's order: LAPACK vectors, eigenvalues replaced by the Rayleigh
    quotients of one full longdouble product A Q."""
    _, q = np.linalg.eigh(a)
    a_ld = a.astype(np.longdouble)
    q_ld = q.astype(np.longdouble)
    w = a_ld @ q_ld
    num = np.einsum("ij,ij->j", q_ld, w)
    den = np.einsum("ij,ij->j", q_ld, q_ld)
    lams = (num / den).astype(float)
    order = np.lexsort((np.arange(lams.size), (lams < 0).astype(int), -np.abs(lams)))
    return lams[order], q[:, order]


def _reorth_twice(w, q_mat):
    for _ in range(2):
        w -= q_mat @ (q_mat.T @ w)
    return w


def lanczos(a, start, b, k_max):
    """Run up to k_max symmetric Lanczos steps from b or A b.

    The start vector, the basis and the tridiagonal take the dtype of the
    operator's storage.  Breakdown returns the truncated factorization
    with a flag rather than raising; the subspace is then exactly
    invariant to working precision.
    """
    if start not in (START_RESIDUAL, START_FILTERED):
        raise ContractViolation(f"unknown start kind {start!r}")
    b = finite_rhs(b)
    n = a.n
    if k_max < 1 or k_max > n:
        raise ContractViolation("need 1 <= k_max <= n")
    matvecs = 0
    if start == START_RESIDUAL:
        q1 = b.astype(a.dtype)
    else:
        q1 = a.matvec(b)
        matvecs += 1
    nq = np.linalg.norm(q1)
    if nq == 0.0:
        raise ContractViolation("starting vector is zero")
    q1 /= nq

    cols = [q1]
    alphas = []
    betas = []
    counts = []
    norm_est = 0.0
    breakdown = False
    breakdown_step = None
    prev_beta = 0.0
    for i in range(k_max):
        q_mat = np.column_stack(cols)
        w = a.matvec(cols[-1])
        matvecs += 1
        alpha = cols[-1] @ w
        w = w - alpha * cols[-1]
        if i > 0:
            w -= prev_beta * cols[-2]
        w = _reorth_twice(w, q_mat)
        beta = np.linalg.norm(w)
        norm_est = max(norm_est, float(abs(alpha) + beta + prev_beta))
        alphas.append(alpha)
        betas.append(beta)
        counts.append(matvecs)
        if beta <= n * EPS * norm_est:
            breakdown = True
            breakdown_step = i + 1
            break
        cols.append(w / beta)
        prev_beta = beta

    return LanczosFactorization(
        basis=np.column_stack(cols),
        tridiag=TridiagonalRect(alphas, betas),
        breakdown=breakdown,
        breakdown_step=breakdown_step,
        matvec_count=matvecs,
        matvec_counts=np.asarray(counts),
        norm_estimate=norm_est,
    )


def golub_kahan(a, b, k_max):
    """Golub-Kahan bidiagonalization with full reorthogonalization of both
    bases; uses exactly two operator products per step."""
    b = finite_rhs(b)
    n = a.n
    if k_max < 1 or k_max > n:
        raise ContractViolation("need 1 <= k_max <= n")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        raise ContractViolation("right-hand side is zero")
    u_cols = [b / nb]
    v_cols = []
    alphas = []
    betas = []
    counts = []
    matvecs = 0
    norm_est = 0.0
    breakdown = False
    breakdown_step = None
    for i in range(k_max):
        # A is symmetric, so A^T u = A u; the product is still counted.
        v = a.matvec(u_cols[-1])
        matvecs += 1
        if v_cols:
            v -= betas[-1] * v_cols[-1]
            v = _reorth_twice(v, np.column_stack(v_cols))
        alpha = float(np.linalg.norm(v))
        norm_est = max(norm_est, alpha + (betas[-1] if betas else 0.0))
        if alpha <= n * EPS * max(norm_est, 1e-300):
            breakdown = True
            breakdown_step = i + 1
            break
        v /= alpha
        v_cols.append(v)
        alphas.append(alpha)

        u = a.matvec(v) - alpha * u_cols[-1]
        matvecs += 1
        u = _reorth_twice(u, np.column_stack(u_cols))
        beta = float(np.linalg.norm(u))
        norm_est = max(norm_est, alpha + beta)
        betas.append(beta)
        counts.append(matvecs)
        if beta <= n * EPS * norm_est:
            breakdown = True
            breakdown_step = i + 1
            break
        u_cols.append(u / beta)

    if not alphas:
        raise ContractViolation("bidiagonalization broke down before one step")
    return BidiagFactorization(
        left=np.column_stack(u_cols),
        right=np.column_stack(v_cols),
        alpha=np.asarray(alphas),
        beta=np.asarray(betas),
        breakdown=breakdown,
        breakdown_step=breakdown_step,
        matvec_count=matvecs,
        matvec_counts=np.asarray(counts),
    )


def deflated_norm(a, q_k, start, norm_a):
    """||A (I - Q_k Q_k^T)|| by Golub-Kahan on A (I - Q_k Q_k^T) from `start`:
    one `Basis` holds Q_k and then the v's, a second the u's, and the loop
    stops on the Ritz residual beta_j |x_j| <= max(LOWRANK_RITZ_TOL * s,
    eps * norm_a), at a zero alpha, or when the complement is exhausted."""
    from regkrylov.diagnostics import LOWRANK_RITZ_TOL

    n, k = q_k.shape
    vs = Basis(n, k + 8)
    for q in q_k.T:
        vs.append(q)
    us = Basis(n, 8)
    v = vs.orthogonalize(start.copy())
    v /= np.linalg.norm(v)
    alphas, betas = [], []
    for j in range(n - k):
        vs.append(v)
        u = a.matvec(v)
        if j:
            u -= betas[-1] * us.rows[j - 1]
            us.orthogonalize(u)
        alphas.append(float(np.linalg.norm(u)))
        x, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        if alphas[-1] == 0.0:
            break
        us.append(u / alphas[-1])
        v = vs.orthogonalize(a.matvec(us.rows[j]) - alphas[-1] * v)
        betas.append(float(np.linalg.norm(v)))
        if betas[-1] * abs(x[-1, 0]) <= max(LOWRANK_RITZ_TOL * s[0], EPS * norm_a):
            break
        v /= betas[-1]
    return float(s[0])


def spectral_twin(problem, decomp, f):
    """A dense problem's twin with eigenvalues f(lambda), and its
    decomposition: the operator V diag(f(lambda)) V^T from decomp's
    eigenvectors, problem's x_true, and b_hat recomputed as the twin's
    product with x_true.  Its eigenvalues keep decomp's order, so
    f = np.abs keeps its sigmas.  With f the identity the twin is the
    problem itself up to rounding."""
    lams = f(decomp.eigenvalues)
    v = decomp.columns(decomp.n)
    a = SymmetricMatrix(dense=(v * lams) @ v.T)
    twin = dataclasses.replace(problem, a=a, b_hat=a.matvec(problem.x_true))
    return twin, SpectralDecomposition(lams, v=v)


def read_trace_csv(path):
    """Parse a trace CSV back into per-iteration float arrays."""
    with open(path) as fh:
        header, *rows = fh.read().strip().split("\n")
    cells = [row.split(",") for row in rows]
    out = {name: np.asarray([float(c[j]) if c[j] else math.nan for c in cells])
           for j, name in enumerate(header.split(","))}
    out["k"] = out["k"].astype(int)
    return out
