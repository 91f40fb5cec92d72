"""Symmetric Lanczos process and Golub-Kahan bidiagonalization.

Both builders touch the operator through matrix-vector products only and
count every product, which is what the solver efficiency comparisons rest
on.  Every build reorthogonalizes fully, which emulates exact arithmetic,
and stops at a breakdown: a new off-diagonal at or below n * eps times the
running estimate of ||A||.  Every basis here is a `Basis`: the vectors are
the leading rows of one array, each new one is orthogonalized against
them by classical Gram-Schmidt applied twice, and a factorization holds
the (n, size) view of the rows, so no step copies the vectors built so
far.

`lockstep` runs Krylov builds of one operator side by side, each a step
generator (`lanczos_steps`, `golub_kahan_steps`): each round takes one
block product A X over the vectors of the live builds, a GEMM where one
matrix-vector product per build would be a memory-bound GEMV, while each
build keeps its own entries, basis, reorthogonalization, breakdown test
and matvec counts.  A lockstep can mix Lanczos builds of either start and
Golub-Kahan builds, and a build may yield a block of vectors instead of
one: the rank-k error diagnostic runs a batch of k's as one such build
(`diagnostics.lowrank_error_sequence`).  `lanczos` and `golub_kahan` are
the one-build case, which multiplies through the operator's `matvec` as a
single build always has.  The CLI builds the K_k(A, b) Lanczos and the
Golub-Kahan factorizations of all the run cells of a block in one
lockstep; see `solvers.blocks`.

`lanczos` works in the precision of the operator's storage: on
`a.astype(np.longdouble)` its vectors, products and entries are extended
precision, which is how the filter-factor diagnostics get a tridiagonal
whose errors are below double rounding.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, NumericalError
from .linalg import EPS, TridiagonalRect

START_RESIDUAL = "b"  # Krylov space K_k(A, b)
START_FILTERED = "ab"  # Krylov space K_k(A, Ab), noise damped by one A


class Basis:
    """Orthonormal vectors of length n, stored as the leading rows of one
    array of the given dtype that doubles its height only when full."""

    def __init__(self, n, capacity, dtype=float):
        self.rows = np.empty((capacity, n), dtype=dtype)
        self.size = 0

    def append(self, vec):
        if self.size == self.rows.shape[0]:
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
        self.rows[self.size] = vec
        self.size += 1

    def orthogonalize(self, w):
        """w, in place, minus its components along the stored vectors, by
        classical Gram-Schmidt applied twice.  np.dot rounds as `@` does in
        double, and in np.longdouble it is about 2.7 times as fast."""
        q = self.rows[: self.size]
        for _ in range(2):
            w -= np.dot(np.dot(q, w), q)
        return w

    @property
    def columns(self):
        """The (n, size) view of the stored vectors."""
        return self.rows[: self.size].T


@dataclass
class LanczosFactorization:
    """Orthonormal basis and rectangular tridiagonal from k Lanczos steps.

    basis has k+1 columns normally and k at breakdown (the final off-diagonal
    is then below tolerance and no new direction exists).  matvec_counts[i]
    is the cumulative number of operator products after step i+1.
    """

    basis: np.ndarray
    tridiag: TridiagonalRect
    breakdown: bool
    breakdown_step: int | None
    matvec_count: int
    matvec_counts: np.ndarray
    norm_estimate: float

    @property
    def k(self):
        return self.tridiag.k


@dataclass
class BidiagFactorization:
    """Golub-Kahan bases and lower bidiagonal B with u1 = b / ||b||."""

    left: np.ndarray  # (n, k+1) or (n, k) at breakdown
    right: np.ndarray  # (n, k)
    alpha: np.ndarray
    beta: np.ndarray  # beta[i] couples u_{i+2}; last is 0-ish at breakdown
    breakdown: bool
    breakdown_step: int | None
    matvec_count: int
    matvec_counts: np.ndarray

    @property
    def k(self):
        return self.alpha.size

    def dense(self):
        k = self.k
        b = np.zeros((k + 1, k))
        idx = np.arange(k)
        b[idx, idx] = self.alpha
        b[idx + 1, idx] = self.beta
        return b


def finite_rhs(b):
    """b as a float array; a NaN or infinite entry is a contract violation."""
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ContractViolation("right-hand side has NaN or infinite entries")
    return b


def _checked_rhs(a, b, k_max):
    """finite_rhs(b), after checking 1 <= k_max <= n and ||b|| != 0.  A
    nonzero b whose A b is zero as a builder computes it (its squares
    underflow, or A b = 0) is a NumericalError of that builder instead."""
    if k_max < 1 or k_max > a.n:
        raise ContractViolation("need 1 <= k_max <= n")
    b = finite_rhs(b)
    if np.linalg.norm(b) == 0.0:
        raise ContractViolation("right-hand side is zero")
    return b


def lockstep(a, builds):
    """Run Krylov builds of the operator a side by side and return their
    factorizations in order.

    Each build is a step generator: it yields the vector it needs
    multiplied by A, is sent the product and returns its factorization.  A
    build may instead yield an (r, n) block of vectors and is then sent
    the (r, n) block of their products (the rank-k error diagnostic runs
    several k's as one such build).  Every round multiplies the vectors of
    all live builds at once; a build that returns leaves the block.  A lone
    row from a lone build multiplies through the operator's `matvec`, so a
    single build of one vector per step, and a block build down to its
    last vector, touch A as a single build always has (a Kronecker
    operator needs this: it has no block product).  Two or more rows need
    dense storage: they use `block_matvec`, and a lone row left in a
    lockstep of two or more builds is doubled: OpenBLAS sends a one-row
    product to GEMV, which rounds differently from a GEMM row.  So where
    every GEMM of two or more rows rounds each row alike (n = 256 and
    n = 1024 with OpenBLAS 0.3.31 on one thread, though not n = 129 or
    512), a build's bytes do not depend on the builds beside it.
    """
    results = [None] * len(builds)
    live = {j: next(build) for j, build in enumerate(builds)}
    while live:
        blocks = [x if x.ndim == 2 else x[None] for x in live.values()]
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if len(rows) > 1:
            products = a.block_matvec(rows)
        elif len(builds) == 1:
            products = a.matvec(rows[0])[None]
        else:
            products = a.block_matvec(np.concatenate([rows, rows]))
        start = 0
        for (j, x), block in zip(list(live.items()), blocks):
            w = products[start : start + len(block)] if x.ndim == 2 else products[start]
            start += len(block)
            try:
                live[j] = builds[j].send(w)
            except StopIteration as done:
                results[j] = done.value
                del live[j]
    return results


def lanczos(a, start, b, k_max):
    """Up to k_max symmetric Lanczos steps from b, or from A b.

    The start vector, the basis and the tridiagonal take the dtype of the
    operator's storage.  Breakdown returns the truncated factorization
    with a flag rather than raising; the subspace is then exactly
    invariant to working precision.
    """
    return lockstep(a, [lanczos_steps(a, start, b, k_max)])[0]


def lanczos_steps(a, start, b, k_max):
    """The Lanczos build of `lanczos`, as a `lockstep` generator."""
    if start not in (START_RESIDUAL, START_FILTERED):
        raise ContractViolation(f"unknown start kind {start!r}")
    b = _checked_rhs(a, b, k_max)
    matvecs = 0
    if start == START_RESIDUAL:
        q1 = b.astype(a.dtype)
    else:
        q1 = yield b
        matvecs += 1
    nq = np.linalg.norm(q1)
    if nq == 0.0:  # b is not zero (checked above), so A b is
        raise NumericalError("A b is zero in working precision, though b is not")
    q = Basis(a.n, k_max + 1, a.dtype)
    q.append(q1 / nq)

    alphas, betas, counts = [], [], []
    norm_est, prev_beta, breakdown_step = 0.0, 0.0, None
    for i in range(k_max):
        w = yield q.rows[i]
        matvecs += 1
        alpha = q.rows[i] @ w
        w -= alpha * q.rows[i]
        if i > 0:
            w -= prev_beta * q.rows[i - 1]
        beta = np.linalg.norm(q.orthogonalize(w))
        norm_est = max(norm_est, float(abs(alpha) + beta + prev_beta))
        alphas.append(alpha)
        betas.append(beta)
        counts.append(matvecs)
        if beta <= a.n * EPS * norm_est:
            breakdown_step = i + 1
            break
        q.append(w / beta)
        prev_beta = beta

    return LanczosFactorization(
        basis=q.columns,
        tridiag=TridiagonalRect(alphas, betas),
        breakdown=breakdown_step is not None,
        breakdown_step=breakdown_step,
        matvec_count=matvecs,
        matvec_counts=np.asarray(counts),
        norm_estimate=norm_est,
    )


def golub_kahan(a, b, k_max):
    """Golub-Kahan bidiagonalization of b, with full reorthogonalization of
    both bases; it uses exactly two operator products per step."""
    return lockstep(a, [golub_kahan_steps(a, b, k_max)])[0]


def golub_kahan_steps(a, b, k_max):
    """The bidiagonalization of `golub_kahan`, as a `lockstep` generator."""
    b = _checked_rhs(a, b, k_max)
    nb = float(np.linalg.norm(b))
    u = Basis(a.n, k_max + 1)
    v = Basis(a.n, k_max)
    u.append(b / nb)
    alphas, betas, counts = [], [], []
    matvecs, norm_est, breakdown_step = 0, 0.0, None
    for i in range(k_max):
        # A is symmetric, so A^T u = A u; the product is still counted.
        w = yield u.rows[i]
        matvecs += 1
        if i:
            w -= betas[-1] * v.rows[i - 1]
            v.orthogonalize(w)
        alpha = float(np.linalg.norm(w))
        norm_est = max(norm_est, alpha + (betas[-1] if betas else 0.0))
        if alpha <= a.n * EPS * max(norm_est, 1e-300):
            breakdown_step = i + 1
            break
        v.append(w / alpha)
        alphas.append(alpha)

        w = u.orthogonalize((yield v.rows[i]) - alpha * u.rows[i])
        matvecs += 1
        beta = float(np.linalg.norm(w))
        norm_est = max(norm_est, alpha + beta)
        betas.append(beta)
        counts.append(matvecs)
        if beta <= a.n * EPS * norm_est:
            breakdown_step = i + 1
            break
        u.append(w / beta)

    if not alphas:  # the first alpha, ||A b|| / ||b||, is zero
        raise NumericalError("A b is zero in working precision, though b is not")
    return BidiagFactorization(
        left=u.columns,
        right=v.columns,
        alpha=np.asarray(alphas),
        beta=np.asarray(betas),
        breakdown=breakdown_step is not None,
        breakdown_step=breakdown_step,
        matvec_count=matvecs,
        matvec_counts=np.asarray(counts),
    )
