"""Symmetric Lanczos process and Golub-Kahan bidiagonalization.

Both builders touch the operator through matrix-vector products only and
count every product, which is what the solver efficiency comparisons rest
on.  Full reorthogonalization (classical Gram-Schmidt applied twice against
all previous basis vectors) is the default and emulates exact arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation
from .linalg import EPS, TridiagonalRect

START_RESIDUAL = "b"  # Krylov space K_k(A, b)
START_FILTERED = "ab"  # Krylov space K_k(A, Ab), noise damped by one A


@dataclass
class LanczosFactorization:
    """Orthonormal basis and rectangular tridiagonal from k Lanczos steps.

    basis has k+1 columns normally and k at breakdown (the final off-diagonal
    is then below tolerance and no new direction exists).  matvec_counts[i]
    is the cumulative number of operator products after step i+1.
    """

    start: str
    basis: np.ndarray
    tridiag: TridiagonalRect
    policy: str
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


def _reorth_twice(w, q_mat):
    for _ in range(2):
        w -= q_mat @ (q_mat.T @ w)
    return w


def lanczos(a, start, b, k_max, policy="full", breakdown_tol=None):
    """Run up to k_max symmetric Lanczos steps from b or A b.

    Breakdown (new off-diagonal at or below n*eps*||A||-scale) returns the
    truncated factorization with a flag rather than raising; the subspace is
    then exactly invariant to working precision.
    """
    if start not in (START_RESIDUAL, START_FILTERED):
        raise ContractViolation(f"unknown start kind {start!r}")
    if policy not in ("full", "none"):
        raise ContractViolation(f"unknown reorthogonalization policy {policy!r}")
    b = finite_rhs(b)
    n = a.n
    if k_max < 1 or k_max > n:
        raise ContractViolation("need 1 <= k_max <= n")
    matvecs = 0
    if start == START_RESIDUAL:
        q1 = b.copy()
    else:
        q1 = a.matvec(b)
        matvecs += 1
    nq = float(np.linalg.norm(q1))
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
        alpha = float(cols[-1] @ w)
        w = w - alpha * cols[-1]
        if i > 0:
            w -= prev_beta * cols[-2]
        if policy == "full":
            w = _reorth_twice(w, q_mat)
        beta = float(np.linalg.norm(w))
        norm_est = max(norm_est, abs(alpha) + beta + prev_beta)
        tol = breakdown_tol if breakdown_tol is not None else n * EPS * norm_est
        alphas.append(alpha)
        betas.append(beta)
        counts.append(matvecs)
        if beta <= tol:
            breakdown = True
            breakdown_step = i + 1
            break
        cols.append(w / beta)
        prev_beta = beta

    return LanczosFactorization(
        start=start,
        basis=np.column_stack(cols),
        tridiag=TridiagonalRect(alphas, betas),
        policy=policy,
        breakdown=breakdown,
        breakdown_step=breakdown_step,
        matvec_count=matvecs,
        matvec_counts=np.asarray(counts),
        norm_estimate=norm_est,
    )


def golub_kahan(a, b, k_max, breakdown_tol=None):
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
        tol = breakdown_tol if breakdown_tol is not None else n * EPS * max(norm_est, 1e-300)
        if alpha <= tol:
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
        tol = breakdown_tol if breakdown_tol is not None else n * EPS * norm_est
        if beta <= tol:
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
