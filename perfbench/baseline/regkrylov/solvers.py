"""Iterate traces for the minimum-residual solvers, TSVD and hybrids.

Each solver returns the full per-iteration history.  Projected least-squares
problems are re-solved from scratch at every k with Givens rotations; the
rotation cascades of successive k share an exact prefix, so reported
residual norms are non-increasing to the last ulp.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation
from .krylov import START_FILTERED, START_RESIDUAL, golub_kahan, lanczos
from .linalg import _svd_small, least_squares


@dataclass
class IterateTrace:
    """Per-iteration solutions and summary norms for one solver run."""

    solver: str
    solutions: list
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    relative_errors: np.ndarray | None
    matvecs: np.ndarray
    factorization: object = None
    breakdown: bool = False
    pseudoinverse_gaps: np.ndarray | None = None
    inner_truncations: np.ndarray | None = None

    @property
    def iterations(self):
        return len(self.solutions)

    def best(self):
        """(k, error) at the smallest relative error; ties take the first k."""
        if self.relative_errors is None:
            raise ContractViolation("trace has no relative errors")
        i = int(np.argmin(self.relative_errors))
        return i + 1, float(self.relative_errors[i])


@dataclass(frozen=True)
class HybridRule:
    """Inner regularization of the projected problem: TSVD truncated either
    at a fixed level or at the corner of the projected L-curve."""

    mode: str = "lcurve"  # lcurve | fixed
    p: int | None = None

    def validate(self, k_max):
        if self.mode not in ("lcurve", "fixed"):
            raise ContractViolation(f"unknown hybrid mode {self.mode!r}")
        if self.mode == "fixed":
            if self.p is None or self.p < 1:
                raise ContractViolation("fixed hybrid rule needs p >= 1")
            if self.p > k_max:
                raise ContractViolation(
                    f"fixed truncation p={self.p} exceeds the subspace size {k_max}"
                )


def _givens_ls(m_mat, rhs):
    """Least squares for a small (rows, k) system via Givens QR.

    Returns (y, projected residual norm).  Successive k share an identical
    rotation prefix, so the returned residual norms are non-increasing in k
    to the last ulp.  An exactly singular triangular factor (degenerate
    input) falls back to the truncated pseudoinverse.
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


def _trace_from_factorization(solver, a, b, fact, x_true, debug):
    q = fact.basis
    t_dense = fact.tridiag.dense()
    n_cols = q.shape[1]
    k_steps = fact.k
    nb = float(np.linalg.norm(b))
    if fact.start == START_RESIDUAL:
        g = np.zeros(n_cols)
        g[0] = nb
        tail2 = np.zeros(n_cols)
    else:
        g = q.T @ b
        # squared norm of b outside the first j basis directions
        tail2 = np.maximum(nb**2 - np.cumsum(g**2), 0.0)
    g_exact = q.T @ b  # for the pseudoinverse cross-check

    solutions = []
    res = []
    sol = []
    gaps = [] if debug else None
    for k in range(1, k_steps + 1):
        rows = min(k + 1, n_cols)
        y, proj = _givens_ls(t_dense[:rows, :k], g[:rows])
        x = q[:, :k] @ y
        outside2 = tail2[rows - 1] if fact.start == START_FILTERED else 0.0
        solutions.append(x)
        res.append(math.hypot(proj, math.sqrt(outside2)))
        sol.append(float(np.linalg.norm(x)))
        if debug:
            y_pi = least_squares(t_dense[:rows, :k], g_exact[:rows])
            x_pi = q[:, :k] @ y_pi
            denom = max(float(np.linalg.norm(x)), 1e-300)
            gaps.append(float(np.linalg.norm(x - x_pi)) / denom)

    rel = None
    if x_true is not None:
        nx = float(np.linalg.norm(x_true))
        rel = np.array([np.linalg.norm(x - x_true) / nx for x in solutions])
    return IterateTrace(
        solver=solver,
        solutions=solutions,
        residual_norms=np.asarray(res),
        solution_norms=np.asarray(sol),
        relative_errors=rel,
        matvecs=fact.matvec_counts.copy(),
        factorization=fact,
        breakdown=fact.breakdown,
        pseudoinverse_gaps=np.asarray(gaps) if debug else None,
    )


def minres_trace(a, b, k_max, x_true=None, debug=False):
    """Minimum-residual iterates over the Krylov spaces K_k(A, b)."""
    fact = lanczos(a, START_RESIDUAL, b, k_max)
    return _trace_from_factorization("minres", a, b, fact, x_true, debug)


def mr2_trace(a, b, k_max, x_true=None, debug=False):
    """Minimum-residual iterates over K_k(A, A b), which excludes the noisy
    right-hand side from the search space."""
    fact = lanczos(a, START_FILTERED, b, k_max)
    return _trace_from_factorization("mr2", a, b, fact, x_true, debug)


def lsqr_trace(a, b, k_max, x_true=None):
    """Least-squares iterates over the Golub-Kahan subspaces (two operator
    products per step)."""
    fact = golub_kahan(a, b, k_max)
    b_dense = fact.dense()
    nb = float(np.linalg.norm(b))
    solutions = []
    res = []
    sol = []
    for k in range(1, fact.k + 1):
        rows = min(k + 1, fact.left.shape[1])
        rhs = np.zeros(rows)
        rhs[0] = nb
        y, proj = _givens_ls(b_dense[:rows, :k], rhs)
        x = fact.right[:, :k] @ y
        solutions.append(x)
        res.append(proj)
        sol.append(float(np.linalg.norm(x)))
    rel = None
    if x_true is not None:
        nx = float(np.linalg.norm(x_true))
        rel = np.array([np.linalg.norm(x - x_true) / nx for x in solutions])
    return IterateTrace(
        solver="lsqr",
        solutions=solutions,
        residual_norms=np.asarray(res),
        solution_norms=np.asarray(sol),
        relative_errors=rel,
        matvecs=fact.matvec_counts.copy(),
        factorization=fact,
        breakdown=fact.breakdown,
    )


def tsvd_trace(decomp, b, x_true=None, k_max=None):
    """Truncated spectral-expansion solutions x_k for k = 1..k_max.

    Stops before the first exactly-zero eigenvalue.
    """
    b = np.asarray(b, dtype=float)
    n = decomp.n
    k_max = n if k_max is None else min(k_max, n)
    c = decomp.project(b)
    total2 = float(c @ c)
    x = np.zeros(n)
    solutions = []
    res = []
    sol = []
    used2 = 0.0
    for k in range(1, k_max + 1):
        lam = decomp.eigenvalues[k - 1]
        if lam == 0.0:
            break
        x = x + (c[k - 1] / lam) * decomp.column(k - 1)
        used2 += float(c[k - 1] ** 2)
        solutions.append(x)
        res.append(math.sqrt(max(total2 - used2, 0.0)))
        sol.append(float(np.linalg.norm(x)))
    rel = None
    if x_true is not None:
        nx = float(np.linalg.norm(x_true))
        rel = np.array([np.linalg.norm(s - x_true) / nx for s in solutions])
    return IterateTrace(
        solver="tsvd",
        solutions=solutions,
        residual_norms=np.asarray(res),
        solution_norms=np.asarray(sol),
        relative_errors=rel,
        matvecs=np.zeros(len(solutions), dtype=int),
    )


def _projected_tsvd_family(t_block, rhs):
    """Cumulative truncated-SVD solutions of the projected problem.

    Returns (ys, proj_residuals): ys[p-1] keeps the p largest singular
    directions; directions below the numerical-rank cutoff contribute
    nothing, so the family is constant across them.
    """
    s, u, v = _svd_small(t_block)
    k = t_block.shape[1]
    cutoff = s[0] * max(t_block.shape) * 1e-14 if s.size else 0.0
    coeffs = u.T @ rhs
    ys = []
    residuals = []
    y = np.zeros(k)
    r = rhs.copy()
    for p in range(k):
        if s[p] > cutoff:
            y = y + (coeffs[p] / s[p]) * v[:, p]
            r = r - coeffs[p] * u[:, p]
        ys.append(y)
        residuals.append(float(np.linalg.norm(r)))
    return ys, residuals


def hybrid_trace(base, a, b, k_max, rule=None, x_true=None):
    """Outer Krylov projection with inner TSVD regularization.

    At outer step k the projected tridiagonal is truncated to `p` dominant
    singular directions; p comes from the rule (fixed level or the corner of
    the projected-problem L-curve, falling back to no truncation when no
    corner exists).
    """
    from .diagnostics import LCurvePoint, lcurve_corner

    if base not in ("minres", "mr2"):
        raise ContractViolation(f"unknown hybrid base {base!r}")
    rule = rule or HybridRule()
    rule.validate(k_max)
    start = START_RESIDUAL if base == "minres" else START_FILTERED
    fact = lanczos(a, start, b, k_max)
    q = fact.basis
    t_dense = fact.tridiag.dense()
    n_cols = q.shape[1]
    nb = float(np.linalg.norm(b))
    if start == START_RESIDUAL:
        g = np.zeros(n_cols)
        g[0] = nb
        tail2 = np.zeros(n_cols)
    else:
        g = q.T @ b
        tail2 = np.maximum(nb**2 - np.cumsum(g**2), 0.0)

    solutions = []
    res = []
    sol = []
    chosen = []
    for k in range(1, fact.k + 1):
        rows = min(k + 1, n_cols)
        rhs = g[:rows]
        outside2 = tail2[rows - 1] if start == START_FILTERED else 0.0
        ys, proj_res = _projected_tsvd_family(t_dense[:rows, :k], rhs)
        true_res = [math.hypot(pr, math.sqrt(outside2)) for pr in proj_res]
        if rule.mode == "fixed":
            p = min(rule.p, k)
        else:
            # L-curve of the projected problem itself; no corner means the
            # family is truncation-neutral and the full solve is kept
            pts = [
                LCurvePoint(
                    log_residual=math.log(max(proj_res[i], 1e-300)),
                    log_solution_norm=math.log(
                        max(float(np.linalg.norm(ys[i])), 1e-300)
                    ),
                    k=i + 1,
                )
                for i in range(k)
            ]
            p = lcurve_corner(pts)
            if p is None:
                p = k
        y = ys[p - 1]
        x = q[:, :k] @ y
        solutions.append(x)
        res.append(true_res[p - 1])
        sol.append(float(np.linalg.norm(x)))
        chosen.append(p)

    rel = None
    if x_true is not None:
        nx = float(np.linalg.norm(x_true))
        rel = np.array([np.linalg.norm(x - x_true) / nx for x in solutions])
    return IterateTrace(
        solver=f"hybrid-{base}",
        solutions=solutions,
        residual_norms=np.asarray(res),
        solution_norms=np.asarray(sol),
        relative_errors=rel,
        matvecs=fact.matvec_counts.copy(),
        factorization=fact,
        breakdown=fact.breakdown,
        inner_truncations=np.asarray(chosen),
    )
