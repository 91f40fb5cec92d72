"""Iterate traces for the minimum-residual solvers, TSVD and hybrids.

`SOLVERS` maps every solver name to a callable (a, b, k_max, x_true,
decomp); the CLI, the figure reproduction and the acceptance suite run
solvers only through it, so a new solver is added there.

Each solver returns the full per-iteration history, assembled on one path.
The Krylov solvers (minres, mr2, lsqr and the hybrids) share one outer
loop, `_krylov_trace`, which forms the projected problem once and differs
between them only in the solve of the small projected problem at each k:
Givens least squares (`_givens_ls`), or the inner TSVD family and its
truncation rule.  Every trace, TSVD's included, is built by `_assemble`.
The Givens cascades of successive k share an exact prefix, so reported
residual norms are non-increasing up to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .exceptions import ContractViolation
from .krylov import (
    START_FILTERED, START_RESIDUAL, LanczosFactorization, finite_rhs, golub_kahan, lanczos
)
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
    up to rounding.  An exactly singular triangular factor (degenerate
    input) falls back to the truncated pseudoinverse, whose recomputed
    residual may sit an ulp above the previous k's.
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


def _assemble(solver, solutions, res, x_true, fact=None):
    """The trace of `solutions` with reported residual norms `res`."""
    rel = None
    if x_true is not None:
        nx = float(np.linalg.norm(x_true))
        rel = np.array([np.linalg.norm(x - x_true) / nx for x in solutions])
    return IterateTrace(
        solver=solver,
        solutions=solutions,
        residual_norms=np.asarray(res),
        solution_norms=np.asarray([float(np.linalg.norm(x)) for x in solutions]),
        relative_errors=rel,
        matvecs=(
            np.zeros(len(solutions), dtype=int) if fact is None else fact.matvec_counts.copy()
        ),
        factorization=fact,
        breakdown=fact is not None and fact.breakdown,
    )


def _krylov_trace(solver, fact, b, x_true, solve, debug=False):
    """Iterates x_k = V_k y_k of a Lanczos or Golub-Kahan factorization.

    The projected problem at step k takes the rows of T that the left basis
    spans (at a breakdown the basis has one column fewer than T has rows)
    and g, the coordinates of b in that basis.  solve(T_k, g_k) returns y_k
    and its projected residual norm; tail2, the squared part of b outside
    the basis, adds to that norm in quadrature.  `debug` records each
    iterate's relative gap to the pseudoinverse solution with g = Q^T b.
    """
    if isinstance(fact, LanczosFactorization):
        t, left, basis = fact.tridiag.dense(), fact.basis, fact.basis
    else:
        t, left, basis = fact.dense(), fact.left, fact.right
    t = t[: left.shape[1]]
    nb = float(np.linalg.norm(b))
    if getattr(fact, "start", None) == START_FILTERED:
        g = left.T @ b
        tail2 = np.maximum(nb**2 - np.cumsum(g**2), 0.0)
    else:  # the left basis starts at b / ||b||
        g = np.zeros(t.shape[0])
        g[0] = nb
        tail2 = np.zeros(t.shape[0])
    g_exact = left.T @ b if debug else None
    solutions = []
    res = []
    gaps = []
    for k in range(1, fact.k + 1):
        rows = min(k + 1, t.shape[0])
        y, proj = solve(t[:rows, :k], g[:rows])
        x = basis[:, :k] @ y
        solutions.append(x)
        res.append(math.hypot(proj, math.sqrt(tail2[rows - 1])))
        if debug:
            x_pi = basis[:, :k] @ least_squares(t[:rows, :k], g_exact[:rows])
            gaps.append(float(np.linalg.norm(x - x_pi)) / max(float(np.linalg.norm(x)), 1e-300))
    trace = _assemble(solver, solutions, res, x_true, fact)
    if debug:
        trace.pseudoinverse_gaps = np.asarray(gaps)
    return trace


def minres_trace(a, b, k_max, x_true=None, debug=False):
    """Minimum-residual iterates over the Krylov spaces K_k(A, b)."""
    fact = lanczos(a, START_RESIDUAL, b, k_max)
    return _krylov_trace("minres", fact, b, x_true, _givens_ls, debug)


def mr2_trace(a, b, k_max, x_true=None, debug=False):
    """Minimum-residual iterates over K_k(A, A b), which excludes the noisy
    right-hand side from the search space."""
    fact = lanczos(a, START_FILTERED, b, k_max)
    return _krylov_trace("mr2", fact, b, x_true, _givens_ls, debug)


def lsqr_trace(a, b, k_max, x_true=None):
    """Least-squares iterates over the Golub-Kahan subspaces (two operator
    products per step)."""
    return _krylov_trace("lsqr", golub_kahan(a, b, k_max), b, x_true, _givens_ls)


def tsvd_trace(decomp, b, x_true=None, k_max=None):
    """Truncated spectral-expansion solutions x_k for k = 1..k_max.

    Stops before the first exactly-zero eigenvalue.
    """
    b = finite_rhs(b)
    n = decomp.n
    k_max = n if k_max is None else min(k_max, n)
    c = decomp.project(b)
    total2 = float(c @ c)
    x = np.zeros(n)
    solutions = []
    res = []
    used2 = 0.0
    for k in range(1, k_max + 1):
        lam = decomp.eigenvalues[k - 1]
        if lam == 0.0:
            break
        x = x + (c[k - 1] / lam) * decomp.column(k - 1)
        used2 += float(c[k - 1] ** 2)
        solutions.append(x)
        res.append(math.sqrt(max(total2 - used2, 0.0)))
    return _assemble("tsvd", solutions, res, x_true)


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
    if base not in ("minres", "mr2"):
        raise ContractViolation(f"unknown hybrid base {base!r}")
    rule = rule or HybridRule()
    rule.validate(k_max)
    chosen = []

    def solve(t_block, rhs):
        ys, proj_res = _projected_tsvd_family(t_block, rhs)
        k = t_block.shape[1]
        if rule.mode == "fixed":
            p = min(rule.p, k)
        else:
            # L-curve of the projected problem itself; no corner means the
            # family is truncation-neutral and the full solve is kept
            pts = [
                diagnostics.LCurvePoint(
                    log_residual=math.log(max(proj_res[i], 1e-300)),
                    log_solution_norm=math.log(max(float(np.linalg.norm(ys[i])), 1e-300)),
                    k=i + 1,
                )
                for i in range(k)
            ]
            p = diagnostics.lcurve_corner(pts)
            if p is None:
                p = k
        chosen.append(p)
        return ys[p - 1], proj_res[p - 1]

    start = START_RESIDUAL if base == "minres" else START_FILTERED
    trace = _krylov_trace(f"hybrid-{base}", lanczos(a, start, b, k_max), b, x_true, solve)
    trace.inner_truncations = np.asarray(chosen)
    return trace


def _hybrid(base):
    return lambda a, b, k_max, x_true, decomp: hybrid_trace(base, a, b, k_max, x_true=x_true)


# Every solver by name, as a callable (a, b, k_max, x_true, decomp).  The
# entries look the public functions up when called and never hold them, so
# a wrapper installed on a module attribute sees every call.
SOLVERS = {
    "minres": lambda a, b, k_max, x_true, decomp: minres_trace(a, b, k_max, x_true=x_true),
    "mr2": lambda a, b, k_max, x_true, decomp: mr2_trace(a, b, k_max, x_true=x_true),
    "lsqr": lambda a, b, k_max, x_true, decomp: lsqr_trace(a, b, k_max, x_true=x_true),
    "tsvd": lambda a, b, k_max, x_true, decomp: tsvd_trace(decomp, b, x_true, k_max),
    "hybrid-minres": _hybrid("minres"),
    "hybrid-mr2": _hybrid("mr2"),
}
