"""Iterate traces for the minimum-residual solvers, TSVD and hybrids.

`SOLVERS` maps every solver name to a callable (a, b, k_max, x_true,
decomp, cache=None); the CLI, the figure reproduction and the acceptance
suite run solvers only through it, so a new solver is added there.

A `LanczosCache` of one (A, b, k_max) holds one Lanczos factorization per
start kind, built the first time a solver asks for it.  minres and
hybrid-minres project onto the same K_k(A, b), and mr2 and hybrid-mr2 onto
the same K_k(A, A b), so a cell that runs both solvers of a pair builds
that factorization once and shares it, read-only.  The CLI's diagnostics
ask the cell's cache too, so a diagnostic builds the factorization it
needs when no listed solver did.  Each trace still reports its own matvec
counts: what that solver alone would spend.

Each solver returns the full per-iteration history, assembled on one path.
The Krylov solvers (minres, mr2, lsqr and the hybrids) share one outer
loop, `_krylov_trace`, which forms the projected problem once and differs
between them only in how the family of small projected problems, one per
k, is solved: by progressive Givens QR (`_givens_family`), which keeps R
and the rotated right-hand side across k and applies one new rotation per
step, or, for the hybrids, by the inner TSVD family of each k truncated at
the corner of its own L-curve (`_lcurve_truncation`).  Every trace, TSVD's
included, is built by `_assemble`.  Successive k share the exact Givens
prefix, so reported residual norms are non-increasing up to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .exceptions import ContractViolation
from .krylov import (
    START_FILTERED, START_RESIDUAL, LanczosFactorization, finite_rhs, golub_kahan, lanczos
)
from .linalg import _svd_small, least_squares, rank_cutoff


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

    @property
    def iterations(self):
        return len(self.solutions)

    def best(self):
        """(k, error) at the smallest relative error; ties take the first k."""
        if self.relative_errors is None:
            raise ContractViolation("trace has no relative errors")
        i = int(np.argmin(self.relative_errors))
        return i + 1, float(self.relative_errors[i])


class LanczosCache:
    """The Lanczos factorizations of one (A, b, k_max), one per start kind.

    Each is built on first use, through the module binding `lanczos`, and
    its arrays are made read-only before it is shared.  Asking for another
    operator, right-hand side or k_max is a contract violation, so a
    factorization never serves a system it was not built for.
    """

    def __init__(self, a, b, k_max):
        self.a = a
        self.b = finite_rhs(b).copy()
        self.b.flags.writeable = False
        self.k_max = k_max
        self._facts = {}

    def factorization(self, a, start, b, k_max):
        if a is not self.a or k_max != self.k_max or not np.array_equal(b, self.b):
            raise ContractViolation("the Lanczos cache belongs to another (A, b, k_max)")
        if start not in self._facts:
            fact = lanczos(a, start, self.b, k_max)
            for arr in (fact.basis, fact.matvec_counts, fact.tridiag.alpha, fact.tridiag.beta):
                arr.flags.writeable = False
            self._facts[start] = fact
        return self._facts[start]


def _lanczos(a, start, b, k_max, cache):
    """The factorization of (A, b, k_max) from `start`, shared through
    `cache` when one is given."""
    return (cache or LanczosCache(a, b, k_max)).factorization(a, start, b, k_max)


def _projected(t, g, k):
    """The projected problem of step k: the rows of T that the left basis
    spans up to step k (one fewer than k + 1 at a breakdown), and g's."""
    rows = min(k + 1, t.shape[0])
    return t[:rows, :k], g[:rows]


def _givens_family(t, g, count):
    """Givens least squares of the projected problems T_k y = g_k of every
    k = 1..count in one pass; returns [(y_k, projected residual norm)].

    Column k of a Lanczos tridiagonal or a Golub-Kahan bidiagonal has one
    entry below the diagonal, so the QR of T_k is that of T_{k-1} plus one
    rotation: R and the rotated g are kept across k.  Each rotation is
    applied across the whole row width when it is made, so every column
    meets its rotations in the same order, with the same operations, as in
    a QR of T_k alone, and the residual norms are non-increasing in k up to
    rounding.  From an exactly zero pivot on (degenerate input) each step
    falls back to the truncated pseudoinverse of its own block, whose
    recomputed residual may sit an ulp above the previous k's.
    """
    r = np.array(t, dtype=float)
    b = np.array(g, dtype=float)
    family = []
    for k in range(1, count + 1):
        j, rows = k - 1, min(k + 1, r.shape[0])
        if rows > k and r[k, j] != 0.0:
            f, h = r[j, j], r[k, j]
            rad = math.hypot(f, h)
            c, s = f / rad, h / rad
            upper = c * r[j, j:] + s * r[k, j:]
            r[k, j:] = -s * r[j, j:] + c * r[k, j:]
            r[j, j:] = upper
            b[j], b[k] = c * b[j] + s * b[k], -s * b[j] + c * b[k]
        if np.abs(np.diagonal(r)[:k]).min() == 0.0:
            m_mat, rhs = _projected(t, g, k)
            y = least_squares(m_mat, rhs)
            family.append((y, float(np.linalg.norm(rhs - m_mat @ y))))
            continue
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (b[i] - r[i, i + 1 : k] @ y[i + 1 :]) / r[i, i]
        family.append((y, float(np.linalg.norm(b[k:rows]))))
    return family


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


def _krylov_trace(solver, fact, b, x_true, solve):
    """Iterates x_k = V_k y_k of a Lanczos or Golub-Kahan factorization.

    The projected problem at step k (`_projected`) takes the rows of T that
    the left basis spans (at a breakdown the basis has one column fewer
    than T has rows) and g, the coordinates of b in that basis.
    solve(T, g, count) returns (y_k, projected residual norm) for every
    k = 1..count; tail2, the squared part of b outside the basis, adds to
    that norm in quadrature.
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
    solutions = []
    res = []
    for k, (y, proj) in enumerate(solve(t, g, fact.k), start=1):
        solutions.append(basis[:, :k] @ y)
        res.append(math.hypot(proj, math.sqrt(tail2[min(k, t.shape[0] - 1)])))
    return _assemble(solver, solutions, res, x_true, fact)


def minres_trace(a, b, k_max, x_true=None, cache=None):
    """Minimum-residual iterates over the Krylov spaces K_k(A, b)."""
    fact = _lanczos(a, START_RESIDUAL, b, k_max, cache)
    return _krylov_trace("minres", fact, b, x_true, _givens_family)


def mr2_trace(a, b, k_max, x_true=None, cache=None):
    """Minimum-residual iterates over K_k(A, A b), which excludes the noisy
    right-hand side from the search space."""
    fact = _lanczos(a, START_FILTERED, b, k_max, cache)
    return _krylov_trace("mr2", fact, b, x_true, _givens_family)


def lsqr_trace(a, b, k_max, x_true=None):
    """Least-squares iterates over the Golub-Kahan subspaces (two operator
    products per step)."""
    return _krylov_trace("lsqr", golub_kahan(a, b, k_max), b, x_true, _givens_family)


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
    cutoff = rank_cutoff(s, t_block.shape)
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


def _lcurve_truncation(t_block, rhs):
    """The member of the projected TSVD family at the corner of its own
    L-curve, and its projected residual; with no corner the family is
    truncation-neutral and the full solve is kept."""
    ys, proj_res = _projected_tsvd_family(t_block, rhs)
    pts = diagnostics.lcurve_points(proj_res, [float(np.linalg.norm(y)) for y in ys])
    p = diagnostics.lcurve_corner(pts) or t_block.shape[1]
    return ys[p - 1], proj_res[p - 1]


def hybrid_trace(base, a, b, k_max, x_true=None, cache=None):
    """Outer Krylov projection with inner TSVD regularization.

    At outer step k the projected tridiagonal is truncated to the dominant
    singular directions up to the corner of the projected-problem L-curve
    (no truncation when no corner exists).  The outer factorization is the
    one minres (or mr2) uses, shared through `cache` when one is given.
    """
    if base not in ("minres", "mr2"):
        raise ContractViolation(f"unknown hybrid base {base!r}")
    start = START_RESIDUAL if base == "minres" else START_FILTERED
    fact = _lanczos(a, start, b, k_max, cache)
    return _krylov_trace(f"hybrid-{base}", fact, b, x_true, lambda t, g, count: [
        _lcurve_truncation(*_projected(t, g, k)) for k in range(1, count + 1)])


def _hybrid(base):
    return lambda a, b, k_max, x_true, decomp, cache=None: hybrid_trace(
        base, a, b, k_max, x_true=x_true, cache=cache
    )


# Every solver by name, as a callable (a, b, k_max, x_true, decomp,
# cache=None); the Lanczos solvers share their factorizations through the
# `LanczosCache` of (a, b, k_max) when given one.  The entries look the
# public functions up when called and never hold them, so a wrapper
# installed on a module attribute sees every call.
SOLVERS = {
    "minres": lambda a, b, k_max, x_true, decomp, cache=None: minres_trace(
        a, b, k_max, x_true=x_true, cache=cache
    ),
    "mr2": lambda a, b, k_max, x_true, decomp, cache=None: mr2_trace(
        a, b, k_max, x_true=x_true, cache=cache
    ),
    "lsqr": lambda a, b, k_max, x_true, decomp, cache=None: lsqr_trace(
        a, b, k_max, x_true=x_true
    ),
    "tsvd": lambda a, b, k_max, x_true, decomp, cache=None: tsvd_trace(
        decomp, b, x_true, k_max
    ),
    "hybrid-minres": _hybrid("minres"),
    "hybrid-mr2": _hybrid("mr2"),
}
