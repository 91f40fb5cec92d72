"""Iterate traces for the minimum-residual solvers, TSVD and hybrids.

`SOLVERS` maps every solver name to a callable (a, b, k_max, x_true,
decomp, cache=None); the CLI, the figure reproduction and the acceptance
suite run solvers only through it, so a new solver is added there.

`KINDS` alone says which factorization each Krylov solver reads, and a
`LanczosCache` of one (A, b, k_max) builds each kind on its first `get`.
minres and hybrid-minres project onto the same K_k(A, b), and mr2 and
hybrid-mr2 onto the same K_k(A, A b), so a cell that runs both solvers of
a pair builds that factorization once and shares it, read-only.  The CLI's
diagnostics ask the cell's cache too, by `KINDS`, so a diagnostic builds
the factorization it needs when no listed solver did.  Each trace still
reports its own matvec counts: what that solver alone would spend.
`blocks` splits a run's cells, the noise draws of one operator, into blocks
(of one cell on Kronecker storage), and `block_caches` fills a block's
caches with their K_k(A, b) and Golub-Kahan factorizations built in one
`krylov.lockstep`.

Each solver returns the full per-iteration history, assembled on one path.
The Krylov solvers (minres, mr2, lsqr and the hybrids) share one outer
loop, `_krylov_trace`, which forms the projected problem once and differs
between them only in how the family of small projected problems, one per
k, is solved: by progressive Givens QR (`_givens_family`), which keeps R
and the rotated right-hand side across k and applies one new rotation per
step, or, for the hybrids, by the inner TSVD family of each k truncated at
the corner of its own L-curve (`_lcurve_truncation`).  Every trace, TSVD's
included, is built by `_assemble`.  Successive k share the exact Givens
prefix, so reported residual norms are non-increasing up to rounding.  The
part of b that a truncated expansion leaves out (TSVD's, the inner TSVD's,
and mr2's outside its basis) is summed from the tail end by `_tail_norms`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .exceptions import ContractViolation
from .krylov import (
    START_FILTERED,
    START_RESIDUAL,
    finite_rhs,
    golub_kahan,
    golub_kahan_steps,
    lanczos,
    lanczos_steps,
    lockstep,
)
from .linalg import _svd_small, least_squares, rank_cutoff


@dataclass
class IterateTrace:
    """Per-iteration solutions and summary norms for one solver run."""

    solutions: list
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    relative_errors: np.ndarray | None
    matvecs: np.ndarray
    factorization: object = None

    @property
    def iterations(self):
        return len(self.solutions)

    def best(self):
        """(k, error) at the smallest relative error; ties take the first k."""
        if self.relative_errors is None:
            raise ContractViolation("trace has no relative errors")
        i = int(np.argmin(self.relative_errors))
        return i + 1, float(self.relative_errors[i])


GOLUB_KAHAN = "golub-kahan"  # the kind of the Golub-Kahan factorization

# The factorization each Krylov solver reads: the Lanczos factorization of
# K_k(A, b) or of K_k(A, A b), or the Golub-Kahan one.
KINDS = {"minres": START_RESIDUAL, "hybrid-minres": START_RESIDUAL, "mr2": START_FILTERED,
         "hybrid-mr2": START_FILTERED, "lsqr": GOLUB_KAHAN}


class LanczosCache:
    """The Krylov factorizations of one (A, b, k_max), by kind: one Lanczos
    factorization per start kind and the Golub-Kahan factorization.

    `get` builds each on first use, through the module bindings `lanczos`
    and `golub_kahan`, unless `put` stored it first, and its arrays are
    made read-only before it is shared.
    """

    def __init__(self, a, b, k_max):
        self.a = a
        self.b = finite_rhs(b).copy()
        self.b.flags.writeable = False
        self.k_max = k_max
        self._facts = {}

    def put(self, kind, fact):
        """Store fact, the factorization of this cache's system of `kind`
        (a start kind or GOLUB_KAHAN), read-only."""
        if kind == GOLUB_KAHAN:
            arrays = (fact.left, fact.right, fact.alpha, fact.beta, fact.matvec_counts)
        else:
            arrays = (fact.basis, fact.matvec_counts, fact.tridiag.alpha, fact.tridiag.beta)
        for arr in arrays:
            arr.flags.writeable = False
        self._facts[kind] = fact

    def get(self, kind):
        """The factorization of `kind` (a start kind or GOLUB_KAHAN)."""
        if kind not in self._facts:
            if kind == GOLUB_KAHAN:
                self.put(kind, golub_kahan(self.a, self.b, self.k_max))
            else:
                self.put(kind, lanczos(self.a, kind, self.b, self.k_max))
        return self._facts[kind]


def _factorization(solver, a, b, k_max, cache):
    """The factorization `solver` reads of (A, b, k_max), shared through
    `cache` when one is given; a cache of another system is refused, so a
    factorization never serves a system it was not built for."""
    if cache is None:
        cache = LanczosCache(a, b, k_max)
    elif a is not cache.a or k_max != cache.k_max or not np.array_equal(b, cache.b):
        raise ContractViolation("the Lanczos cache belongs to another (A, b, k_max)")
    return cache.get(KINDS[solver])


# The kinds that `block_caches` builds for a block of cells, and the bases
# each holds per cell.  The K_k(A, Ab) factorization of mr2, hybrid-mr2 and
# the lowrank, decay and angles diagnostics stays per cell, built by the
# cache on first use: batching it too moved hybrid-mr2's best k on the
# seed-1 sweep-dense benchmark at eps = 1e-4, seed 1003, from 14 to 15
# (best error 0.0239390080897 to 0.0239390080892), on a round-off plateau
# whose k the benchmark's reference pins, and the breakdown of mr2 at
# eps = 1e-4, seed 1006, from step 18 to 17.
_BATCHED = {START_RESIDUAL: 1, GOLUB_KAHAN: 2}


def _block_kinds(names):
    return sorted({KINDS[name] for name in names if KINDS.get(name) in _BATCHED})


def builds_per_block(a, k_max, bases):
    """How many Krylov builds of k_max + 1 vectors in each of `bases` bases
    one lockstep runs side by side: as many as keep their bases within the
    doubles of the operator's dense storage, n // ((k_max + 1) * bases), at
    least one.  A Kronecker operator multiplies one vector at a time, so
    its cap is one: one build's bases, (k_max + 1) * bases * m^2 doubles,
    always exceed its factor's m^2.  The rank-k error diagnostic batches
    its k's by this rule with one basis and the factorization's order; its
    builds hold as many vectors as they take steps, not k_max + 1, so it
    also bounds each batch's bases by n^2 doubles as they grow
    (`diagnostics.lowrank_error_sequence`)."""
    if a.is_kronecker:
        return 1
    return max(1, a.n // ((k_max + 1) * bases))


def cells_per_block(a, k_max, names):
    """The cap on a block's cells: `builds_per_block` for the bases that
    `block_caches` builds for the named solvers, and one when it builds
    none."""
    bases = sum(_BATCHED[kind] for kind in _block_kinds(names))
    return builds_per_block(a, k_max, bases) if bases else 1


def blocks(a, cells, k_max, names):
    """cells split, in order, into the fewest near-equal blocks of at most
    `cells_per_block` cells.  Where that would leave a block of one cell in
    a run of several, a block takes one cell more than the cap instead: a
    lone cell multiplies through the operator's matvec, which rounds
    differently from a block product, and a cell's bytes should not depend
    on how its run is split.  So a block's bases can exceed the operator's
    storage by one cell's, at most half of it, and the cell phase of a run
    grows by at most the storage over one-cell blocks
    (`test_block_bases_stay_within_the_operator_storage`)."""
    cap = cells_per_block(a, k_max, names)
    count = -(-len(cells) // cap)
    if cap > 1:
        count = max(1, min(count, len(cells) // 2))
    size, extra = divmod(len(cells), count)
    bounds = np.cumsum([0] + [size + (i < extra) for i in range(count)])
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def block_caches(a, bs, k_max, names):
    """One `LanczosCache` of (A, b, k_max) for every b in bs.  A block of two
    or more builds the factorizations the named solvers read from K_k(A, b)
    and Golub-Kahan for all its cells in one `lockstep`; a lone cell's cache
    builds each kind on first use, through `matvec`."""
    caches = [LanczosCache(a, b, k_max) for b in bs]
    if len(caches) < 2:
        return caches
    builds = [(cache, kind) for kind in _block_kinds(names) for cache in caches]
    facts = lockstep(a, [
        golub_kahan_steps(a, cache.b, k_max) if kind == GOLUB_KAHAN
        else lanczos_steps(a, kind, cache.b, k_max) for cache, kind in builds])
    for (cache, kind), fact in zip(builds, facts):
        cache.put(kind, fact)
    return caches


def _projected(t, g, k):
    """The projected problem of step k: the rows of T that the left basis
    spans up to step k (one fewer than k + 1 at a breakdown), and g's."""
    rows = min(k + 1, t.shape[0])
    return t[:rows, :k], g[:rows]


def _tail_norms(c, outside2=0.0):
    """sqrt(sum_{i>j} c_i^2 + outside2) for j = 0..len(c): the norm of what
    the first j terms of an expansion with coefficients c leave out, outside2
    being the squared part outside its basis.  The squares are summed from
    the tail end and never subtracted from a total, so no tail cancels."""
    suffix = np.cumsum((c**2)[::-1])[::-1]
    return np.sqrt(np.append(suffix, 0.0) + outside2)


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


def _assemble(solutions, res, x_true, fact=None):
    """The trace of `solutions` with reported residual norms `res`."""
    rel = None
    if x_true is not None:
        nx = float(np.linalg.norm(x_true))
        rel = np.array([np.linalg.norm(x - x_true) / nx for x in solutions])
    return IterateTrace(
        solutions=solutions,
        residual_norms=np.asarray(res),
        solution_norms=np.asarray([float(np.linalg.norm(x)) for x in solutions]),
        relative_errors=rel,
        matvecs=(
            np.zeros(len(solutions), dtype=int) if fact is None else fact.matvec_counts.copy()
        ),
        factorization=fact,
    )


def _krylov_trace(solver, a, b, k_max, x_true, cache, solve):
    """Iterates x_k = V_k y_k of the factorization `solver` reads.

    The projected problem at step k (`_projected`) takes the rows of T that
    the left basis spans (at a breakdown the basis has one column fewer
    than T has rows) and g, the coordinates of b in that basis.
    solve(T, g, count) returns (y_k, projected residual norm) for every
    k = 1..count.  The part of b that step k leaves out, the `_tail_norms`
    of g past its rows and of b - Q g (zero for a basis started at b), adds
    to that norm in quadrature.
    """
    kind = KINDS[solver]
    fact = _factorization(solver, a, b, k_max, cache)
    if kind == GOLUB_KAHAN:
        t, left, basis = fact.dense(), fact.left, fact.right
    else:
        t, left, basis = fact.tridiag.dense(), fact.basis, fact.basis
    t = t[: left.shape[1]]
    if kind == START_FILTERED:
        g = left.T @ b
        outside2 = float(np.sum((b - left @ g) ** 2))
    else:  # the left basis starts at b / ||b||
        g, outside2 = np.zeros(t.shape[0]), 0.0
        g[0] = float(np.linalg.norm(b))
    tail = _tail_norms(g, outside2)
    solutions = []
    res = []
    for k, (y, proj) in enumerate(solve(t, g, fact.k), start=1):
        solutions.append(basis[:, :k] @ y)
        res.append(math.hypot(proj, tail[min(k + 1, t.shape[0])]))
    return _assemble(solutions, res, x_true, fact)


def minres_trace(a, b, k_max, x_true=None, cache=None):
    """Minimum-residual iterates over the Krylov spaces K_k(A, b)."""
    return _krylov_trace("minres", a, b, k_max, x_true, cache, _givens_family)


def mr2_trace(a, b, k_max, x_true=None, cache=None):
    """Minimum-residual iterates over K_k(A, A b), which excludes the noisy
    right-hand side from the search space."""
    return _krylov_trace("mr2", a, b, k_max, x_true, cache, _givens_family)


def lsqr_trace(a, b, k_max, x_true=None, cache=None):
    """Least-squares iterates over the Golub-Kahan subspaces (two operator
    products per step)."""
    return _krylov_trace("lsqr", a, b, k_max, x_true, cache, _givens_family)


def tsvd_trace(decomp, b, x_true=None, k_max=None):
    """Truncated spectral-expansion solutions x_k for k = 1..k_max.

    Stops before the first exactly-zero eigenvalue.
    """
    b = finite_rhs(b)
    n = decomp.n
    k_max = n if k_max is None else min(k_max, n)
    c = decomp.project(b)
    x = np.zeros(n)
    solutions = []
    for k in range(1, k_max + 1):
        lam = decomp.eigenvalues[k - 1]
        if lam == 0.0:
            break
        x = x + (c[k - 1] / lam) * decomp.column(k - 1)
        solutions.append(x)
    return _assemble(solutions, _tail_norms(c)[1 : len(solutions) + 1], x_true)


def _lcurve_truncation(t_block, rhs):
    """The member of the projected TSVD family at the corner of its own
    L-curve, and its projected residual; with no corner the full solve is
    kept.  Member p keeps the p largest singular directions above the
    numerical-rank cutoff.  The L-curve takes every member's norms from
    c = U^T rhs and s; only the chosen member is formed."""
    s, u, v = _svd_small(t_block)
    c = u.T @ rhs
    rank = int(np.count_nonzero(s > rank_cutoff(s, t_block.shape)))
    z = c[:rank] / s[:rank]
    kept = np.minimum(np.arange(1, s.size + 1), rank)  # directions member p keeps
    res = _tail_norms(c, float(np.sum((rhs - u @ c) ** 2)))[kept]
    norms = np.sqrt(np.append(0.0, np.cumsum(z**2)))[kept]
    p = diagnostics.lcurve_corner(diagnostics.lcurve_points(res, norms)) or s.size
    return v[:, : kept[p - 1]] @ z[: kept[p - 1]], float(res[p - 1])


def hybrid_trace(base, a, b, k_max, x_true=None, cache=None):
    """Outer Krylov projection with inner TSVD regularization.

    At outer step k the projected tridiagonal is truncated to the dominant
    singular directions up to the corner of the projected-problem L-curve
    (no truncation when no corner exists).  The outer factorization is the
    one minres (or mr2) uses, shared through `cache` when one is given.
    """
    solver = f"hybrid-{base}"
    if solver not in KINDS:
        raise ContractViolation(f"unknown hybrid base {base!r}")
    return _krylov_trace(solver, a, b, k_max, x_true, cache, lambda t, g, count: [
        _lcurve_truncation(*_projected(t, g, k)) for k in range(1, count + 1)])


def _hybrid(base):
    return lambda a, b, k_max, x_true, decomp, cache=None: hybrid_trace(
        base, a, b, k_max, x_true=x_true, cache=cache
    )


# Every solver by name, as a callable (a, b, k_max, x_true, decomp,
# cache=None); the Krylov solvers share their factorizations through the
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
        a, b, k_max, x_true=x_true, cache=cache
    ),
    "tsvd": lambda a, b, k_max, x_true, decomp, cache=None: tsvd_trace(
        decomp, b, x_true, k_max
    ),
    "hybrid-minres": _hybrid("minres"),
    "hybrid-mr2": _hybrid("mr2"),
}
