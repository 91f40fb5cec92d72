"""Analytic quantities behind the regularizing behavior of the solvers.

Covers harmonic Ritz values and the filtered spectral expansion of the
minimum-residual iterates, the spectral-norm error of the Lanczos rank-k
approximation, principal angles between Krylov and dominant eigenspaces
(measured directly and through the coupling-matrix formula), coefficient
decay profiles, and the stopping heuristics used by the experiment harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exceptions import ContractViolation, NumericalError
from .krylov import _reorth_twice
from .linalg import EPS, canonical_angles, spectral_norm

COUPLING_K_CAP = 12  # deepest k of the coupling-matrix formula
PENCIL_NEWTON_STEPS = 4  # extended-precision polish of each pencil root
PENCIL_BAND = 2  # T^T T - theta T_sq of a tridiagonal T is pentadiagonal
DECAY_TOL = 1e-10  # slack of the Lanczos entry bounds, relative to sigma_1
LOWRANK_RITZ_TOL = 1e-13  # relative stop of the rank-k error's inner loop
LOWRANK_START_SEED = 0x10F4A2  # its deterministic start vector
LCURVE_FLAT_ASPECT = 0.02  # log-axis extent ratio below which a curve is flat


# ---------------------------------------------------------------------------
# harmonic Ritz values and filter factors


def harmonic_ritz(tridiag):
    """Harmonic Ritz values of the projected problem, |theta| descending.

    These solve (T^T T) y = theta * T_square y with T the rectangular
    tridiagonal and T_square its leading square block; equivalently they are
    the roots of the residual polynomial of the minimum-residual iterate.
    The positive definite side is factored through the LAPACK SVD of T
    rounded to double (no Gram-matrix digit loss), the guesses come from a
    LAPACK symmetric eigensolve, and all roots are then Newton-polished
    together in extended precision on the pencil determinant of T itself.
    The roots are accurate for the T given; its precision is the limit.  A
    double Lanczos tridiagonal carries O(eps ||A||) errors that move a small
    root by about 1e-13 relative, and the filtered expansion amplifies that
    by the spread of the roots: pass the np.longdouble tridiagonal of
    `lanczos(a.astype(np.longdouble), START_RESIDUAL, b, k)` when the
    filter factors must reproduce the iterate.  This is the one-head case
    of `harmonic_ritz_heads`.
    """
    t = tridiag.dense()
    return _refine_pencil_roots([t], [_pencil_guesses(t)])[0]


def harmonic_ritz_heads(tridiag):
    """harmonic_ritz(tridiag.head(k)) for k = 1, 2, ..., up to the first
    head that is numerically rank deficient.

    Each head takes its double guesses as `harmonic_ritz` does, and the
    roots of every head are polished in one `_refine_pencil_roots` call,
    bit for bit as head by head.
    """
    heads = []
    guesses = []
    for k in range(1, tridiag.k + 1):
        t = tridiag.head(k).dense()
        try:
            guesses.append(_pencil_guesses(t))
        except NumericalError:
            break
        heads.append(t)
    return _refine_pencil_roots(heads, guesses)


def _pencil_guesses(t):
    """Double guesses of the pencil roots of a (k+1, k) tridiagonal;
    NumericalError where T or its square block is numerically singular."""
    k = t.shape[1]
    t_dbl = t.astype(float)
    _, s, vt = np.linalg.svd(t_dbl, full_matrices=False)
    if s[-1] <= k * EPS * s[0]:
        raise NumericalError("projected matrix is numerically rank deficient")
    # C = S^{-1} V^T T_sq V S^{-1}; eigenvalues of C are 1/theta
    c = (vt @ t_dbl[:k, :] @ vt.T) / np.outer(s, s)
    mus = np.linalg.eigvalsh(0.5 * (c + c.T))
    if np.any(np.abs(mus) <= k * EPS * np.abs(mus).max()):
        raise NumericalError("projected square block is numerically singular")
    return 1.0 / mus


def _solve_stack(a, b, band):
    """Solve a[i] x[i] = b[i] for a stack of square band systems by
    Gaussian elimination with partial pivoting in the dtype of the inputs
    (used in extended precision, where LAPACK is unavailable).

    Every a[i] must be zero outside `band` diagonals on either side of the
    main one.  Only the band is eliminated: the pivot of a column is sought
    among its `band` rows below the diagonal, and with those row exchanges
    U's upper band stays within 2 * band, so each update touches `band`
    rows and 2 * band + 1 columns, and back substitution sums 2 * band
    terms.  The values are those of a dense elimination.  Returns (x, ok):
    ok[i] is False where a[i] met a zero pivot, and x[i] is then
    meaningless."""
    a = a.copy()
    b = b.copy()
    count, n, _ = a.shape
    stack = np.arange(count)
    ok = np.ones(count, dtype=bool)
    for col in range(n):
        low, right = min(col + band + 1, n), min(col + 2 * band + 1, n)
        piv = col + np.argmax(np.abs(a[:, col:low, col]), axis=1)
        ok &= a[stack, piv, col] != 0
        for m in (a, b):
            top = m[:, col].copy()
            m[:, col] = m[stack, piv]
            m[stack, piv] = top
        fac = a[:, col + 1 : low, col] / np.where(ok, a[:, col, col], 1)[:, None]
        a[:, col + 1 : low, col:right] -= fac[:, :, None] * a[:, None, col, col:right]
        b[:, col + 1 : low] -= fac[:, :, None] * b[:, None, col]
    diag = np.where(ok[:, None], a[:, np.arange(n), np.arange(n)], 1)
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        right = min(row + 2 * band + 1, n)
        rest = (a[:, None, row, row + 1 : right] @ x[:, row + 1 : right])[:, 0]
        x[:, row] = (b[:, row] - rest) / diag[:, row, None]
    return x, ok


def _refine_pencil_roots(heads, guesses):
    """Newton-polish the pencil roots det(T^T T - theta T_sq) = 0 of a
    stack of tridiagonals in extended precision.

    heads[h] is a (k+1, k) tridiagonal T and guesses[h] the double guesses
    of its k roots; returns the polished roots of each head, |theta|
    descending.  The correction is 1 / trace((T^T T - theta T_sq)^{-1} T_sq);
    filter-factor accuracy depends on theta - lambda differences a few ulp
    above double rounding, which plain double iteration cannot deliver.
    Every pencil is padded to the deepest order with an identity block
    (and T_sq with zeros), which leaves the pivots, the eliminated values
    and so the roots of each head as they are alone, and each step solves
    for every still-active root of every head in one banded elimination
    (`_solve_stack`, band PENCIL_BAND).  The trace sums only the head's own
    k diagonal entries, because numpy's pairwise summation order depends on
    the length.  A root stops on a singular system, a
    non-finite or wild step, or a step below 1e-20 relative, and keeps its
    last value.
    """
    if not heads:
        return []
    ld = np.longdouble
    orders = [t.shape[1] for t in heads]
    m_pencil = np.tile(np.eye(max(orders), dtype=ld), (len(heads), 1, 1))
    t_sq = np.zeros_like(m_pencil)
    for h, t in enumerate(heads):
        k = orders[h]
        t_ld = t.astype(ld)
        m_pencil[h, :k, :k] = t_ld.T @ t_ld
        t_sq[h, :k, :k] = t_ld[:k, :]
    owner = np.repeat(np.arange(len(heads)), orders)  # the head of each root
    order_of = np.repeat(orders, orders)
    thetas = np.concatenate(guesses)
    th = thetas.astype(ld)
    # guesses are already ~1e-12 relative; refuse wild steps that would hop
    # to a different root
    max_step = 1e-6 * np.abs(thetas)
    active = np.arange(thetas.size)
    for _ in range(PENCIL_NEWTON_STEPS):
        if active.size == 0:
            break
        w, ok = _solve_stack(
            m_pencil[owner[active]] - th[active, None, None] * t_sq[owner[active]],
            t_sq[owner[active]],
            PENCIL_BAND,
        )
        trace = np.empty(active.size, dtype=ld)
        for k in np.unique(order_of[active]):
            sel = order_of[active] == k
            trace[sel] = np.trace(w[sel, :k, :k], axis1=1, axis2=2)
        with np.errstate(divide="ignore"):
            delta = 1.0 / trace.astype(float)
        step = ok & (np.abs(delta) <= max_step[active])
        active, delta = active[step], delta[step]
        th[active] += delta.astype(ld)
        active = active[np.abs(delta) > 1e-20 * np.abs(th[active].astype(float))]
    polished = np.split(th.astype(float), np.cumsum(orders)[:-1])
    return [p[np.argsort(-np.abs(p), kind="stable")] for p in polished]


def filter_factors(thetas, eigenvalues):
    """Damping factor of each spectral component of the k-step iterate.

    f_i = 1 - prod_j (theta_j - lam_i) / theta_j.  Components with tiny
    lam_i / theta ratios are evaluated through log1p/expm1; the naive product
    loses all relative accuracy exactly where the factors matter most.
    """
    thetas = np.asarray(thetas, dtype=float)
    lams = np.asarray(eigenvalues, dtype=float)
    if np.any(thetas == 0.0):
        raise NumericalError("zero harmonic Ritz value; filters are undefined")
    ratios = lams[:, None] / thetas[None, :]
    f = np.empty(lams.size)
    small = np.abs(ratios).max(axis=1) < 0.5
    if np.any(small):
        f[small] = -np.expm1(np.log1p(-ratios[small]).sum(axis=1))
    if np.any(~small):
        f[~small] = 1.0 - np.prod(1.0 - ratios[~small], axis=1)
    return f


def filtered_solution(decomp, b, f):
    """Assemble sum_i f_i (v_i^T b / lam_i) v_i from filter factors."""
    c = decomp.project(b)
    return decomp.lincomb(f * c / decomp.eigenvalues)


# ---------------------------------------------------------------------------
# rank-k approximation error of the Lanczos factorization


def roundoff_floor(n, sigma1):
    """Level below which computed decay quantities are pure round-off."""
    return 10.0 * n * EPS * sigma1


def lowrank_error_sequence(a, fact):
    """Spectral-norm error of the successive rank-k approximations built
    from the Lanczos factorization: ||A (I - Q_k Q_k^T)|| for every k the
    basis spans.

    Matrix-free (`_deflated_norm`), so dense and Kronecker operators take
    the same path; every k starts from the same pseudo-random vector.
    """
    q = fact.basis
    start = rng.normal(LOWRANK_START_SEED, q.shape[0])
    return np.array([_deflated_norm(a, q[:, :k], start, fact.norm_estimate)
                     for k in range(1, min(fact.k, q.shape[1]) + 1)])


def _stored(rows, i, vec):
    """rows with vec stored as row i, doubling its height when full."""
    if i == rows.shape[0]:
        rows = np.concatenate([rows, np.empty_like(rows)])
    rows[i] = vec
    return rows


def _deflated_norm(a, q_k, start, norm_a):
    """||A (I - Q_k Q_k^T)|| for orthonormal Q_k, given norm_a ~ ||A||.

    Golub-Kahan on B = A (I - P), P = Q_k Q_k^T, from `start` projected off
    Q_k: u = A v, then v = (I - P) A u, each reorthogonalized twice against
    the previous vectors (and Q_k); nothing is squared.  After j steps
    B V_j = U_j B_j, and the top singular triplet (s, x, y) of the upper
    bidiagonal B_j leaves the Ritz residual beta_j |x_j|.  The loop stops
    once that is at most LOWRANK_RITZ_TOL * s or eps * norm_a (a product's
    rounding; an absolute 1e-13 * norm_a would stop early near the round-off
    floor), at a zero alpha, or when the complement of Q_k is exhausted.
    """
    n, k = q_k.shape
    if k == n:
        return 0.0
    v_rows = np.concatenate([q_k.T, np.empty((k + 8, n))])  # Q_k^T, then the v's
    u_rows = np.empty((8, n))
    v = _reorth_twice(start.copy(), q_k)
    v /= np.linalg.norm(v)
    alphas = []
    betas = []
    for j in range(n - k):
        v_rows = _stored(v_rows, k + j, v)
        u = a.matvec(v)
        if j:
            u -= betas[-1] * u_rows[j - 1]
            u = _reorth_twice(u, u_rows[:j].T)
        alphas.append(float(np.linalg.norm(u)))
        x, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        if alphas[-1] == 0.0:
            break
        u_rows = _stored(u_rows, j, u / alphas[-1])
        v = _reorth_twice(a.matvec(u_rows[j]) - alphas[-1] * v, v_rows[: k + j + 1].T)
        betas.append(float(np.linalg.norm(v)))
        if betas[-1] * abs(x[-1, 0]) <= max(LOWRANK_RITZ_TOL * s[0], EPS * norm_a):
            break
        v /= betas[-1]
    return float(s[0])


# ---------------------------------------------------------------------------
# Krylov subspace vs dominant eigenspace


def tail_coupling(decomp, b, k):
    """Coupling matrix of the trailing eigendirections into K_k(A, Ab).

    Entry (j, i) holds lambda_{k+j} v_{k+j}^T b * L_i(lambda_{k+j}) /
    (lambda_i v_i^T b) with L_i the Lagrange basis polynomial on the k
    leading eigenvalues, evaluated in product form.  The spectral norm of
    this matrix determines the largest principal angle.
    """
    if k > COUPLING_K_CAP:
        raise ContractViolation(
            f"coupling matrix requested for k={k} above the cap {COUPLING_K_CAP}; "
            "Lagrange products are not reliable this deep"
        )
    lams = decomp.eigenvalues
    n = lams.size
    if not 1 <= k <= n - 1:
        raise ContractViolation("need 1 <= k <= n - 1")
    head = lams[:k]
    if np.unique(lams[: k + 1]).size != k + 1:
        raise ContractViolation("leading eigenvalues must be distinct")
    c = decomp.project(b)
    d = lams * c
    nb = float(np.linalg.norm(b))
    if np.any(np.abs(c[:k]) <= 1e3 * EPS * nb):
        raise NumericalError(
            "a leading spectral coefficient of b is at noise level; "
            "the coupling matrix is not computable"
        )
    tail = lams[k:]
    l_vals = np.empty((n - k, k))
    for i in range(k):
        num = np.ones(n - k)
        for j in range(k):
            if j == i:
                continue
            num *= (tail - head[j]) / (head[i] - head[j])
        l_vals[:, i] = num
    delta = (d[k:, None] * l_vals) / d[None, :k]
    if not np.all(np.isfinite(delta)):
        raise NumericalError("coupling matrix overflowed; reduce k")
    return delta


def angle_sine(decomp, k, mode="direct", fact=None, b=None, coupling=None):
    """Sine of the largest principal angle between the k-dimensional dominant
    eigenspace and the k-dimensional Krylov subspace K_k(A, Ab).

    direct: measures the angle between computed bases.  formula: evaluates
    ||Delta|| / sqrt(1 + ||Delta||^2) from the coupling matrix.
    """
    if mode == "direct":
        if fact is None:
            raise ContractViolation("direct mode needs a Lanczos factorization")
        if k > fact.basis.shape[1]:
            raise ContractViolation("factorization is too short for this k")
        v_k = decomp.columns(k)
        q_k = fact.basis[:, :k]
        return float(canonical_angles(v_k, q_k)[0])
    if mode == "formula":
        if coupling is None:
            if b is None:
                raise ContractViolation("formula mode needs b or a coupling matrix")
            coupling = tail_coupling(decomp, b, k)
        d = spectral_norm(coupling)
        return float(d / math.hypot(1.0, d))
    raise ContractViolation(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# coefficient profiles


@dataclass(frozen=True)
class CoefficientProfile:
    """Spectral coefficients of the clean, noise and noisy right-hand sides,
    plus the tail-to-head ratio max_{j>k}|c_j| / min_{j<=k}|c_j|."""

    clean: np.ndarray
    noise: np.ndarray
    noisy: np.ndarray
    tail_head_ratio: np.ndarray


def coefficient_profile(decomp, b_hat, e):
    clean = np.abs(decomp.project(b_hat))
    noise = np.abs(decomp.project(e))
    noisy = np.abs(decomp.project(b_hat + e))
    n = noisy.size
    prefix_min = np.minimum.accumulate(noisy)
    suffix_max = np.maximum.accumulate(noisy[::-1])[::-1]
    with np.errstate(divide="ignore"):
        ratio = np.where(
            prefix_min[: n - 1] > 0.0,
            suffix_max[1:] / np.where(prefix_min[: n - 1] > 0.0, prefix_min[: n - 1], 1.0),
            np.inf,
        )
    return CoefficientProfile(clean=clean, noise=noise, noisy=noisy, tail_head_ratio=ratio)


# ---------------------------------------------------------------------------
# decay of the Lanczos entries


@dataclass(frozen=True)
class DecayRow:
    k: int
    offdiag_next: float  # beta_{k+1}
    diag_next: float  # |alpha_{k+2}|
    lowrank_error: float
    sigma_next: float  # sigma_{k+1}


def lanczos_decay_table(fact, lowrank_errors, sigmas):
    """Row-by-row comparison of the Lanczos entries against the rank-k error,
    given the operator's singular values `sigmas`, non-increasing.

    Returns (rows, violations): above the round-off floor
    `roundoff_floor(n, sigma_1)` every row must satisfy beta_{k+1} <=
    lowrank_error_k + tol and |alpha_{k+2}| <= lowrank_error_k + tol, with
    tol = DECAY_TOL * sigma_1; rows violating either land in `violations`.
    """
    alpha = fact.tridiag.alpha
    beta = fact.tridiag.beta
    sig1 = float(sigmas[0])
    floor = roundoff_floor(fact.basis.shape[0], sig1)
    tol = DECAY_TOL * sig1
    rows = []
    violations = []
    count = min(len(lowrank_errors), fact.k - 2)
    for k in range(1, count + 1):
        row = DecayRow(
            k=k,
            offdiag_next=float(beta[k]),
            diag_next=float(abs(alpha[k + 1])),
            lowrank_error=float(lowrank_errors[k - 1]),
            sigma_next=float(sigmas[k]),
        )
        rows.append(row)
        if max(row.offdiag_next, row.diag_next, row.lowrank_error) <= floor:
            continue
        if row.offdiag_next > row.lowrank_error + tol or row.diag_next > row.lowrank_error + tol:
            violations.append(row)
    return rows, violations


# ---------------------------------------------------------------------------
# stopping heuristics


@dataclass(frozen=True)
class LCurvePoint:
    log_residual: float
    log_solution_norm: float
    k: int


def lcurve_points(residual_norms, solution_norms):
    """L-curve points of a family indexed k = 1, 2, ..., from its residual
    and solution norms (residual stagnation wiggles kept; the corner
    detector prunes).  Norms are clamped at 1e-300 before the log."""
    return [
        LCurvePoint(math.log(max(float(r), 1e-300)), math.log(max(float(s), 1e-300)), k)
        for k, (r, s) in enumerate(zip(residual_norms, solution_norms), start=1)
    ]


def lcurve_corner(points):
    """Iteration index at the corner of a discrete L-curve, or None.

    Points whose residual is not below every earlier kept residual are
    dropped, as are exact duplicates; the corner maximizes the
    circumscribed-circle curvature of consecutive triples (clockwise
    positive for the usual orientation).  Corner-free data returns None
    explicitly: collinear points, and curves that are numerically collinear
    because one log-axis extent is below LCURVE_FLAT_ASPECT times the other,
    have no corner to find.
    """
    if len(points) < 3:
        return None
    kept = []
    for p in points:
        if kept and p.log_residual > kept[-1].log_residual:
            continue
        if kept and (
            abs(p.log_residual - kept[-1].log_residual)
            + abs(p.log_solution_norm - kept[-1].log_solution_norm)
            <= 1e-12
        ):
            continue
        kept.append(p)
    if len(kept) < 3:
        return None
    xs = [p.log_residual for p in kept]
    ys = [p.log_solution_norm for p in kept]
    rx = max(xs) - min(xs)
    ry = max(ys) - min(ys)
    if ry <= LCURVE_FLAT_ASPECT * rx or rx <= LCURVE_FLAT_ASPECT * ry:
        return None
    best_k = None
    best_curv = 0.0
    for a, b, c in zip(kept, kept[1:], kept[2:]):
        x1, y1 = a.log_residual, a.log_solution_norm
        x2, y2 = b.log_residual, b.log_solution_norm
        x3, y3 = c.log_residual, c.log_solution_norm
        cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        d12 = math.hypot(x2 - x1, y2 - y1)
        d23 = math.hypot(x3 - x2, y3 - y2)
        d13 = math.hypot(x3 - x1, y3 - y1)
        if d12 == 0.0 or d23 == 0.0 or d13 == 0.0:
            continue
        curv = -2.0 * cross / (d12 * d23 * d13)
        if curv > best_curv:
            best_curv = curv
            best_k = b.k
    return best_k


def semiconvergence_index(trace):
    """Iteration with the smallest relative error (ties: smallest k), the
    k of `trace.best()`."""
    return trace.best()[0]

