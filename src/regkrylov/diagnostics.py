"""Analytic quantities behind the regularizing behavior of the solvers.

Covers harmonic Ritz values and the filtered spectral expansion of the
minimum-residual iterates, the spectral-norm error of the Lanczos rank-k
approximation, principal angles between Krylov and dominant eigenspaces
(measured directly from the two orthonormal bases and through the
coupling-matrix formula), coefficient decay profiles, and the stopping
heuristics used by the experiment harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exceptions import ContractViolation, NumericalError
from .krylov import Basis
from .linalg import EPS, spectral_norm

COUPLING_K_CAP = 12  # deepest k of the coupling-matrix formula
PENCIL_NEWTON_STEPS = 4  # extended-precision polish of each pencil root
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
    The double guesses come from the LAPACK SVD of T rounded to double (no
    Gram-matrix digit loss) and a LAPACK symmetric eigensolve; each root is
    then Newton-polished in extended precision on the pencil determinant,
    evaluated by T's own three-term recurrence (`_refine_pencil_roots`), so
    T^T T is never formed.  The roots are accurate for the T given; its
    precision is the limit.  A double Lanczos tridiagonal carries
    O(eps ||A||) errors that move a small root by about 1e-13 relative, and
    the filtered expansion amplifies that by the spread of the roots: pass
    the np.longdouble tridiagonal of
    `lanczos(a.astype(np.longdouble), START_RESIDUAL, b, k)` when the
    filter factors must reproduce the iterate.  This is the one-head case
    of `harmonic_ritz_heads`.
    """
    return _refine_pencil_roots(tridiag, [_pencil_guesses(tridiag.dense())])[0]


def harmonic_ritz_heads(tridiag):
    """harmonic_ritz(tridiag.head(k)) for k = 1, 2, ..., up to the first
    head that is numerically rank deficient.

    Each head takes its double guesses as `harmonic_ritz` does.  The
    recurrence of head k is a prefix of the deepest head's, so the roots of
    every head are polished in one `_refine_pencil_roots` pass, each read
    off at its own order, bit for bit as head by head.
    """
    guesses = []
    for k in range(1, tridiag.k + 1):
        try:
            guesses.append(_pencil_guesses(tridiag.head(k).dense()))
        except NumericalError:
            break
    return _refine_pencil_roots(tridiag, guesses)


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


def _refine_pencil_roots(tridiag, guesses):
    """Newton-polish, in extended precision, the roots of
    h(theta) = det(T^T T - theta T_sq) for heads T of a tridiagonal.

    guesses[h] holds the double guesses of the roots of the head of order
    guesses[h].size; returns the polished roots of each head, |theta|
    descending.  With chi_j the characteristic polynomial of T's leading
    j-by-j block and D_j = (chi_j(theta) - chi_j(0)) / theta,

        chi_j = (alpha_j - theta) chi_{j-1} - beta_{j-1}^2 chi_{j-2},
        D_j = alpha_j D_{j-1} - chi_{j-1}(theta) - beta_{j-1}^2 D_{j-2},
        h = chi_k(0) chi_k(theta)
            + beta_k^2 (chi_k(0) D_{k-1}(theta) - chi_{k-1}(0) D_k(theta)),

    so h and h' follow in O(k) from T's own entries, in np.longdouble,
    without the squared cond(T) of the pencil.  That delivers the
    theta - lambda differences a few ulp above double rounding that the
    filter factors need.  Every root runs the deepest head's recurrence and
    is read off at its own order; the arithmetic is elementwise, so its
    bits are those of its head polished alone.  A non-finite or wild step
    is refused and the root keeps its last value; a root also stops after a
    step below 1e-20 relative.
    """
    if not guesses:
        return []
    ld = np.longdouble
    alpha = tridiag.alpha.astype(ld)
    beta2 = tridiag.beta.astype(ld) ** 2
    orders = [g.size for g in guesses]
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
        delta = _pencil_newton_step(alpha, beta2, th[active], order_of[active])
        with np.errstate(invalid="ignore"):
            step = np.abs(delta) <= max_step[active]  # False where not finite
        active, delta = active[step], delta[step]
        th[active] += delta
        active = active[np.abs(delta) > 1e-20 * np.abs(th[active])]
    polished = np.split(th.astype(float), np.cumsum(orders)[:-1])
    return [p[np.argsort(-np.abs(p), kind="stable")] for p in polished]


def _pencil_newton_step(alpha, beta2, th, order):
    """-h/h' at each th for the head of its order, by the recurrences of
    `_refine_pencil_roots` on (value, theta-derivative) pairs."""
    chi1 = np.zeros((2, th.size), dtype=th.dtype)  # chi_{j-1}
    chi1[0] = 1
    chi2 = d1 = d2 = h = np.zeros_like(chi1)  # chi_{j-2}, D_{j-1}, D_{j-2}
    z1, z2 = 1, 0  # chi_{j-1}(0), chi_{j-2}(0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(order.max()):
            a, b2 = alpha[j], beta2[j - 1] if j else 0
            chi = (a - th) * chi1 - b2 * chi2
            chi[1] -= chi1[0]
            d = a * d1 - chi1 - b2 * d2
            z = a * z1 - b2 * z2
            h = np.where(order == j + 1, z * chi + beta2[j] * (z * d1 - z1 * d), h)
            chi1, chi2, d1, d2, z1, z2 = chi, chi1, d, d1, z, z1
        return -h[0] / h[1]


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


def _deflated_norm(a, q_k, start, norm_a):
    """||A (I - Q_k Q_k^T)|| for orthonormal Q_k, given norm_a ~ ||A||.

    Golub-Kahan on B = A (I - P), P = Q_k Q_k^T, from `start` projected off
    Q_k: u = A v, then v = (I - P) A u.  One `Basis` holds Q_k and then the
    v's, so orthogonalizing a new v against it also applies I - P; a second
    holds the u's; nothing is squared.  After j steps B V_j = U_j B_j, and
    the top singular triplet (s, x, y) of the upper bidiagonal B_j leaves
    the Ritz residual beta_j |x_j|.  The loop stops once that is at most
    LOWRANK_RITZ_TOL * s or eps * norm_a (a product's rounding; an absolute
    1e-13 * norm_a would stop early near the round-off floor), at a zero
    alpha, or when the complement of Q_k is exhausted.
    """
    n, k = q_k.shape
    if k == n:
        return 0.0
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
    # column i of l_vals is L_i on the tail: one pass per node j multiplies
    # every column by its factor; the j = i factor divides by zero and is
    # set to 1
    l_vals = np.ones((n - k, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k):
            factor = (tail - head[j])[:, None] / (head - head[j])
            factor[:, j] = 1.0
            l_vals *= factor
    delta = (d[k:, None] * l_vals) / d[None, :k]
    if not np.all(np.isfinite(delta)):
        raise NumericalError("coupling matrix overflowed; reduce k")
    return delta


def angle_sine(decomp, k, mode="direct", fact=None, b=None):
    """Sine of the largest principal angle between the k-dimensional dominant
    eigenspace and the k-dimensional Krylov subspace K_k(A, Ab).

    direct: the top singular value of (I - V_k V_k^T) Q_k, clipped at 1, for
    the eigenbasis V and the factorization's basis Q, orthonormal as built.
    formula: ||Delta|| / sqrt(1 + ||Delta||^2) from the coupling matrix.
    """
    if mode == "direct":
        if fact is None:
            raise ContractViolation("direct mode needs a Lanczos factorization")
        if k > fact.basis.shape[1]:
            raise ContractViolation("factorization is too short for this k")
        v_k = decomp.columns(k)
        q_k = fact.basis[:, :k]
        z = q_k - v_k @ (v_k.T @ q_k)
        return min(float(np.linalg.svd(z, compute_uv=False)[0]), 1.0)
    if mode == "formula":
        if b is None:
            raise ContractViolation("formula mode needs b")
        d = spectral_norm(tail_coupling(decomp, b, k))
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
    head = prefix_min[: n - 1]
    ratio = np.where(head > 0.0, suffix_max[1:] / np.where(head > 0.0, head, 1.0), np.inf)
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

