"""Analytic quantities behind the regularizing behavior of the solvers.

Covers harmonic Ritz values and the filtered spectral expansion of the
minimum-residual iterates, the spectral-norm error of the Lanczos rank-k
approximation, principal angles between Krylov and dominant eigenspaces
(measured directly and through the coupling-matrix formula), coefficient
decay profiles, and the stopping heuristics used by the experiment harness.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolation, NumericalError
from .krylov import _reorth_twice
from .linalg import EPS, TridiagonalRect, canonical_angles, spectral_norm

COUPLING_K_CAP = 12


# ---------------------------------------------------------------------------
# harmonic Ritz values and filter factors


def harmonic_ritz(tridiag, refine=True):
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
    `extended_tridiagonal` when the filter factors must reproduce the
    iterate.
    """
    t = tridiag.dense()
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
    thetas = 1.0 / mus
    if refine:
        thetas = _refine_pencil_roots(t, t[:k, :], thetas)
    return thetas[np.argsort(-np.abs(thetas), kind="stable")]


def extended_tridiagonal(a, b, k_max):
    """Tridiagonal of up to k_max Lanczos steps on K_k(A, b), in np.longdouble.

    The projection of the stored (A, b) that `minres_trace` computes in
    double, here with extended-precision vectors, products and full
    reorthogonalization, so that alpha and beta carry extended rounding
    errors instead of eps * ||A||.  Breakdown ends the process as in
    `lanczos`.  Feed `harmonic_ritz` with its heads.
    """
    ld = np.longdouble
    n = a.n
    if not 1 <= k_max <= n:
        raise ContractViolation("need 1 <= k_max <= n")
    q = np.asarray(b, dtype=ld)
    nq = np.sqrt(q @ q)
    if nq == 0:
        raise ContractViolation("starting vector is zero")
    basis = np.empty((n, k_max + 1), dtype=ld)
    basis[:, 0] = q / nq
    matvec = a.extended_matvec()
    alphas = []
    betas = []
    norm_est = 0.0
    prev_beta = ld(0)
    for i in range(k_max):
        w = matvec(basis[:, i])
        alpha = basis[:, i] @ w
        w -= alpha * basis[:, i]
        if i > 0:
            w -= prev_beta * basis[:, i - 1]
        w = _reorth_twice(w, basis[:, : i + 1])
        beta = np.sqrt(w @ w)
        alphas.append(alpha)
        betas.append(beta)
        norm_est = max(norm_est, float(abs(alpha) + beta + prev_beta))
        if beta <= n * EPS * norm_est:
            break
        basis[:, i + 1] = w / beta
        prev_beta = beta
    return TridiagonalRect(np.array(alphas, dtype=ld), np.array(betas, dtype=ld))


def _solve_stack(a, b):
    """Solve a[i] x[i] = b[i] for a stack of square systems by pivoted
    Gaussian elimination in the dtype of the inputs (used in extended
    precision, where LAPACK is unavailable).  Returns (x, ok): ok[i] is
    False where a[i] met a zero pivot, and x[i] is then meaningless."""
    a = a.copy()
    b = b.copy()
    count, n, _ = a.shape
    stack = np.arange(count)
    ok = np.ones(count, dtype=bool)
    for col in range(n):
        piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        ok &= a[stack, piv, col] != 0
        for m in (a, b):
            top = m[:, col].copy()
            m[:, col] = m[stack, piv]
            m[stack, piv] = top
        fac = a[:, col + 1 :, col] / np.where(ok, a[:, col, col], 1)[:, None]
        a[:, col + 1 :, col:] -= fac[:, :, None] * a[:, None, col, col:]
        b[:, col + 1 :] -= fac[:, :, None] * b[:, None, col]
    diag = np.where(ok[:, None], a[:, np.arange(n), np.arange(n)], 1)
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        rest = (a[:, None, row, row + 1 :] @ x[:, row + 1 :])[:, 0]
        x[:, row] = (b[:, row] - rest) / diag[:, row, None]
    return x, ok


def _refine_pencil_roots(t, t_sq, thetas, iterations=4):
    """Newton-polish pencil roots det(T^T T - theta T_sq) = 0 in extended
    precision.  The correction is 1 / trace((T^T T - theta T_sq)^{-1} T_sq);
    filter-factor accuracy depends on theta - lambda differences a few ulp
    above double rounding, which plain double iteration cannot deliver.
    Each step solves for every still-active root at once; a root stops on
    a singular system, a non-finite or wild step, or a step below 1e-20
    relative, and keeps its last value.
    """
    ld = np.longdouble
    t_ld = t.astype(ld)
    m_pencil = t_ld.T @ t_ld
    t_sq_ld = t_sq.astype(ld)
    th = thetas.astype(ld)
    # guesses are already ~1e-12 relative; refuse wild steps that would hop
    # to a different root
    max_step = 1e-6 * np.abs(thetas)
    active = np.arange(thetas.size)
    for _ in range(iterations):
        if active.size == 0:
            break
        w, ok = _solve_stack(
            m_pencil - th[active, None, None] * t_sq_ld,
            np.broadcast_to(t_sq_ld, (active.size,) + t_sq_ld.shape),
        )
        with np.errstate(divide="ignore"):
            delta = 1.0 / np.trace(w, axis1=1, axis2=2).astype(float)
        step = ok & (np.abs(delta) <= max_step[active])
        active, delta = active[step], delta[step]
        th[active] += delta.astype(ld)
        active = active[np.abs(delta) > 1e-20 * np.abs(th[active].astype(float))]
    return th.astype(float)


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


def lowrank_error_sequence(a, fact, k_count=None, floor=None):
    """Spectral-norm error of the successive rank-k approximations built
    from the Lanczos factorization: ||A (I - Q_k Q_k^T)|| for k = 1..k_count.

    Values at or below `floor` are round-off and are reported without the
    expensive certification pass.
    """
    q = fact.basis
    usable = min(fact.k, q.shape[1])
    k_count = usable if k_count is None else min(k_count, usable)
    a_dense = a.dense()
    w = a.matmat(q[:, :k_count])
    out = np.empty(k_count)
    for k in range(1, k_count + 1):
        m_k = a_dense - w[:, :k] @ q[:, :k].T
        out[k - 1] = spectral_norm(m_k, coarse_below=floor)
    return out


# ---------------------------------------------------------------------------
# Krylov subspace vs dominant eigenspace


def tail_coupling(decomp, b, k, cap=COUPLING_K_CAP):
    """Coupling matrix of the trailing eigendirections into K_k(A, Ab).

    Entry (j, i) holds lambda_{k+j} v_{k+j}^T b * L_i(lambda_{k+j}) /
    (lambda_i v_i^T b) with L_i the Lagrange basis polynomial on the k
    leading eigenvalues, evaluated in product form.  The spectral norm of
    this matrix determines the largest principal angle.
    """
    if k > cap:
        raise ContractViolation(
            f"coupling matrix requested for k={k} above the cap {cap}; "
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


def angle_sine(decomp, k, mode="direct", fact=None, b=None, coupling=None, cap=COUPLING_K_CAP):
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
            coupling = tail_coupling(decomp, b, k, cap=cap)
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


def lanczos_decay_table(fact, lowrank_errors, sigmas=None, floor=None, tol=None):
    """Row-by-row comparison of the Lanczos entries against the rank-k error.

    Returns (rows, violations): above the round-off floor every row must
    satisfy beta_{k+1} <= lowrank_error_k + tol and |alpha_{k+2}| <=
    lowrank_error_k + tol; rows violating either land in `violations`.
    """
    alpha = fact.tridiag.alpha
    beta = fact.tridiag.beta
    sig1 = float(sigmas[0]) if sigmas is not None else fact.norm_estimate
    if floor is None:
        floor = roundoff_floor(fact.basis.shape[0], sig1)
    if tol is None:
        tol = 1e-10 * sig1
    rows = []
    violations = []
    count = min(len(lowrank_errors), fact.k - 2)
    for k in range(1, count + 1):
        row = DecayRow(
            k=k,
            offdiag_next=float(beta[k]),
            diag_next=float(abs(alpha[k + 1])),
            lowrank_error=float(lowrank_errors[k - 1]),
            sigma_next=float(sigmas[k]) if sigmas is not None else math.nan,
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


def lcurve_points(trace):
    """L-curve points of a trace (residual stagnation wiggles kept; the
    corner detector prunes)."""
    pts = []
    for i in range(trace.iterations):
        r = max(float(trace.residual_norms[i]), 1e-300)
        s = max(float(trace.solution_norms[i]), 1e-300)
        pts.append(LCurvePoint(math.log(r), math.log(s), i + 1))
    return pts


def lcurve_corner(points, flat_aspect=0.02):
    """Iteration index at the corner of a discrete L-curve, or None.

    Points whose residual is not below every earlier kept residual are
    dropped, as are exact duplicates; the corner maximizes the
    circumscribed-circle curvature of consecutive triples (clockwise
    positive for the usual orientation).  Corner-free data returns None
    explicitly: collinear points, and curves that are numerically collinear
    because one log-axis extent is below `flat_aspect` times the other,
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
    if ry <= flat_aspect * rx or rx <= flat_aspect * ry:
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
    """Iteration with the smallest relative error (ties: smallest k)."""
    if trace.relative_errors is None:
        raise ContractViolation("trace has no relative errors; x_true unknown")
    return int(np.argmin(trace.relative_errors)) + 1


# ---------------------------------------------------------------------------
# aggregated report


@dataclass
class DiagnosticsReport:
    """Bundle of diagnostic sequences for one (problem, noise) cell.

    Arrays are k-indexed from 1; serialization is plain JSON keyed by
    quantity name.
    """

    lowrank_error: list | None = None
    sigma_next: list | None = None
    angle_direct: list | None = None
    angle_formula: list | None = None
    harmonic_ritz_values: list | None = None
    filter_factor_rows: list | None = None
    picard_clean: list | None = None
    picard_noise: list | None = None
    picard_noisy: list | None = None
    tail_head_ratio: list | None = None
    decay_rows: list | None = None
    decay_violations: int | None = None
    transition_index: int | None = None
    corner_index: dict = field(default_factory=dict)
    semiconvergence: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self):
        doc = {}
        for key, value in self.__dict__.items():
            if value is None:
                continue
            doc[key] = value
        return json.dumps(doc, sort_keys=True, indent=1)
