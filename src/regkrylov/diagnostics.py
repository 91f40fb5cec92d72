"""Analytic quantities behind the regularizing behavior of the solvers.

Covers harmonic Ritz values and the filtered spectral expansion of the
minimum-residual iterates, the spectral-norm error of the Lanczos rank-k
approximation, principal angles between Krylov and dominant eigenspaces
(measured directly from the two orthonormal bases and through the
coupling-matrix formula), coefficient decay profiles, and the stopping
heuristics used by the experiment harness.

The harmonic Ritz values of several projections, such as the cells of a
run's block, are taken together (`harmonic_ritz_block`): one stacked
LAPACK call per head order and one Newton polish for every root.  The
rank-k errors of a factorization are matrix-free Golub-Kahan builds, one
per k, that run in batches: each batch is one `krylov.lockstep` build that
multiplies the vectors of all its live k's as one block, shares one
product with the factorization's basis among them, and takes one stacked
SVD of their bidiagonals per step.  The coupling-matrix formula reads its
Lagrange products, which depend on the eigenvalues alone, from the
decomposition, where they are computed once per k, and `formula_sines`
takes the sines of every k from one projection of b.  The module reaches
the Krylov builders through `krylov` alone and imports no solver.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import krylov, rng
from .exceptions import ContractViolation, NumericalError, RegKrylovError
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
    filter factors must reproduce the iterate.
    """
    [guess] = _pencil_guesses(tridiag.dense()[None])
    if isinstance(guess, NumericalError):
        raise guess
    return _polish_heads([tridiag], [[guess]])[0][0]


def harmonic_ritz_block(tridiags):
    """For every tridiagonal t, [harmonic_ritz(t.head(k)) for k = 1, 2, ...]
    up to its first head that is numerically rank deficient, bit for bit.

    For each head order k, one stacked LAPACK SVD and one stacked
    eigensolve give the double guesses of the k-th head of every
    tridiagonal that reaches it (`_pencil_guesses`), and a tridiagonal
    stops at its first refused head.  The recurrence of head k is a prefix
    of the deepest head's, so the roots of every head of every tridiagonal
    are polished in one `_refine_pencil_roots` pass, each read off at its
    own order.  A stacked LAPACK call treats each matrix as a call of its
    own, and the polish is elementwise, so each root has the bits it would
    have alone.
    """
    guesses = [[] for _ in tridiags]
    live = list(range(len(tridiags)))
    for k in range(1, max((t.k for t in tridiags), default=0) + 1):
        live = [i for i in live if tridiags[i].k >= k]
        if not live:
            break
        heads = _pencil_guesses(np.stack([tridiags[i].head(k).dense() for i in live]))
        kept = [(i, g) for i, g in zip(live, heads) if not isinstance(g, NumericalError)]
        for i, g in kept:
            guesses[i].append(g)
        live = [i for i, _ in kept]
    return _polish_heads(tridiags, guesses)


def _pencil_guesses(ts):
    """Double guesses of the pencil roots of each (k+1, k) tridiagonal in
    the stack ts, from one stacked SVD and one stacked eigensolve; where T
    or its square block is numerically singular, the NumericalError that
    refuses it instead."""
    k = ts.shape[-1]
    ts = ts.astype(float)
    _, s, vt = np.linalg.svd(ts, full_matrices=False)
    out = [NumericalError("projected matrix is numerically rank deficient")] * len(ts)
    regular = np.flatnonzero(~(s[:, -1] <= k * EPS * s[:, 0]))
    if regular.size:
        s, vt = s[regular], vt[regular]
        # C = S^{-1} V^T T_sq V S^{-1}; eigenvalues of C are 1/theta
        c = (vt @ ts[regular, :k, :] @ vt.transpose(0, 2, 1)) / (s[:, :, None] * s[:, None, :])
        mus = np.linalg.eigvalsh(0.5 * (c + c.transpose(0, 2, 1)))
        mags = np.abs(mus)
        singular = np.any(mags <= k * EPS * mags.max(axis=1, keepdims=True), axis=1)
        for i, mu, refused in zip(regular, mus, singular):
            out[i] = (NumericalError("projected square block is numerically singular")
                      if refused else 1.0 / mu)
    return out


def _polish_heads(tridiags, guesses):
    """The polished roots of the heads of each tridiagonal, |theta|
    descending: guesses[i] holds the double guesses of the heads of
    tridiags[i], each of the order of its size."""
    sizes = [g.size for heads in guesses for g in heads]
    if not sizes:
        return [[] for _ in guesses]
    # every tridiagonal's entries as a np.longdouble row, zero past its depth
    alpha, beta = np.zeros((2, len(tridiags), max(t.k for t in tridiags)), dtype=np.longdouble)
    for i, t in enumerate(tridiags):
        alpha[i, : t.k], beta[i, : t.k] = t.alpha, t.beta
    owner = np.repeat(np.arange(len(guesses)), [sum(g.size for g in heads) for heads in guesses])
    roots = _refine_pencil_roots(alpha[owner], beta[owner] ** 2,
                                 np.concatenate([g for heads in guesses for g in heads]),
                                 np.repeat(sizes, sizes))
    polished = iter(np.split(roots, np.cumsum(sizes)[:-1]))
    return [[p[np.argsort(-np.abs(p), kind="stable")] for p in (next(polished) for _ in heads)]
            for heads in guesses]


def _refine_pencil_roots(alpha, beta2, thetas, order):
    """Newton-polish, in extended precision, each double guess thetas[r]
    of a root of h(theta) = det(T^T T - theta T_sq) for the head of order
    order[r] of the tridiagonal whose entries alpha[r] and squared
    off-diagonals beta2[r] (np.longdouble rows, zero past its depth) give;
    returns the polished roots in double, in the order given.  With chi_j
    the characteristic polynomial of T's leading j-by-j block and
    D_j = (chi_j(theta) - chi_j(0)) / theta,

        chi_j = (alpha_j - theta) chi_{j-1} - beta_{j-1}^2 chi_{j-2},
        D_j = alpha_j D_{j-1} - chi_{j-1}(theta) - beta_{j-1}^2 D_{j-2},
        h = chi_k(0) chi_k(theta)
            + beta_k^2 (chi_k(0) D_{k-1}(theta) - chi_{k-1}(0) D_k(theta)),

    so h and h' follow in O(k) from T's own entries, in np.longdouble,
    without the squared cond(T) of the pencil.  That delivers the
    theta - lambda differences a few ulp above double rounding that the
    filter factors need.  Every root runs the recurrence of its own row up
    to the deepest order and is read off at its own; the arithmetic is
    elementwise, so its bits are those of its head polished alone.  A
    non-finite or wild step is refused and the root keeps its last value;
    a root also stops after a step below 1e-20 relative.
    """
    th = thetas.astype(np.longdouble)
    # guesses are already ~1e-12 relative; refuse wild steps that would hop
    # to a different root
    max_step = 1e-6 * np.abs(thetas)
    active = np.arange(thetas.size)
    for _ in range(PENCIL_NEWTON_STEPS):
        if active.size == 0:
            break
        delta = _pencil_newton_step(alpha[active], beta2[active], th[active], order[active])
        with np.errstate(invalid="ignore"):
            step = np.abs(delta) <= max_step[active]  # False where not finite
        active, delta = active[step], delta[step]
        th[active] += delta
        active = active[np.abs(delta) > 1e-20 * np.abs(th[active])]
    return th.astype(float)


def _pencil_newton_step(alpha, beta2, th, order):
    """-h/h' at each th for the head of its order of its row's tridiagonal,
    by the recurrences of `_refine_pencil_roots` on (value,
    theta-derivative) pairs."""
    chi1 = np.zeros((2, th.size), dtype=th.dtype)  # chi_{j-1}
    chi1[0] = 1
    chi2 = d1 = d2 = h = np.zeros_like(chi1)  # chi_{j-2}, D_{j-1}, D_{j-2}
    z1, z2 = 1, 0  # chi_{j-1}(0), chi_{j-2}(0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(order.max()):
            a, b2 = alpha[:, j], beta2[:, j - 1] if j else 0
            chi = (a - th) * chi1 - b2 * chi2
            chi[1] -= chi1[0]
            d = a * d1 - chi1 - b2 * d2
            z = a * z1 - b2 * z2
            h = np.where(order == j + 1, z * chi + beta2[:, j] * (z * d1 - z1 * d), h)
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

    Matrix-free, so dense and Kronecker operators take the same path, and
    every k starts from the same pseudo-random vector.  The k's run in
    batches, each one `krylov.lockstep` build (`_rank_k_steps`), of at most
    `krylov.builds_per_block(a, fact.k, 1)` k's and at most n // 16, so
    that a batch's first bases, 16 vectors a k, fit in n^2 doubles.  That
    rule counts k_max + 1 vectors a k, but a k's build holds as many as it
    takes steps, up to 2 (n - k), so `_rank_k_steps` also bounds a batch as
    it grows: its bases hold at most n^2 doubles, the old and the grown
    arrays together, unless the batch is down to one k.  A k that a growth
    sends back runs again, from its start, in a later batch.
    """
    q = fact.basis
    n = q.shape[0]
    ks = np.arange(1, min(fact.k, q.shape[1]) + 1)
    start = rng.normal(LOWRANK_START_SEED, n)
    errors = np.zeros(ks.size)  # zero where Q_k spans everything, k = n
    pending = list(ks[ks < n])
    cap = max(1, min(krylov.builds_per_block(a, fact.k, 1), n // (2 * _FIRST_ROWS)))
    while pending:
        batch, pending, evicted = np.array(pending[:cap]), pending[cap:], []
        [errors[batch - 1]] = krylov.lockstep(
            a, [_rank_k_steps(q, batch, start, fact.norm_estimate, evicted)])
        pending = sorted(evicted + pending)
    return errors


_FIRST_ROWS = 8  # the v's and the u's a rank-k build first holds, each


def _row_norms(rows):
    """The 2-norm of every row, each from one dot product, as
    np.linalg.norm takes it of a vector."""
    return np.sqrt((rows[:, None] @ rows[:, :, None])[:, 0, 0])


def _rank_k_steps(q, ks, start, norm_a, evicted):
    """||A (I - Q_k Q_k^T)|| for every k in ks, ascending and each below n,
    with Q_k the first k columns of the orthonormal q and norm_a ~ ||A||: a
    `lockstep` build that yields the (live, n) block of its live k's
    vectors.  A k it sends back instead is appended to `evicted` and its
    value is NaN.

    For each k, Golub-Kahan on B = A (I - P), P = Q_k Q_k^T, from `start`
    projected off Q_k: u = A v, then v = (I - P) A u.  Each v is
    orthogonalized against Q_k and the k's own v's, which also applies
    I - P, and each u against the k's own u's, by classical Gram-Schmidt
    applied twice: against the shared Q one GEMM for every k, with the
    columns past k masked, and against the k's own vectors one batched
    product.  A lone k keeps Q_k in front of its own v's instead, one
    product per pass, and so writes the bytes of a build of one k.
    Nothing is squared.  After j steps B V_j = U_j B_j, and the top
    singular triplet (s, x, y) of the upper bidiagonal B_j, from one
    stacked SVD of every live k's, leaves the Ritz residual beta_j |x_j|.
    A k stops once that is at most LOWRANK_RITZ_TOL * s or eps * norm_a (a
    product's rounding; an absolute 1e-13 * norm_a would stop early near
    the round-off floor), at a zero alpha, or when the complement of Q_k
    is exhausted, and leaves the block before its next product: its rows
    are moved out of the bases in place.  The bases grow by half when
    full; where the old arrays and the grown ones would hold more than n^2
    doubles, the deepest live k's are sent back first, down to one k.
    """
    n, width = q.shape
    count = ks.size
    errors = np.empty(count)
    live = np.arange(count)  # the index in ks of each live slot
    masks = (np.arange(width) < ks[:, None]).astype(float)
    last = n - 1 - ks  # the step at which each slot's complement is exhausted
    lead = ks[0] if count == 1 else 0  # rows of Q in front of each slot's v's
    # each slot's v's and u's
    vs, us = np.empty((count, lead + _FIRST_ROWS, n)), np.empty((count, _FIRST_ROWS, n))
    vs[:, :lead] = q[:, :lead].T
    alphas, betas = np.empty((2, count, n))

    def orthogonalize(w, basis, top=0):
        """w, in place, minus its components along each live slot's first
        vectors in basis and along its Q_k past the lead, given the deepest
        live k."""
        basis_t = basis.transpose(0, 2, 1)
        q_top = q[:, lead:top]
        # the mask is all ones where every live slot has the deepest k
        mask = masks[: len(w), :top] if top > lead and ks[live[0]] < top else None
        for _ in range(2):
            proj = ((w[:, None] @ basis_t) @ basis)[:, 0]
            if top > lead:
                c = w @ q_top
                if mask is not None:
                    c *= mask
                proj += c @ q_top.T
            w -= proj
        return w

    def grown(basis, m, rows):
        """The first m slots of basis, in an array of `rows` more rows.
        Growing by half: doubling, whose copy holds the old bases and twice
        them at once, took deriv2 at n = 512, k_max 40 past 2 n^2 doubles."""
        out = np.empty((m, basis.shape[1] + rows, n))
        out[:, : basis.shape[1]] = basis[:m]
        return out

    def close(done, values, *rows):
        """Record the values of the slots that are done, move the others to
        the front of every per-slot array in place, and return the rows
        of this round's arrays that they keep."""
        nonlocal live
        errors[live[done]] = values[done]
        kept = np.flatnonzero(~done)
        rows = [r[kept] for r in rows]
        for dst, src in enumerate(kept):
            if dst != src:
                for arr in (vs, us, alphas, betas, masks, last):
                    arr[dst] = arr[src]
        live = live[kept]
        return rows

    w = orthogonalize(np.tile(start, (count, 1)), vs[:, :lead], ks[-1])
    v = np.divide(w, _row_norms(w)[:, None], out=vs[:, lead])
    for j in range(n):
        m = live.size
        u = yield v
        if j:
            u -= beta[:, None] * us[:m, j - 1]
            orthogonalize(u, us[:m, :j])
        alpha = alphas[:m, j] = _row_norms(u)
        bidiag = np.zeros((m, (j + 1) ** 2))  # flattened; diagonal, then superdiagonal
        bidiag[:, :: j + 2] = alphas[:m, : j + 1]
        bidiag[:, 1 :: j + 2] = betas[:m, :j]
        x, s, _ = np.linalg.svd(bidiag.reshape(m, j + 1, j + 1))
        if j >= last[m - 1] or not alpha.all():  # last[m - 1] is the least
            done = (alpha == 0.0) | (last[:m] == j)
            u, v, x, s, alpha = close(done, s[:, 0], u, v, x, s, alpha)
            if not live.size:
                return errors
            m = live.size
        w = yield np.divide(u, alpha[:, None], out=us[:m, j])
        w -= alpha[:, None] * v
        orthogonalize(w, vs[:m, : lead + j + 1], ks[live[-1]])
        beta = betas[:m, j] = _row_norms(w)
        done = beta * np.abs(x[:, -1, 0]) <= np.maximum(LOWRANK_RITZ_TOL * s[:, 0], EPS * norm_a)
        if done.any():
            w, beta = close(done, s[:, 0], w, beta)
            if not live.size:
                return errors
            m = live.size
        if j + 1 == us.shape[1]:
            extra = us.shape[1] // 2
            per_slot = (vs.shape[1] + us.shape[1] + 2 * extra) * n
            keep = max(1, min(m, (n * n - vs.size - us.size) // per_slot))
            if keep < m:
                evicted.extend(ks[live[keep:]].tolist())
                w, beta = close(np.arange(m) >= keep, np.full(m, np.nan), w, beta)
                m = keep
            vs, us = grown(vs, m, extra), grown(us, m, extra)
        v = np.divide(w, beta[:, None], out=vs[:m, lead + j + 1])
    return errors


# ---------------------------------------------------------------------------
# Krylov subspace vs dominant eigenspace


def tail_coupling(decomp, b, k):
    """Coupling matrix of the trailing eigendirections into K_k(A, Ab).

    Entry (j, i) holds lambda_{k+j} v_{k+j}^T b * L_i(lambda_{k+j}) /
    (lambda_i v_i^T b) with L_i the Lagrange basis polynomial on the k
    leading eigenvalues, evaluated in product form.  The spectral norm of
    this matrix determines the largest principal angle.
    """
    return _coupling(decomp, decomp.project(b), float(np.linalg.norm(b)), k)


def _coupling(decomp, c, nb, k):
    """`tail_coupling` of a b with spectral coefficients c and norm nb."""
    if k > COUPLING_K_CAP:
        raise ContractViolation(
            f"coupling matrix requested for k={k} above the cap {COUPLING_K_CAP}; "
            "Lagrange products are not reliable this deep"
        )
    lams = decomp.eigenvalues
    if not 1 <= k <= lams.size - 1:
        raise ContractViolation("need 1 <= k <= n - 1")
    if np.unique(lams[: k + 1]).size != k + 1:
        raise ContractViolation("leading eigenvalues must be distinct")
    d = lams * c
    if np.any(np.abs(c[:k]) <= 1e3 * EPS * nb):
        raise NumericalError(
            "a leading spectral coefficient of b is at noise level; "
            "the coupling matrix is not computable"
        )
    delta = (d[k:, None] * _lagrange_on_tail(decomp, k)) / d[None, :k]
    if not np.all(np.isfinite(delta)):
        raise NumericalError("coupling matrix overflowed; reduce k")
    return delta


def _lagrange_on_tail(decomp, k):
    """L_i(lambda_{k+j}) at row j, column i: the Lagrange basis polynomials
    on the k leading eigenvalues, distinct, evaluated on the others.  They
    depend on the eigenvalues alone, so they are computed once per
    decomposition and k, kept read-only in `decomp.lagrange`."""
    l_vals = decomp.lagrange.get(k)
    if l_vals is None:
        lams = decomp.eigenvalues
        head, tail = lams[:k], lams[k:]
        # column i is L_i on the tail: one pass per node j multiplies every
        # column by its factor; the j = i factor divides by zero and is set
        # to 1
        l_vals = np.ones((tail.size, k))
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(k):
                factor = (tail - head[j])[:, None] / (head - head[j])
                factor[:, j] = 1.0
                l_vals *= factor
        l_vals.flags.writeable = False
        decomp.lagrange[k] = l_vals
    return l_vals


def angle_sine(decomp, k, fact):
    """Sine of the largest principal angle between the k-dimensional dominant
    eigenspace and the k-dimensional Krylov subspace K_k(A, Ab): the top
    singular value of (I - V_k V_k^T) Q_k, clipped at 1, for the eigenbasis
    V and the factorization's basis Q, orthonormal as built.
    """
    if k > fact.basis.shape[1]:
        raise ContractViolation("factorization is too short for this k")
    v_k = decomp.columns(k)
    q_k = fact.basis[:, :k]
    z = q_k - v_k @ (v_k.T @ q_k)
    return min(float(np.linalg.svd(z, compute_uv=False)[0]), 1.0)


def formula_sines(decomp, b, count):
    """The same sine from the coupling matrix, ||Delta|| / sqrt(1 +
    ||Delta||^2) with Delta = tail_coupling(decomp, b, k), for k =
    1..count, and None for each k the matrix refuses, from one projection
    of b."""
    c, nb = decomp.project(b), float(np.linalg.norm(b))
    sines = []
    for k in range(1, count + 1):
        try:
            d = spectral_norm(_coupling(decomp, c, nb, k))
            sines.append(float(d / math.hypot(1.0, d)))
        except RegKrylovError:
            sines.append(None)
    return sines


# ---------------------------------------------------------------------------
# coefficient profiles


@dataclass(frozen=True)
class CoefficientProfile:
    """Spectral coefficient magnitudes of the noise and the noisy right-hand
    side, plus the tail-to-head ratio max_{j>k}|c_j| / min_{j<=k}|c_j| of
    the noisy ones.  Those of b_hat are the same in every cell of a run:
    the CLI takes them once, as np.abs(decomp.project(b_hat)), and gives
    them with `noise` to `problems.transition_index`."""

    noise: np.ndarray
    noisy: np.ndarray
    tail_head_ratio: np.ndarray


def coefficient_profile(decomp, b_hat, e):
    noise = np.abs(decomp.project(e))
    noisy = np.abs(decomp.project(b_hat + e))
    n = noisy.size
    prefix_min = np.minimum.accumulate(noisy)
    suffix_max = np.maximum.accumulate(noisy[::-1])[::-1]
    head = prefix_min[: n - 1]
    ratio = np.where(head > 0.0, suffix_max[1:] / np.where(head > 0.0, head, 1.0), np.inf)
    return CoefficientProfile(noise=noise, noisy=noisy, tail_head_ratio=ratio)


# ---------------------------------------------------------------------------
# decay of the Lanczos entries


def lanczos_decay_table(fact, lowrank_errors, sigmas):
    """Row-by-row comparison of the Lanczos entries against the rank-k error,
    given the operator's singular values `sigmas`, non-increasing.

    Returns (rows, violations): rows[k-1] is [k, beta_{k+1}, |alpha_{k+2}|]
    as floats, and above the round-off floor `roundoff_floor(n, sigma_1)`
    every row must satisfy beta_{k+1} <= lowrank_error_k + tol and
    |alpha_{k+2}| <= lowrank_error_k + tol, with tol = DECAY_TOL * sigma_1;
    `violations` lists the k of each row that breaks either.
    """
    alpha = fact.tridiag.alpha
    beta = fact.tridiag.beta
    sig1 = float(sigmas[0])
    floor = roundoff_floor(fact.basis.shape[0], sig1)
    tol = DECAY_TOL * sig1
    rows = []
    violations = []
    for k in range(1, min(len(lowrank_errors), fact.k - 2) + 1):
        off, diag, err = float(beta[k]), float(abs(alpha[k + 1])), float(lowrank_errors[k - 1])
        rows.append([k, off, diag])
        # not <=, so that a NaN entry still meets the bounds
        if not max(off, diag, err) <= floor and (off > err + tol or diag > err + tol):
            violations.append(k)
    return rows, violations


# ---------------------------------------------------------------------------
# stopping heuristics


def lcurve_points(residual_norms, solution_norms):
    """The discrete L-curve of a family indexed k = 1, 2, ...: the log
    residual norms and the log solution norms, as two lists whose entry
    k - 1 belongs to member k (residual stagnation wiggles kept; the corner
    detector prunes).  Norms are clamped at 1e-300 before the log, which
    `math.log` takes element by element."""
    return ([math.log(max(float(r), 1e-300)) for r in residual_norms],
            [math.log(max(float(s), 1e-300)) for s in solution_norms])


def lcurve_corner(points):
    """Iteration index k at the corner of a discrete L-curve given as
    `lcurve_points` returns it, or None.

    Points whose residual is not below every earlier kept residual are
    dropped, as are exact duplicates; the corner maximizes the
    circumscribed-circle curvature of consecutive triples (clockwise
    positive for the usual orientation).  Corner-free data returns None
    explicitly: collinear points, and curves that are numerically collinear
    because one log-axis extent is below LCURVE_FLAT_ASPECT times the other,
    have no corner to find.
    """
    log_residuals, log_norms = points
    if len(log_residuals) < 3:
        return None
    xs, ys, ks = [], [], []
    for k, (x, y) in enumerate(zip(log_residuals, log_norms), start=1):
        if xs and (x > xs[-1] or abs(x - xs[-1]) + abs(y - ys[-1]) <= 1e-12):
            continue
        xs.append(x)
        ys.append(y)
        ks.append(k)
    if len(ks) < 3:
        return None
    rx = max(xs) - min(xs)
    ry = max(ys) - min(ys)
    if ry <= LCURVE_FLAT_ASPECT * rx or rx <= LCURVE_FLAT_ASPECT * ry:
        return None
    best_k = None
    best_curv = 0.0
    for x1, y1, x2, y2, x3, y3, k in zip(xs, ys, xs[1:], ys[1:], xs[2:], ys[2:], ks[1:]):
        cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        d12 = math.hypot(x2 - x1, y2 - y1)
        d23 = math.hypot(x3 - x2, y3 - y2)
        d13 = math.hypot(x3 - x1, y3 - y1)
        if d12 == 0.0 or d23 == 0.0 or d13 == 0.0:
            continue
        curv = -2.0 * cross / (d12 * d23 * d13)
        if curv > best_curv:
            best_curv = curv
            best_k = k
    return best_k


def semiconvergence_index(trace):
    """Iteration with the smallest relative error (ties: smallest k), the
    k of `trace.best()`."""
    return trace.best()[0]

