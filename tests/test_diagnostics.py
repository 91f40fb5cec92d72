import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regkrylov import diagnostics, problems, rng, solvers
from regkrylov.diagnostics import LCurvePoint
from regkrylov.exceptions import ContractViolation, NumericalError
from regkrylov.krylov import START_FILTERED, START_RESIDUAL, lanczos
from regkrylov.linalg import SpectralDecomposition, SymmetricMatrix, TridiagonalRect, symmetric_eig

import oracles
from conftest import needs_extended_precision, traced_peak_n2


# ---------------------------------------------------------------------------
# harmonic Ritz values


def test_harmonic_ritz_one_dimensional_hand_value():
    got = diagnostics.harmonic_ritz(TridiagonalRect([1.5], [0.5]))
    assert abs(got[0] - 5.0 / 3.0) < 1e-14


def test_harmonic_ritz_at_breakdown_equals_eigenvalues():
    lams = np.array([3.0, 2.2, 1.5, -1.0, 0.5])
    q, _ = np.linalg.qr(rng.normal(4, 25).reshape(5, 5))
    a = SymmetricMatrix(dense=(q * lams) @ q.T)
    fact = lanczos(a, START_RESIDUAL, rng.normal(5, 5), 5)
    assert fact.breakdown and fact.k == 5
    theta = diagnostics.harmonic_ritz(fact.tridiag)
    assert np.abs(np.sort(theta) - np.sort(lams)).max() < 1e-10


def test_harmonic_ritz_ordering(get_problem):
    prob = get_problem("shaw", 64)
    fact = lanczos(prob.a, START_RESIDUAL, prob.b_hat, 6)
    theta = diagnostics.harmonic_ritz(fact.tridiag)
    assert np.all(np.diff(np.abs(theta)) <= 1e-14 * np.abs(theta[0]))


def test_extended_tridiagonal_rounds_to_double_lanczos(get_problem):
    prob = get_problem("shaw", 64)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    fact = lanczos(prob.a, START_RESIDUAL, nz.b, 8)
    ext = lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, nz.b, 8).tridiag
    assert ext.alpha.dtype == np.longdouble and ext.k == fact.k
    scale = 1e-13 * fact.norm_estimate
    assert np.abs(ext.alpha - fact.tridiag.alpha).max() <= scale
    assert np.abs(ext.beta - fact.tridiag.beta).max() <= scale


def test_extended_tridiagonal_at_breakdown():
    lams = np.array([3.0, 2.2, 1.5, -1.0, 0.5])
    q, _ = np.linalg.qr(rng.normal(4, 25).reshape(5, 5))
    a = SymmetricMatrix(dense=(q * lams) @ q.T)
    fact = lanczos(a.astype(np.longdouble), START_RESIDUAL, rng.normal(5, 5), 5)
    assert fact.breakdown and fact.basis.dtype == np.longdouble
    ext = fact.tridiag
    assert ext.k == 5
    theta = diagnostics.harmonic_ritz(ext)
    assert theta.dtype == np.float64
    assert np.abs(np.sort(theta) - np.sort(lams)).max() < 1e-10


def _heads_one_by_one(tridiag):
    """harmonic_ritz of each head, up to the first it refuses."""
    out = []
    for k in range(1, tridiag.k + 1):
        try:
            out.append(diagnostics.harmonic_ritz(tridiag.head(k)))
        except NumericalError:
            break
    return out


def _assert_heads_bitwise(tridiag, count):
    got = diagnostics.harmonic_ritz_heads(tridiag)
    want = _heads_one_by_one(tridiag)
    assert len(got) == len(want) == count
    assert [h.tobytes() for h in got] == [h.tobytes() for h in want]


@pytest.mark.parametrize("name", ["shaw", "phillips", "deriv2"])
def test_harmonic_ritz_heads_equal_each_head_alone(get_problem, name):
    prob = get_problem(name, 128)
    nz = problems.add_noise(prob, 1e-3, seed=1)
    tridiag = lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, nz.b, 10).tridiag
    _assert_heads_bitwise(tridiag, 10)


def test_harmonic_ritz_heads_at_breakdown():
    lams = np.array([3.0, 2.2, 1.5, -1.0, 0.5])
    q, _ = np.linalg.qr(rng.normal(4, 25).reshape(5, 5))
    a = SymmetricMatrix(dense=(q * lams) @ q.T)
    fact = lanczos(a.astype(np.longdouble), START_RESIDUAL, rng.normal(5, 5), 5)
    assert fact.breakdown
    _assert_heads_bitwise(fact.tridiag, 5)


def test_harmonic_ritz_heads_stop_at_a_rank_deficient_head():
    # the third column is zero, so every head from the third on is rank
    # deficient and the list stops after two
    tridiag = TridiagonalRect([2.0, 1.0, 0.0, 1.5, 1.0], [0.5, 0.0, 0.0, 0.7, 0.3])
    with pytest.raises(NumericalError):
        diagnostics.harmonic_ritz(tridiag.head(3))
    _assert_heads_bitwise(tridiag, 2)
    # a rank-deficient first head leaves no heads at all
    assert diagnostics.harmonic_ritz_heads(TridiagonalRect([0.0, 1.0], [0.0, 1.0])) == []


def _pencil_roots_mp(tridiag, digits=60):
    """Roots of det(T^T T - theta T_sq) from the exact entries of T, by
    mpmath at the given number of digits, |theta| descending."""
    t = tridiag.dense()
    k = tridiag.k
    with mpmath.workdps(digits):
        tm = mpmath.matrix(*t.shape)
        for i, j in np.ndindex(*t.shape):
            hi = float(t[i, j])  # a long double is hi + lo exactly
            tm[i, j] = mpmath.mpf(hi) + mpmath.mpf(float(t[i, j] - np.longdouble(hi)))
        pencil = mpmath.inverse(tm[:k, :]) * (tm.T * tm)
        roots = [float(mpmath.re(r)) for r in mpmath.eig(pencil, left=False, right=False)]
    return np.array(sorted(roots, key=lambda r: -abs(r)))


@needs_extended_precision
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["shaw", "foxgood"])
def test_harmonic_ritz_vs_high_precision_pencil_roots(get_problem, name, seed):
    prob = get_problem(name, 256)
    nz = problems.add_noise(prob, 1e-3, seed)
    tridiag = lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, nz.b, 10).tridiag
    for k in range(8, tridiag.k + 1):
        head = tridiag.head(k)
        want = _pencil_roots_mp(head)
        got = diagnostics.harmonic_ritz(head)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_wild_newton_step_keeps_the_guess(get_problem):
    # a guess 1e-4 off its root would take a step far beyond the 1e-6
    # guard: it comes back as given, not polished onto some other root
    prob = get_problem("shaw", 64)
    tridiag = lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, prob.b_hat, 6).tridiag
    good = diagnostics.harmonic_ritz(tridiag)
    guesses = good.copy()
    guesses[2] *= 1.0 + 1e-4
    got = diagnostics._refine_pencil_roots(tridiag, [guesses])[0]
    assert got[2] == guesses[2]
    assert np.abs(np.delete(got - good, 2)).max() <= 1e-14 * np.abs(good).max()


# ---------------------------------------------------------------------------
# filter factors


def test_filter_is_one_at_a_root():
    f = diagnostics.filter_factors(np.array([2.0, 1.0]), np.array([2.0, 0.3]))
    assert f[0] == 1.0


def test_filter_is_zero_at_zero_eigenvalue():
    f = diagnostics.filter_factors(np.array([2.0, 1.0]), np.array([0.0]))
    assert f[0] == 0.0


def test_zero_harmonic_ritz_value_rejected():
    with pytest.raises(NumericalError):
        diagnostics.filter_factors(np.array([1.0, 0.0]), np.array([1.0]))


def test_filter_reconstruction_matches_minres(get_problem, get_decomp):
    # the k = 5 identity on shaw; deeper k live in the acceptance suite
    prob = get_problem("shaw", 128)
    decomp = get_decomp("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=1)
    tr = solvers.minres_trace(prob.a, nz.b, 5, x_true=prob.x_true)
    theta = diagnostics.harmonic_ritz(tr.factorization.tridiag)
    f = diagnostics.filter_factors(theta, decomp.eigenvalues)
    x_ff = diagnostics.filtered_solution(decomp, nz.b, f)
    gap = np.linalg.norm(x_ff - tr.solutions[-1]) / np.linalg.norm(tr.solutions[-1])
    assert gap < 1e-6


@pytest.mark.parametrize("name,k_max", [("phillips", 10), ("shaw", 7)])
def test_residual_polynomial_reproduces_minres_residual(get_problem, get_decomp, name, k_max):
    # the polynomial with harmonic Ritz roots, normalized at zero, applied
    # spectrally to b reproduces the residual norm
    prob = get_problem(name, 128)
    decomp = get_decomp(name, 128)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    tr = solvers.minres_trace(prob.a, nz.b, k_max, x_true=prob.x_true)
    c = decomp.project(nz.b)
    for k in range(1, tr.iterations + 1):
        theta = diagnostics.harmonic_ritz(tr.factorization.tridiag.head(k))
        chi = np.prod(1.0 - decomp.eigenvalues[:, None] / theta[None, :], axis=1)
        rnorm = np.linalg.norm(chi * c)
        assert abs(rnorm - tr.residual_norms[k - 1]) <= 1e-8 * tr.residual_norms[k - 1]


# ---------------------------------------------------------------------------
# rank-k approximation error


def _exact_capture_case():
    """A rank-3 matrix: K_3 captures its range and Lanczos breaks down."""
    lams = np.array([0.9, 0.5, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
    q, _ = np.linalg.qr(rng.normal(9, 64).reshape(8, 8))
    return SymmetricMatrix(dense=(q * lams) @ q.T), rng.normal(10, 8), 6


def test_lowrank_error_vanishes_at_exact_capture():
    a, b, k_max = _exact_capture_case()
    fact = lanczos(a, START_FILTERED, b, k_max)
    assert fact.breakdown and fact.k == 3
    gam = diagnostics.lowrank_error_sequence(a, fact)
    assert gam[-1] <= 1e-12 * 0.9


def test_lowrank_error_stops_at_a_zero_alpha():
    """Q_1 = e_1 leaves a complement that A maps to exactly zero: the
    build stops at its zero alpha instead of dividing by it."""
    a = SymmetricMatrix(dense=np.diag([2.0, 0.0, 0.0, 0.0]))
    fact = lanczos(a, START_RESIDUAL, np.array([1.0, 0.0, 0.0, 0.0]), 2)
    assert fact.k == 1 and np.array_equal(fact.basis[:, 0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(diagnostics.lowrank_error_sequence(a, fact), [0.0])


def _dense_lowrank_errors(a, fact):
    """The dense form: ||A - (A Q_k) Q_k^T||_2 for every k the basis spans."""
    a_mat = oracles.dense(a)
    q = fact.basis
    return np.array([
        np.linalg.norm(a_mat - (a_mat @ q[:, :k]) @ q[:, :k].T, 2)
        for k in range(1, min(fact.k, q.shape[1]) + 1)
    ])


def _generated_case(name, n, **kw):
    prob = problems.generate(name, n, **kw)
    return prob.a, problems.add_noise(prob, 1e-3, seed=4).b, min(prob.n - 1, 20)


def _synthetic_case(decay, alpha, sign_pattern):
    spec = problems.SyntheticSpec(n=40, decay=decay, alpha=alpha, beta=1.0,
                                  sign_pattern=sign_pattern, basis="random", seed=5)
    prob, _ = problems.generate_synthetic(spec)
    return prob.a, problems.add_noise(prob, 1e-3, seed=6).b, 20


LOWRANK_ORACLE_CASES = {
    "exact-capture": _exact_capture_case,
    "shaw-48": lambda: _generated_case("shaw", 48),
    "phillips-48": lambda: _generated_case("phillips", 48),
    "deriv2-32": lambda: _generated_case("deriv2", 32),
    "synthetic-severe-alternating": lambda: _synthetic_case("severe", 0.5, "alternating"),
    "synthetic-mild-random": lambda: _synthetic_case("mild", 0.8, "random"),
    "blur-5": lambda: _generated_case("blur", 5, band=2, sigma=1.0),
    "blur-12": lambda: _generated_case("blur", 12),
    "blur-16": lambda: _generated_case("blur", 16, band=5, sigma=1.5),
}


@pytest.mark.parametrize("case", LOWRANK_ORACLE_CASES)
@pytest.mark.parametrize("start", [START_RESIDUAL, START_FILTERED])
def test_lowrank_error_matches_dense_form(case, start):
    a, b, k_max = LOWRANK_ORACLE_CASES[case]()
    fact = lanczos(a, start, b, k_max)
    got = diagnostics.lowrank_error_sequence(a, fact)
    want = _dense_lowrank_errors(a, fact)
    sig1 = np.linalg.norm(oracles.dense(a), 2)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * sig1, case


@st.composite
def _small_symmetric_systems(draw):
    """G D G^T of order n <= 10 and rank r <= n, with a right-hand side."""
    n = draw(st.integers(2, 10))
    r = draw(st.integers(1, n))
    entries = st.floats(-3.0, 3.0)
    g = np.array(draw(st.lists(entries, min_size=n * r, max_size=n * r))).reshape(n, r)
    d = draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 3.0]), min_size=r, max_size=r))
    b = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    return (g * np.array(d)) @ g.T, b


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_small_symmetric_systems(), st.sampled_from([START_RESIDUAL, START_FILTERED]))
def test_lowrank_error_matches_dense_form_property(system, start):
    a_mat, b = system
    a = SymmetricMatrix(dense=a_mat)
    assume(np.linalg.norm(b) > 0.0 and np.linalg.norm(a.matvec(b)) > 0.0)
    fact = lanczos(a, start, b, a.n)
    got = diagnostics.lowrank_error_sequence(a, fact)
    want = _dense_lowrank_errors(a, fact)
    assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(a.dense(), 2)


DENSE_LOWRANK_CASES = [case for case in LOWRANK_ORACLE_CASES if not case.startswith("blur")]


@pytest.mark.parametrize("case", DENSE_LOWRANK_CASES)
@pytest.mark.parametrize("cap", [1, 2])
def test_lowrank_error_in_small_batches(monkeypatch, case, cap):
    """With the batch cap below the number of k's, the k's run alone or in
    pairs, in several lockstep batches, and still
    matches the dense form; it agrees with one batch of every k to
    rounding.  Kronecker operators run one k at a time whatever the cap
    (they have no block product), so the blur cases are left out."""
    a, b, k_max = LOWRANK_ORACLE_CASES[case]()
    fact = lanczos(a, START_FILTERED, b, k_max)
    monkeypatch.setattr(solvers, "builds_per_block", lambda a, k_max, bases: a.n)
    whole = diagnostics.lowrank_error_sequence(a, fact)
    monkeypatch.setattr(solvers, "builds_per_block", lambda a, k_max, bases: cap)
    got = diagnostics.lowrank_error_sequence(a, fact)
    assert got.size > cap
    sig1 = np.linalg.norm(a.dense(), 2)
    assert np.abs(got - _dense_lowrank_errors(a, fact)).max() <= 1e-12 * sig1, case
    assert np.abs(got - whole).max() <= 1e-14 * sig1, case


@pytest.mark.parametrize("case", ["exact-capture", "shaw-48", "deriv2-32", "blur-12"])
def test_a_lone_k_writes_the_bytes_of_the_one_k_build(monkeypatch, case):
    """With one k a batch, as on every Kronecker operator, each rank-k error
    is bit for bit that of the k's build alone, `oracles.deflated_norm`."""
    a, b, k_max = LOWRANK_ORACLE_CASES[case]()
    fact = lanczos(a, START_FILTERED, b, k_max)
    monkeypatch.setattr(solvers, "builds_per_block", lambda a, k_max, bases: 1)
    got = diagnostics.lowrank_error_sequence(a, fact)
    start = rng.normal(diagnostics.LOWRANK_START_SEED, a.n)
    want = [oracles.deflated_norm(a, fact.basis[:, :k], start, fact.norm_estimate)
            if k < a.n else 0.0 for k in range(1, got.size + 1)]
    assert np.array_equal(got, want), case


def test_lowrank_error_batch_rule():
    """A batch of k's holds the builds of one basis of k_max + 1 vectors
    that fit in the operator's storage; a Kronecker operator runs one k at
    a time."""
    assert solvers.builds_per_block(problems.generate("shaw", 256).a, 30, 1) == 8
    assert solvers.builds_per_block(problems.generate("shaw", 512).a, 40, 1) == 12
    assert solvers.builds_per_block(problems.generate("blur", 32).a, 20, 1) == 1


@pytest.mark.parametrize("name", ["phillips", "deriv2"])
def test_lowrank_error_memory_stays_within_twice_the_operator(name):
    """The batched builds keep their bases in the slots they were given
    (finished k's are moved out in place, and the bases grow by half), so
    the diagnostic's traced peak at n = 512, k_max 40 (12 k's a batch)
    stays within 2 n^2 doubles."""
    n = 512
    prob = problems.generate(name, n)
    fact = lanczos(prob.a, START_FILTERED, problems.add_noise(prob, 1e-3, seed=1).b, 40)
    assert traced_peak_n2(lambda: diagnostics.lowrank_error_sequence(prob.a, fact), n) <= 2.0


def test_lowrank_error_lower_bound(get_problem, get_decomp):
    prob = get_problem("shaw", 128)
    decomp = get_decomp("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=3)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 15)
    gam = diagnostics.lowrank_error_sequence(prob.a, fact)
    for k in range(1, len(gam) + 1):
        assert gam[k - 1] >= decomp.sigmas[k] - 1e-10 * decomp.sigmas[0]


def test_lowrank_error_near_optimality(get_problem, get_decomp):
    # rank-k errors stay within a factor 10 of the optimum before round-off;
    # a x10 margin over the floor keeps boundary fuzz out of the sweep
    for name in ("shaw", "foxgood", "gravity", "phillips"):
        prob = get_problem(name, 128)
        decomp = get_decomp(name, 128)
        nz = problems.add_noise(prob, 1e-3, seed=0)
        fact = lanczos(prob.a, START_FILTERED, nz.b, 20)
        floor = diagnostics.roundoff_floor(128, decomp.sigmas[0])
        gam = diagnostics.lowrank_error_sequence(prob.a, fact)
        checked = 0
        for k in range(1, len(gam) + 1):
            if min(gam[k - 1], decomp.sigmas[k]) <= 10 * floor:
                continue
            checked += 1
            assert gam[k - 1] / decomp.sigmas[k] <= 10.0, (name, k)
        assert checked >= 5, name


def test_rank_error_sandwiched_by_angle_bound():
    spec = problems.SyntheticSpec(n=32, decay="severe", alpha=1.0, beta=1.0,
                                  basis="random", seed=3)
    prob, decomp = problems.generate_synthetic(spec)
    nz = problems.add_noise(prob, 1e-3, seed=1)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 8)
    gam = diagnostics.lowrank_error_sequence(prob.a, fact)
    sig1 = decomp.sigmas[0]
    for k in range(1, len(gam) + 1):
        sine = diagnostics.angle_sine(decomp, k, mode="direct", fact=fact)
        assert decomp.sigmas[k] - 1e-10 * sig1 <= gam[k - 1]
        assert gam[k - 1] <= decomp.sigmas[k] + sig1 * sine + 1e-8 * sig1


# ---------------------------------------------------------------------------
# coupling matrix and angles


def test_coupling_single_trailing_row():
    spec = problems.SyntheticSpec(n=5, decay="severe", alpha=0.8, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    b = prob.b_hat
    k = 4
    delta = diagnostics.tail_coupling(decomp, b, k)
    lams = decomp.eigenvalues
    c = decomp.project(b)
    lagrange = []
    for i in range(k):
        val = 1.0
        for j in range(k):
            if j != i:
                val *= (lams[k] - lams[j]) / (lams[i] - lams[j])
        lagrange.append(val)
    want = np.array([lams[k] * c[k] * lagrange[i] / (lams[i] * c[i]) for i in range(k)])
    assert delta.shape == (1, 4)
    assert np.abs(delta[0] - want).max() < 1e-12 * max(np.abs(want).max(), 1e-30)


def test_coupling_zero_tail_gives_zero_angle():
    spec = problems.SyntheticSpec(n=8, decay="severe", alpha=1.0, beta=1.0)
    _, decomp = problems.generate_synthetic(spec)
    coeffs = np.zeros(8)
    coeffs[:3] = [1.0, 0.5, 0.25]
    b = decomp.lincomb(coeffs)
    delta = diagnostics.tail_coupling(decomp, b, 3)
    assert np.all(delta == 0.0)
    assert diagnostics.angle_sine(decomp, 3, mode="formula", b=b) == 0.0


def test_coupling_spans_krylov_subspace():
    # columns of V [I; Delta] span K_k(A, Ab): check against explicit
    # Gram-Schmidt on the power basis
    spec = problems.SyntheticSpec(n=32, decay="severe", alpha=1.0, beta=1.0,
                                  basis="random", seed=11)
    prob, decomp = problems.generate_synthetic(spec)
    nz = problems.add_noise(prob, 1e-2, seed=4)
    k = 4
    delta = diagnostics.tail_coupling(decomp, nz.b, k)
    z = decomp.lincomb(np.vstack([np.eye(k), delta]))  # n x k in eigen coords
    z = np.column_stack([decomp.lincomb(np.concatenate([np.eye(k)[:, j], delta[:, j]]))
                         for j in range(k)])
    zq, _ = np.linalg.qr(z)
    cols = []
    w = nz.b.copy()
    for _ in range(k):
        w = prob.a.matvec(w)
        cols.append(w.copy())
    kq, _ = np.linalg.qr(np.column_stack(cols))
    assert np.linalg.svd(kq - zq @ (zq.T @ kq), compute_uv=False)[0] <= 1e-8


def test_coupling_preconditions():
    spec = problems.SyntheticSpec(n=8, decay="severe", alpha=1.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    with pytest.raises(ContractViolation):
        diagnostics.tail_coupling(decomp, prob.b_hat, 13)
    coeffs = np.zeros(8)
    coeffs[0] = 1.0  # second leading coefficient at noise level
    b = decomp.lincomb(coeffs)
    with pytest.raises(NumericalError):
        diagnostics.tail_coupling(decomp, b, 3)


def _fresh_shaw(n=64):
    prob = problems.generate("shaw", n)
    return prob, symmetric_eig(prob.a), problems.add_noise(prob, 1e-3, seed=2).b


def test_lagrange_products_are_read_only_and_kept_once():
    _, decomp, b = _fresh_shaw()
    diagnostics.tail_coupling(decomp, b, 4)
    held = decomp.lagrange[4]
    diagnostics.tail_coupling(decomp, 2 * b, 4)
    assert decomp.lagrange[4] is held and list(decomp.lagrange) == [4]
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0] = 0.0


def test_formula_sines_do_not_depend_on_the_order_of_the_ks():
    """The formula sines are byte-identical whether the k's are asked for
    in order, out of order, or each on a fresh decomposition."""
    _, decomp, b = _fresh_shaw()
    ks = range(1, diagnostics.COUPLING_K_CAP + 1)
    in_order = {k: diagnostics.angle_sine(decomp, k, mode="formula", b=b) for k in ks}
    _, shuffled, _ = _fresh_shaw()
    out_of_order = {k: diagnostics.angle_sine(shuffled, k, mode="formula", b=b)
                    for k in (7, 2, 12, 1, 9, 4, 11, 3, 6, 10, 5, 8)}
    fresh = {k: diagnostics.angle_sine(_fresh_shaw()[1], k, mode="formula", b=b) for k in ks}
    assert in_order == out_of_order == fresh


def test_repeated_eigenvalues_are_refused_on_every_call():
    """The distinct-eigenvalue check runs before the kept products are
    read, so it refuses every call, not only the first."""
    decomp = SpectralDecomposition(np.array([3.0, 2.0, 2.0, 1.0, 0.5]), v=np.eye(5))
    b = np.ones(5)
    diagnostics.tail_coupling(decomp, b, 1)
    for _ in range(2):
        with pytest.raises(ContractViolation, match="distinct"):
            diagnostics.tail_coupling(decomp, b, 2)
    assert list(decomp.lagrange) == [1]


def test_angle_formula_monotone_in_coupling_scale():
    # scaling b's trailing spectral coefficients by t scales Delta by t
    spec = problems.SyntheticSpec(n=8, decay="severe", alpha=1.0, beta=1.0)
    _, decomp = problems.generate_synthetic(spec)
    coeffs = rng.normal(3, 8)
    prev = -1.0
    for t in (0.1, 1.0, 10.0, 1e8):
        b = decomp.lincomb(np.append(coeffs[:3], t * coeffs[3:]))
        val = diagnostics.angle_sine(decomp, 3, mode="formula", b=b)
        assert prev < val <= 1.0
        prev = val


def test_angle_direct_vs_formula():
    spec = problems.SyntheticSpec(n=32, decay="severe", alpha=1.0, beta=1.0,
                                  basis="random", seed=7)
    prob, decomp = problems.generate_synthetic(spec)
    nz = problems.add_noise(prob, 1e-3, seed=2)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 8)
    for k in range(1, 9):
        direct = diagnostics.angle_sine(decomp, k, mode="direct", fact=fact)
        formula = diagnostics.angle_sine(decomp, k, mode="formula", b=nz.b)
        assert abs(direct - formula) <= 1e-8, k


def test_direct_angle_is_exact_on_an_identity_basis():
    # with V = I the dominant eigenspace is the first k coordinates, so
    # sin theta_k = ||Q_k[k:, :]||_2; the direct mode keeps it to a few ulps
    # of itself, far below eps absolute when the angle is small
    spec = problems.SyntheticSpec(n=32, decay="severe", alpha=2.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    nz = problems.add_noise(prob, 1e-6, seed=2)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 8)
    for k in range(1, 9):
        exact = np.linalg.norm(fact.basis[k:, :k], 2)
        direct = diagnostics.angle_sine(decomp, k, mode="direct", fact=fact)
        assert abs(direct - exact) <= 8 * np.finfo(float).eps * exact, k


# ---------------------------------------------------------------------------
# coefficient profiles


def test_tail_head_ratio_decreasing_coefficients():
    lams = np.array([1.0, 0.5, 0.25, 0.125])
    decomp = __import__("regkrylov.linalg", fromlist=["SpectralDecomposition"]).SpectralDecomposition(
        lams, v=np.eye(4)
    )
    b = np.array([1.0, 0.5, 0.25, 0.125])
    profile = diagnostics.coefficient_profile(decomp, b, np.zeros(4))
    assert np.allclose(profile.tail_head_ratio, [0.5, 0.5, 0.5])


def test_tail_head_ratio_flat_coefficients():
    from regkrylov.linalg import SpectralDecomposition

    decomp = SpectralDecomposition(np.array([2.0, 1.5, 1.0]), v=np.eye(3))
    profile = diagnostics.coefficient_profile(decomp, np.ones(3), np.zeros(3))
    assert np.allclose(profile.tail_head_ratio, 1.0)


def test_tail_head_ratio_matches_picard_model():
    spec = problems.SyntheticSpec(n=10, decay="severe", alpha=0.8, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    profile = diagnostics.coefficient_profile(decomp, prob.b_hat, np.zeros(10))
    want = (decomp.sigmas[1:] / decomp.sigmas[:-1]) ** 2
    assert np.abs(profile.tail_head_ratio - want).max() < 1e-12


def test_tail_head_ratio_near_one_past_transition():
    # flat eigenbasis noise: past the transition every coefficient sits at
    # the noise scale, so the tail/head ratio is pinned near one (white
    # noise would put min-of-normals tails far outside any fixed band)
    spec = problems.SyntheticSpec(n=48, decay="severe", alpha=0.7, beta=1.0,
                                  basis="random", seed=5)
    prob, decomp = problems.generate_synthetic(spec)
    e = decomp.lincomb(np.full(48, 1e-3))
    k0 = problems.transition_index(decomp, prob.b_hat, e)
    assert 0 < k0 < 38
    profile = diagnostics.coefficient_profile(decomp, prob.b_hat, e)
    window = profile.tail_head_ratio[k0 : k0 + 10]
    assert np.all((window >= 0.1) & (window <= 10.0))


def test_zero_denominator_flags_infinite_ratio():
    from regkrylov.linalg import SpectralDecomposition

    decomp = SpectralDecomposition(np.array([2.0, 1.0, 0.5]), v=np.eye(3))
    profile = diagnostics.coefficient_profile(decomp, np.array([0.0, 1.0, 1.0]), np.zeros(3))
    assert math.isinf(profile.tail_head_ratio[0])


# ---------------------------------------------------------------------------
# decay table


def test_decay_table_inequalities_hold(get_problem, get_decomp):
    prob = get_problem("shaw", 128)
    decomp = get_decomp("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=2)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 24)
    gam = diagnostics.lowrank_error_sequence(prob.a, fact)
    rows, violations = diagnostics.lanczos_decay_table(fact, gam, decomp.sigmas)
    assert rows and not violations


def test_decay_table_lists_exactly_the_violations_above_the_floor():
    # at n = 65536 the round-off floor 10 n eps sigma_1 (1.46e-10) exceeds
    # the slack DECAY_TOL sigma_1 (1e-10), so a row can break a bound below it
    n, tol = 65536, diagnostics.DECAY_TOL
    floor = diagnostics.roundoff_floor(n, 1.0)
    assert floor > 1.2e-10 > tol
    gam = [0.5, 0.1, 0.05, 0.02, 0.0, 0.0]
    alpha = [1.0, 0.8, 0.1, 0.05, -(0.05 + 2 * tol), 0.01, 0.0, 0.0]
    beta = [0.6, 0.3, 0.1 + 2 * tol, 0.04, 0.02 + tol / 2, 1.2e-10, 3e-10, 0.0]
    fact = types.SimpleNamespace(tridiag=TridiagonalRect(alpha, beta),
                                 basis=np.empty((n, 0)), k=len(alpha))
    sigmas = 0.5 ** np.arange(8)
    rows, violations = diagnostics.lanczos_decay_table(fact, gam, sigmas)
    assert [r.k for r in rows] == [1, 2, 3, 4, 5, 6]
    # row 2 breaks the off-diagonal bound, row 3 the diagonal one, row 6 the
    # off-diagonal one just above the floor; row 4 is within the slack and
    # row 5 breaks the off-diagonal bound below the floor
    assert [r.k for r in violations] == [2, 3, 6]


def test_phillips_offdiagonal_tracks_sigma(get_problem, get_decomp):
    # the off-diagonals decay at the singular-value rate; individual entries
    # swing in an early transient, so the tracking claim is about the bulk
    prob = get_problem("phillips", 256)
    decomp = get_decomp("phillips", 256)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 40)
    beta = fact.tridiag.beta
    ratios = beta[1:39] / decomp.sigmas[1:39]
    assert 0.1 <= np.median(ratios) <= 10.0
    assert np.all(ratios[8:] >= 0.01) and np.all(ratios[8:] <= 100.0)


# ---------------------------------------------------------------------------
# L-curve corner and semi-convergence


def _pts(coords):
    return [LCurvePoint(x, y, i + 1) for i, (x, y) in enumerate(coords)]


def test_corner_of_exact_right_angle():
    corner = diagnostics.lcurve_corner(_pts([(2, 0), (1, 0), (1, 1), (1, 2)]))
    assert corner == 2


def test_collinear_points_have_no_corner():
    assert diagnostics.lcurve_corner(_pts([(3, 0), (2, 1), (1, 2), (0, 3)])) is None


def test_numerically_flat_curve_has_no_corner():
    pts = _pts([(5, 0.0), (3, 1e-4), (1, 0.0), (0, 2e-4)])
    assert diagnostics.lcurve_corner(pts) is None


def test_too_few_points():
    assert diagnostics.lcurve_corner(_pts([(1, 0), (0, 1)])) is None


def test_corner_tracks_semiconvergence_on_deriv2(get_problem):
    prob = get_problem("deriv2", 1024)
    for seed in range(3):
        nz = problems.add_noise(prob, 1e-3, seed=seed)
        tr = solvers.mr2_trace(prob.a, nz.b, 25, x_true=prob.x_true)
        corner = diagnostics.lcurve_corner(diagnostics.lcurve_points(tr.residual_norms, tr.solution_norms))
        semi = diagnostics.semiconvergence_index(tr)
        assert corner is not None and abs(corner - semi) <= 1


def test_semiconvergence_trivial_cases():
    tr = solvers.IterateTrace(
        solutions=[None] * 4,
        residual_norms=np.zeros(4), solution_norms=np.zeros(4),
        relative_errors=np.array([1.0, 0.5, 0.2, 0.4]), matvecs=np.zeros(4),
    )
    assert diagnostics.semiconvergence_index(tr) == 3
    tr.relative_errors = np.array([1.0, 0.5, 0.2, 0.1])
    assert diagnostics.semiconvergence_index(tr) == 4
    tr.relative_errors = None
    with pytest.raises(ContractViolation):
        diagnostics.semiconvergence_index(tr)


def test_roundoff_floor_value():
    from regkrylov.linalg import EPS

    assert diagnostics.roundoff_floor(100, 2.0) == 10 * 100 * EPS * 2.0

