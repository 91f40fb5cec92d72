import numpy as np
import pytest

from regkrylov import problems, rng
from regkrylov.exceptions import ContractViolation
from regkrylov.krylov import START_FILTERED, START_RESIDUAL, golub_kahan, lanczos
from regkrylov.linalg import SymmetricMatrix, least_squares, symmetric_eig
from regkrylov.solvers import (
    SOLVERS,
    LanczosCache,
    _givens_family,
    _projected_tsvd_family,
    hybrid_trace,
    lsqr_trace,
    minres_trace,
    mr2_trace,
    tsvd_trace,
)

from oracles import givens_ls, krylov_subspace_minimizer


def test_minres_identity_one_step():
    a = SymmetricMatrix(dense=np.eye(3))
    b = np.array([1.0, -2.0, 0.5])
    tr = minres_trace(a, b, 2)
    assert np.linalg.norm(tr.solutions[0] - b) < 1e-14
    assert tr.residual_norms[0] < 1e-14


def test_minres_exact_in_two_steps():
    a = SymmetricMatrix(dense=np.diag([2.0, 1.0]))
    tr = minres_trace(a, np.array([1.0, 1.0]), 2)
    assert np.linalg.norm(tr.solutions[1] - [0.5, 1.0]) < 1e-12
    assert tr.residual_norms[1] < 1e-12


def test_mr2_first_iterate_closed_form():
    a_mat = np.diag([3.0, 2.0, 0.5])
    a = SymmetricMatrix(dense=a_mat)
    b = np.array([1.0, -1.0, 2.0])
    tr = mr2_trace(a, b, 2)
    ab = a_mat @ b
    a2b = a_mat @ ab
    want = (a2b @ b) / (a2b @ a2b) * ab
    assert np.linalg.norm(tr.solutions[0] - want) < 1e-13


def test_mr2_identity_first_step_recovers_b():
    a = SymmetricMatrix(dense=np.eye(4))
    b = rng.normal(3, 4)
    tr = mr2_trace(a, b, 3)
    assert np.linalg.norm(tr.solutions[0] - b) < 1e-13


def test_lsqr_identity_and_spd():
    a = SymmetricMatrix(dense=np.eye(3))
    b = np.array([1.0, 2.0, 3.0])
    tr = lsqr_trace(a, b, 2)
    assert np.linalg.norm(tr.solutions[0] - b) < 1e-13
    a2 = SymmetricMatrix(dense=np.diag([4.0, 1.0]))
    tr2 = lsqr_trace(a2, np.array([1.0, 1.0]), 2)
    assert np.linalg.norm(tr2.solutions[-1] - [0.25, 1.0]) < 1e-12


def test_tsvd_full_sum_is_naive_solution():
    a_mat = np.diag([2.0, -1.0, 0.5])
    decomp = symmetric_eig(SymmetricMatrix(dense=a_mat))
    b = np.array([1.0, 2.0, -0.5])
    tr = tsvd_trace(decomp, b)
    naive = np.linalg.solve(a_mat, b)
    assert np.linalg.norm(tr.solutions[-1] - naive) < 1e-13


def test_tsvd_partial_sum():
    decomp = symmetric_eig(SymmetricMatrix(dense=np.diag([2.0, 1.0])))
    tr = tsvd_trace(decomp, np.array([2.0, 3.0]))
    assert np.linalg.norm(tr.solutions[0] - [1.0, 0.0]) < 1e-14


def test_tsvd_best_matches_transition_index_for_eigenbasis_noise():
    spec = problems.SyntheticSpec(n=20, decay="severe", alpha=1.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    e = decomp.lincomb(np.full(20, 1e-4))
    k0 = problems.transition_index(decomp, prob.b_hat, e)
    tr = tsvd_trace(decomp, prob.b_hat + e, x_true=prob.x_true)
    # brute-force enumeration oracle over all truncation levels
    errs = [np.linalg.norm(s - prob.x_true) for s in tr.solutions]
    assert int(np.argmin(errs)) + 1 == k0


def test_residual_norms_non_increasing(get_problem):
    prob = get_problem("shaw", 256)
    nz = problems.add_noise(prob, 1e-3, seed=2)
    for builder in (minres_trace, mr2_trace, lsqr_trace):
        tr = builder(prob.a, nz.b, 20, x_true=prob.x_true)
        r = tr.residual_norms
        assert np.all(r[1:] <= r[:-1] * (1.0 + 1e-12)), builder.__name__


def test_pseudoinverse_identity_in_debug_mode(get_problem):
    # each iterate is V_k T_k^+ Q^T b, from the trace's own factorization
    prob = get_problem("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=1)
    for builder in (minres_trace, mr2_trace):
        tr = builder(prob.a, nz.b, 8, x_true=prob.x_true)
        q = tr.factorization.basis
        t = tr.factorization.tridiag.dense()
        g = q.T @ nz.b
        for k, x in enumerate(tr.solutions, start=1):
            rows = min(k + 1, q.shape[1])
            x_pi = q[:, :k] @ least_squares(t[:rows, :k], g[:rows])
            gap = np.linalg.norm(x - x_pi) / np.linalg.norm(x)
            assert gap <= 1e-10, (builder.__name__, k)


def test_mr2_matches_brute_force_minimizer():
    for trial in range(6):
        n = 8 + trial
        g = rng.normal(rng.derive(500, trial), n * n).reshape(n, n)
        a = SymmetricMatrix(dense=0.5 * (g + g.T))
        b = rng.normal(rng.derive(501, trial), n)
        tr = mr2_trace(a, b, n - 2)
        for k in range(1, tr.iterations + 1):
            want = krylov_subspace_minimizer(a.matvec, b, k)
            got = tr.solutions[k - 1]
            assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1e-30)


def _assert_family_matches_per_k_oracle(t, g):
    # every k of the progressive solve equals a Givens QR of T_k alone, bit for bit
    family = _givens_family(t, g, t.shape[1])
    assert len(family) == t.shape[1]
    for k, (y, proj) in enumerate(family, start=1):
        rows = min(k + 1, t.shape[0])
        want_y, want_proj = givens_ls(t[:rows, :k], g[:rows])
        assert y.tobytes() == want_y.tobytes(), k
        assert proj == want_proj, k


@pytest.mark.parametrize("name,start", [
    ("shaw", START_RESIDUAL), ("shaw", START_FILTERED),
    ("phillips", START_RESIDUAL), ("deriv2", START_FILTERED),
])
def test_givens_family_matches_per_k_oracle_on_lanczos(get_problem, name, start):
    prob = get_problem(name, 128)
    b = problems.add_noise(prob, 1e-3, seed=2).b
    fact = lanczos(prob.a, start, b, 25)
    # the rows the basis spans, as the trace takes them (fewer at a breakdown)
    t = fact.tridiag.dense()[: fact.basis.shape[1]]
    _assert_family_matches_per_k_oracle(t, fact.basis.T @ b)


@pytest.mark.parametrize("name", ["shaw", "phillips", "foxgood"])
def test_givens_family_matches_per_k_oracle_on_golub_kahan(get_problem, name):
    prob = get_problem(name, 128)
    b = problems.add_noise(prob, 1e-4, seed=3).b
    fact = golub_kahan(prob.a, b, 25)
    t = fact.dense()[: fact.left.shape[1]]
    g = np.zeros(t.shape[0])
    g[0] = np.linalg.norm(b)
    _assert_family_matches_per_k_oracle(t, g)


def test_givens_family_matches_per_k_oracle_at_breakdown():
    # five distinct eigenvalues: the fifth step breaks down and the last
    # projected block is square
    lams = np.array([3.0, 2.2, 1.5, -1.0, 0.5])
    q, _ = np.linalg.qr(rng.normal(4, 25).reshape(5, 5))
    a = SymmetricMatrix(dense=(q * lams) @ q.T)
    b = rng.normal(5, 5)
    fact = lanczos(a, START_RESIDUAL, b, 5)
    assert fact.breakdown and fact.basis.shape[1] == fact.k == 5
    _assert_family_matches_per_k_oracle(fact.tridiag.dense()[:5], fact.basis.T @ b)


def test_givens_family_matches_per_k_oracle_at_zero_pivot():
    # an all-zero third column of a lower bidiagonal leaves an exactly zero
    # pivot from k = 3 on, where each step falls back to the pseudoinverse
    t = np.zeros((6, 5))
    idx = np.arange(5)
    t[idx, idx] = [2.0, 1.0, 0.0, 3.0, 1.0]
    t[idx + 1, idx] = [1.0, 0.5, 0.0, 2.0, 1.0]
    _assert_family_matches_per_k_oracle(t, rng.normal(7, 6))
    # rank-one A: the square block at the breakdown has a zero pivot
    a = SymmetricMatrix(dense=np.full((2, 2), -2.0))
    b = np.array([1.0, 0.0])
    fact = lanczos(a, START_RESIDUAL, b, 2)
    assert fact.breakdown
    t = fact.tridiag.dense()[: fact.basis.shape[1]]
    _assert_family_matches_per_k_oracle(t, fact.basis.T @ b)


def test_hybrid_fixed_full_rank_equals_base(get_problem):
    # the untruncated member of the hybrid's inner TSVD family is the base
    # solver's Givens least-squares solve of each projected problem
    prob = get_problem("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    fact = mr2_trace(prob.a, nz.b, 10).factorization
    t = fact.tridiag.dense()
    g = fact.basis.T @ nz.b
    for k, (want, _) in enumerate(_givens_family(t, g, 10), start=1):
        block, rhs = t[: k + 1, :k], g[: k + 1]
        got = _projected_tsvd_family(block, rhs)[0][-1]
        assert np.linalg.norm(got - want) <= 1e-10 * (1.0 + np.linalg.norm(want))


def test_hybrid_rule_validation():
    with pytest.raises(ContractViolation):
        hybrid_trace("cg", SymmetricMatrix(dense=np.eye(3)), np.ones(3), 2)


def test_trace_best_and_metadata(get_problem):
    prob = get_problem("gravity", 128)
    nz = problems.add_noise(prob, 1e-3, seed=5)
    tr = mr2_trace(prob.a, nz.b, 15, x_true=prob.x_true)
    k, err = tr.best()
    assert 1 <= k <= 15 and err == tr.relative_errors.min()
    assert tr.iterations == len(tr.solutions) == tr.residual_norms.size
    bare = mr2_trace(prob.a, nz.b, 5)
    assert bare.relative_errors is None
    with pytest.raises(ContractViolation):
        bare.best()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", list(SOLVERS))
def test_non_finite_rhs_is_refused(get_problem, get_decomp, name, bad):
    prob = get_problem("shaw", 32)
    b = prob.b_hat.copy()
    b[5] = bad
    with pytest.raises(ContractViolation, match="NaN or infinite"):
        SOLVERS[name](prob.a, b, 8, prob.x_true, get_decomp("shaw", 32))


def _shaw_system(n=48, seed=1):
    prob = problems.generate("shaw", n)
    return prob, problems.add_noise(prob, 1e-3, seed).b


def test_lanczos_cache_shares_one_read_only_factorization_per_start():
    prob, b = _shaw_system()
    cache = LanczosCache(prob.a, b, 10)
    names = ("hybrid-mr2", "minres", "mr2", "hybrid-minres")
    shared = {name: SOLVERS[name](prob.a, b, 10, prob.x_true, None, cache) for name in names}
    assert shared["hybrid-minres"].factorization is shared["minres"].factorization
    assert shared["hybrid-mr2"].factorization is shared["mr2"].factorization
    assert shared["minres"].factorization is not shared["mr2"].factorization
    fact = shared["mr2"].factorization
    for arr in (fact.basis, fact.matvec_counts, fact.tridiag.alpha, fact.tridiag.beta):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for name in names:
        alone = SOLVERS[name](prob.a, b, 10, prob.x_true, None)
        assert np.array_equal(shared[name].matvecs, alone.matvecs), name
        assert np.array_equal(shared[name].relative_errors, alone.relative_errors), name
        assert np.array_equal(shared[name].residual_norms, alone.residual_norms), name


def test_lanczos_cache_refuses_another_system():
    prob, b = _shaw_system()
    cache = LanczosCache(prob.a, b, 10)
    minres_trace(prob.a, b, 10, cache=cache)
    _, other_b = _shaw_system(seed=2)
    for call in (
        lambda: minres_trace(prob.a, other_b, 10, cache=cache),
        lambda: mr2_trace(prob.a, other_b, 10, cache=cache),
        lambda: hybrid_trace("minres", prob.a, b, 9, cache=cache),
        lambda: minres_trace(problems.generate("shaw", 48).a, b, 10, cache=cache),
    ):
        with pytest.raises(ContractViolation):
            call()
    edited = b.copy()
    cache = LanczosCache(prob.a, edited, 10)
    edited[0] += 1e-9
    with pytest.raises(ContractViolation):
        mr2_trace(prob.a, edited, 10, cache=cache)
