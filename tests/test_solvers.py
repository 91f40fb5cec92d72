import numpy as np
import pytest

from regkrylov import problems, rng
from regkrylov.exceptions import ContractViolation
from regkrylov.linalg import SymmetricMatrix, symmetric_eig
from regkrylov.solvers import (
    SOLVERS,
    HybridRule,
    hybrid_trace,
    lsqr_trace,
    minres_trace,
    mr2_trace,
    tsvd_trace,
)

from oracles import krylov_subspace_minimizer


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
    prob = get_problem("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=1)
    for builder in (minres_trace, mr2_trace):
        tr = builder(prob.a, nz.b, 8, x_true=prob.x_true, debug=True)
        assert tr.pseudoinverse_gaps is not None
        assert tr.pseudoinverse_gaps.max() <= 1e-10, builder.__name__


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


def test_hybrid_fixed_full_rank_equals_base(get_problem):
    prob = get_problem("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    base = mr2_trace(prob.a, nz.b, 10, x_true=prob.x_true)
    hyb = hybrid_trace("mr2", prob.a, nz.b, 10, rule=HybridRule(mode="fixed", p=10),
                       x_true=prob.x_true)
    for k in range(10):
        assert np.linalg.norm(hyb.solutions[k] - base.solutions[k]) <= 1e-10 * (
            1.0 + np.linalg.norm(base.solutions[k])
        )


def test_hybrid_rule_validation():
    with pytest.raises(ContractViolation):
        HybridRule(mode="fixed", p=12).validate(10)
    with pytest.raises(ContractViolation):
        HybridRule(mode="fixed", p=0).validate(10)
    with pytest.raises(ContractViolation):
        HybridRule(mode="nope").validate(10)
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
