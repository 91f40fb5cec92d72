import numpy as np
import pytest

from regkrylov import problems, rng
from regkrylov.exceptions import ContractViolation
from regkrylov.krylov import (
    START_FILTERED,
    START_RESIDUAL,
    Basis,
    golub_kahan,
    golub_kahan_steps,
    lanczos,
    lanczos_steps,
    lockstep,
)
from regkrylov.linalg import EPS, SymmetricMatrix

import oracles


def test_eigenvector_start_breaks_down_immediately():
    a = SymmetricMatrix(dense=np.diag([2.0, 1.0]))
    fact = lanczos(a, START_RESIDUAL, np.array([1.0, 0.0]), 1)
    assert fact.breakdown and fact.breakdown_step == 1
    assert fact.tridiag.alpha[0] == 2.0
    assert fact.tridiag.beta[0] == 0.0


def test_identity_breaks_down_for_any_start():
    a = SymmetricMatrix(dense=np.eye(5))
    fact = lanczos(a, START_RESIDUAL, rng.normal(1, 5), 4)
    assert fact.breakdown and fact.breakdown_step == 1
    assert abs(fact.tridiag.alpha[0] - 1.0) < 1e-14


def test_projection_oracle(get_problem):
    # densified Q_{21}^T A Q_20 reproduces the stored tridiagonal rows
    prob = get_problem("shaw", 64)
    b = prob.b_hat + rng.normal(12, 64) * 1e-3
    fact = lanczos(prob.a, START_FILTERED, b, 20)
    q = fact.basis
    proj = q.T @ prob.a.dense() @ q[:, :20]
    assert np.linalg.norm(proj - fact.tridiag.dense()) < 1e-10


@pytest.mark.parametrize("start", [START_RESIDUAL, START_FILTERED])
def test_factorization_invariants(get_problem, start):
    prob = get_problem("gravity", 80)
    b = prob.b_hat + rng.normal(3, 80) * 1e-3 * np.linalg.norm(prob.b_hat)
    fact = lanczos(prob.a, start, b, 25)
    q = fact.basis
    k = fact.k
    norm_a = np.abs(np.linalg.eigvalsh(prob.a.dense())).max()
    res = np.linalg.norm(prob.a.dense() @ q[:, :k] - q @ fact.tridiag.dense()[: q.shape[1], :])
    assert res <= 80 * k * 1e-12 * norm_a
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-10
    assert np.all(fact.tridiag.beta[: k - 1] > 0.0)


def test_matvec_counts():
    prob_a = SymmetricMatrix(dense=np.diag(np.linspace(1.0, 3.0, 30)))
    b = rng.normal(8, 30)
    f1 = lanczos(prob_a, START_RESIDUAL, b, 10)
    assert f1.matvec_count == 10
    assert np.array_equal(f1.matvec_counts, np.arange(1, 11))
    f2 = lanczos(prob_a, START_FILTERED, b, 10)
    assert f2.matvec_count == 11
    assert np.array_equal(f2.matvec_counts, np.arange(2, 12))
    f3 = golub_kahan(prob_a, b, 10)
    assert f3.matvec_count == 20
    assert np.array_equal(f3.matvec_counts, np.arange(2, 21, 2))


def test_zero_start_vector_rejected():
    a = SymmetricMatrix(dense=np.eye(4))
    with pytest.raises(ContractViolation):
        lanczos(a, START_RESIDUAL, np.zeros(4), 2)
    with pytest.raises(ContractViolation):
        lanczos(a, "sideways", np.ones(4), 2)


def test_shift_by_zero_is_bitwise_identical(get_problem):
    prob = get_problem("shaw", 48)
    b = rng.normal(5, 48)
    a2 = SymmetricMatrix(dense=prob.a.dense() + 0.0 * np.eye(48))
    f1 = lanczos(prob.a, START_FILTERED, b, 12)
    f2 = lanczos(a2, START_FILTERED, b, 12)
    assert np.array_equal(f1.basis, f2.basis)
    assert np.array_equal(f1.tridiag.alpha, f2.tridiag.alpha)


def test_positive_scaling(get_problem):
    prob = get_problem("shaw", 48)
    b = rng.normal(6, 48)
    c = 2.0
    f1 = lanczos(prob.a, START_FILTERED, b, 10)
    f2 = lanczos(SymmetricMatrix(dense=c * prob.a.dense()), START_FILTERED, b, 10)
    assert np.abs(f2.tridiag.alpha - c * f1.tridiag.alpha).max() <= 1e-13 * c * np.abs(f1.tridiag.alpha).max()
    assert np.abs(f2.basis - f1.basis).max() <= 1e-13


# ---------------------------------------------------------------------------
# Golub-Kahan


def test_scalar_bidiagonalization():
    a = SymmetricMatrix(dense=np.array([[3.0]]))
    fact = golub_kahan(a, np.array([1.0]), 1)
    assert np.array_equal(fact.dense(), [[3.0], [0.0]])
    assert fact.breakdown


def test_bidiagonal_singular_values_bounded(get_problem):
    prob = get_problem("shaw", 64)
    fact = golub_kahan(prob.a, prob.b_hat, 12)
    top = np.abs(np.linalg.eigvalsh(prob.a.dense())).max()
    svals = np.linalg.svd(fact.dense(), compute_uv=False)
    assert svals[0] <= top + 1e-10


def test_bidiag_residual_invariant(get_problem):
    prob = get_problem("gravity", 64)
    fact = golub_kahan(prob.a, prob.b_hat, 10)
    a = prob.a.dense()
    norm_a = np.abs(np.linalg.eigvalsh(a)).max()
    res = np.linalg.norm(a @ fact.right - fact.left @ fact.dense())
    assert res <= 1e-10 * norm_a
    assert np.linalg.norm(fact.left.T @ fact.left - np.eye(fact.left.shape[1])) <= 1e-10
    assert np.linalg.norm(fact.right.T @ fact.right - np.eye(fact.k)) <= 1e-10


# ---------------------------------------------------------------------------
# the row store against the column-stacking reference builders


def _agree_before_breakdown(ref, new, n, norm_a):
    """ref's and new's (alpha, beta) agree to 1e-12 ||A|| up to ref's first
    beta within 1e3 n eps ||A|| of the breakdown threshold."""
    (ref_a, ref_b), (new_a, new_b) = ref, new
    small = np.flatnonzero(ref_b <= 1e3 * n * EPS * norm_a)
    stop = small[0] if small.size else ref_b.size
    assert new_a.size >= min(stop + 1, ref_a.size)
    tol = 1e-12 * norm_a
    assert np.abs(new_a[: stop + 1] - ref_a[: stop + 1]).max() <= tol
    assert np.abs(new_b[:stop] - ref_b[:stop]).max(initial=0.0) <= tol


def _orthonormal(q, tol=1e-13):
    return np.abs(q.T @ q - np.eye(q.shape[1])).max() <= tol


@pytest.mark.parametrize("name, n", [("shaw", 256), ("foxgood", 256), ("gravity", 256),
                                     ("phillips", 256), ("blur", 16)])
def test_builders_match_the_column_stacking_references(get_problem, name, n):
    # From a noisy b, as every experiment cell runs.  From the noise-free
    # b_hat, whose spectral coefficients fall below rounding, the entries
    # are not forward stable: the reference itself moves by more than
    # 1e-12 ||A|| by step 7 (phillips) when b_hat is perturbed by eps.
    prob = get_problem(name, n)
    b = problems.add_noise(prob, 1e-3, 1).b
    norm_a = float(np.abs(np.linalg.eigvalsh(oracles.dense(prob.a))).max())
    for start in (START_RESIDUAL, START_FILTERED):
        ref = oracles.lanczos(prob.a, start, b, 30)
        new = lanczos(prob.a, start, b, 30)
        _agree_before_breakdown((ref.tridiag.alpha, ref.tridiag.beta),
                                (new.tridiag.alpha, new.tridiag.beta), prob.a.n, norm_a)
        assert new.basis.shape[0] == prob.a.n and _orthonormal(new.basis)
    ref = oracles.golub_kahan(prob.a, b, 30)
    new = golub_kahan(prob.a, b, 30)
    _agree_before_breakdown((ref.alpha, ref.beta), (new.alpha, new.beta), prob.a.n, norm_a)
    assert _orthonormal(new.left) and _orthonormal(new.right)


def test_extended_builder_matches_the_column_stacking_reference(get_problem):
    prob = get_problem("shaw", 256)
    a = prob.a.astype(np.longdouble)
    b = problems.add_noise(prob, 1e-3, 1).b
    ref = oracles.lanczos(a, START_RESIDUAL, b, 30)
    new = lanczos(a, START_RESIDUAL, b, 30)
    norm_a = float(np.abs(np.linalg.eigvalsh(prob.a.dense())).max())
    _agree_before_breakdown((ref.tridiag.alpha, ref.tridiag.beta),
                            (new.tridiag.alpha, new.tridiag.beta), a.n, norm_a)
    assert new.basis.dtype == np.longdouble and _orthonormal(new.basis)


def test_basis_grows_by_doubling_and_orthogonalizes_against_its_rows():
    store = Basis(4, 1)
    for e in np.eye(4)[:3]:
        store.append(e)
    assert store.rows.shape == (4, 4) and store.size == 3
    assert np.array_equal(store.columns, np.eye(4)[:, :3])
    w = np.arange(1.0, 5.0)
    assert store.orthogonalize(w) is w
    assert np.array_equal(w, [0.0, 0.0, 0.0, 4.0])


# ---------------------------------------------------------------------------
# lockstep builds of a block of right-hand sides


def _block_operator():
    """A dense operator with well-separated eigenvalues of both signs, a
    right-hand side in a three-dimensional invariant subspace, which breaks
    down at step 3, and the depth to build: it stays forward stable, so one
    ulp in a product moves nothing beyond rounding.  Block products need
    dense storage; a Kronecker operator refuses them."""
    n = 60
    q, _ = np.linalg.qr(rng.normal(1, n * n).reshape(n, n))
    lam = np.linspace(1.0, 4.0, n) * np.where(np.arange(n) % 3, 1.0, -1.0)
    return SymmetricMatrix(dense=(q * lam) @ q.T), q[:, [0, 29, 59]] @ [1.0, -2.0, 0.5], 20


def _close(got, want, tol):
    return np.abs(got - want).max() <= tol * np.abs(want).max()


def _steps(a, kind, b, k_max):
    if kind == "golub-kahan":
        return golub_kahan_steps(a, b, k_max)
    return lanczos_steps(a, kind, b, k_max)


def _single(a, kind, b, k_max):
    if kind == "golub-kahan":
        return golub_kahan(a, b, k_max)
    return lanczos(a, kind, b, k_max)


@pytest.mark.parametrize("a, early, k_max", [_block_operator()], ids=["dense"])
@pytest.mark.parametrize("width", [2, 4])
def test_block_builds_match_single_builds(a, early, k_max, width):
    """Each build of a lockstep that mixes b-start, Ab-start and
    Golub-Kahan builds is the single build of its own kind and right-hand
    side: entries to 1e-13, the bases to 1e-12, the same breakdown step and
    the same matvec counts; the early right-hand side's breakdowns leave
    fewer live builds, down to one, in the block."""
    bs = [rng.normal(seed, a.n) for seed in range(2, width + 1)] + [early]
    builds = [(kind, b) for kind in (START_RESIDUAL, START_FILTERED, "golub-kahan") for b in bs]
    block = lockstep(a, [_steps(a, kind, b, k_max) for kind, b in builds])
    for (kind, b), got in zip(builds, block):
        want = _single(a, kind, b, k_max)
        assert got.breakdown_step == want.breakdown_step
        assert np.array_equal(got.matvec_counts, want.matvec_counts)
        if kind == "golub-kahan":
            pairs = [(got.alpha, want.alpha), (got.beta, want.beta)]
            bases = [(got.left, want.left), (got.right, want.right)]
        else:
            pairs = [(got.tridiag.alpha, want.tridiag.alpha),
                     (got.tridiag.beta, want.tridiag.beta)]
            bases = [(got.basis, want.basis)]
        assert all(x.shape == y.shape and _close(x, y, 1e-13) for x, y in pairs)
        assert all(x.shape == y.shape and np.abs(x - y).max() <= 1e-12 for x, y in bases)
        if b is early:
            assert got.breakdown_step == 3


def test_single_start_multiplies_through_matvec(monkeypatch):
    """One start uses the operator's matvec; a block uses the block product
    only, on two rows or more, also once one live build is left."""
    a = SymmetricMatrix(dense=np.diag([2.0, 1.0, 0.5, 0.25]))
    calls = []
    for attr in ("matvec", "block_matvec"):
        fn = getattr(SymmetricMatrix, attr)
        monkeypatch.setattr(SymmetricMatrix, attr, lambda self, x, fn=fn, attr=attr: (
            calls.append((attr, np.shape(x))) or fn(self, x)))
    lanczos(a, START_RESIDUAL, np.ones(4), 3)
    assert calls == [("matvec", (4,))] * 3
    calls.clear()
    lockstep(a, [lanczos_steps(a, START_RESIDUAL, b, 3)
                 for b in (np.ones(4), np.array([1.0, 0.0, 0.0, 0.0]))])
    assert calls == [("block_matvec", (2, 4))] * 3


def _block_recorder(rows, sent):
    """A lockstep build that yields each (r, n) block of `rows` in turn and
    records what it is sent."""
    for block in rows:
        sent.append((yield block))
    return len(sent)


def test_a_block_build_is_sent_the_block_product_of_its_rows():
    """A build that yields (r, n) blocks is sent exactly `block_matvec` of
    each, and a Lanczos build beside it writes the same bytes as beside a
    build of one row per step.  n = 256, where every GEMM row of two or
    more rounds alike (see `lockstep`); the block build stops first, so the
    Lanczos build also runs on alone."""
    a = problems.generate("shaw", 256).a
    rows = [rng.normal(seed, r * a.n).reshape(r, a.n) for seed, r in ((3, 3), (4, 2), (5, 2))]
    sent = []
    beside_block = lockstep(a, [_block_recorder(rows, sent),
                                lanczos_steps(a, START_RESIDUAL, rng.normal(6, a.n), 8)])
    assert beside_block[0] == len(rows)
    for block, got in zip(rows, sent):
        assert got.shape == block.shape and np.array_equal(got, a.block_matvec(block))
    beside_row = lockstep(a, [lanczos_steps(a, START_RESIDUAL, rng.normal(7, a.n), 3),
                              lanczos_steps(a, START_RESIDUAL, rng.normal(6, a.n), 8)])
    got, want = beside_block[1], beside_row[1]
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.tridiag.alpha, want.tridiag.alpha)
    assert np.array_equal(got.tridiag.beta, want.tridiag.beta)


def test_block_rejects_a_zero_right_hand_side():
    a = SymmetricMatrix(dense=np.eye(4))
    with pytest.raises(ContractViolation):
        lockstep(a, [lanczos_steps(a, START_RESIDUAL, b, 2) for b in (np.ones(4), np.zeros(4))])
    with pytest.raises(ContractViolation):
        lockstep(a, [golub_kahan_steps(a, b, 2) for b in (np.zeros(4), np.ones(4))])


def test_unknown_start_kind_is_refused():
    a = SymmetricMatrix(dense=np.eye(4))
    with pytest.raises(ContractViolation, match="start kind"):
        lanczos(a, "x", np.ones(4), 2)
