import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import regkrylov
from regkrylov import diagnostics, linalg, rng
from regkrylov.exceptions import ContractViolation, ResourceLimitError
from regkrylov.krylov import START_FILTERED, lanczos
from regkrylov.linalg import (
    EPS,
    SpectralDecomposition,
    SymmetricMatrix,
    TridiagonalRect,
    least_squares,
    _svd_small,
    spectral_norm,
    symmetric_eig,
)

from conftest import needs_extended_precision, traced_peak_n2
import oracles
from oracles import jacobi_eigh, jacobi_svd


def random_symmetric(n, seed):
    g = rng.normal(seed, n * n).reshape(n, n)
    return 0.5 * (g + g.T)


# ---------------------------------------------------------------------------
# SymmetricMatrix storage


def test_dense_storage_symmetrizes():
    a = SymmetricMatrix(dense=[[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(a.dense(), a.dense().T)


def test_asymmetric_input_rejected():
    with pytest.raises(ContractViolation):
        SymmetricMatrix(dense=[[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    dense = np.eye(3)
    dense[0, 2] = bad
    with pytest.raises(ContractViolation, match="NaN or infinite"):
        SymmetricMatrix(dense=dense)
    with pytest.raises(ContractViolation, match="NaN or infinite"):
        SymmetricMatrix(toeplitz_first_col=[1.0, 0.5, bad])


def test_dense_storage_is_one_c_ordered_copy():
    caller = np.asfortranarray(random_symmetric(5, 3))
    a = SymmetricMatrix(dense=caller)
    assert a.dense().flags.c_contiguous
    assert not np.shares_memory(a.dense(), caller)


def test_kronecker_matvec_matches_densified():
    col = np.array([1.0, 0.4, 0.1, 0.0, 0.0])
    a = SymmetricMatrix(toeplitz_first_col=col)
    dense = oracles.dense(a)
    for seed in range(5):
        x = rng.normal(seed, a.n)
        got = a.matvec(x)
        want = dense @ x
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


@pytest.mark.parametrize("a", [SymmetricMatrix(dense=random_symmetric(60, 4))], ids=["dense"])
def test_block_matvec_matches_matvec_of_each_row(a):
    rows = rng.normal(7, 5 * a.n).reshape(5, a.n)
    got = a.block_matvec(rows)
    assert got.shape == rows.shape
    for x, y in zip(rows, got):
        want = a.matvec(x)
        assert np.linalg.norm(y - want) <= 1e-15 * np.linalg.norm(want)
    with pytest.raises(ContractViolation):
        a.block_matvec(rows[0])


@needs_extended_precision
@pytest.mark.parametrize("a", [
    SymmetricMatrix(dense=np.ones((4, 4))),
    SymmetricMatrix(toeplitz_first_col=np.ones(2)),
])
def test_extended_matvec_keeps_extended_digits(a):
    # 1 + 2**-60 rounds to 1 in double but is exact in extended precision
    ld = np.longdouble
    x = np.zeros(4, dtype=ld)
    x[0] = 1.0
    x[1] = ld(2.0) ** -60
    extended = a.astype(ld)
    assert extended.dtype == ld and extended.n == a.n
    got = extended.matvec(x)
    assert got.dtype == ld
    assert np.all(got == 1 + ld(2.0) ** -60)
    # the cast is a copy: the double operator still rounds to double
    assert a.dtype == np.float64 and np.all(a.matvec(x) == 1.0)


def test_kronecker_storage_refuses_dense_and_block_products():
    """A Kronecker operator acts one vector at a time, at every order."""
    for m in (2, 65):
        a = SymmetricMatrix(toeplitz_first_col=np.ones(m))
        with pytest.raises(ContractViolation, match="one vector at a time"):
            a.dense()
        with pytest.raises(ContractViolation, match="one vector at a time"):
            a.block_matvec(np.ones((2, a.n)))


# ---------------------------------------------------------------------------
# symmetric_eig


def test_identity_eigenvalues():
    d = symmetric_eig(SymmetricMatrix(dense=np.eye(3)))
    assert np.allclose(d.eigenvalues, 1.0)
    v = d.columns(d.n)
    assert np.linalg.norm(v.T @ v - np.eye(3)) < 1e-12


def test_diagonal_ordering_and_signature():
    d = symmetric_eig(SymmetricMatrix(dense=np.diag([3.0, -2.0, 1.0])))
    assert np.array_equal(d.eigenvalues, [3.0, -2.0, 1.0])
    assert np.array_equal(d.sigmas, [3.0, 2.0, 1.0])
    assert np.array_equal(np.sign(d.eigenvalues), [1.0, -1.0, 1.0])


def test_tie_breaking_positive_sign_first():
    d = symmetric_eig(SymmetricMatrix(dense=np.diag([-2.0, 2.0, 1.0])))
    assert np.array_equal(d.eigenvalues, [2.0, -2.0, 1.0])


def test_shaw_eigenvalues_match_jacobi_oracle(get_problem):
    a = get_problem("shaw", 32).a
    d = symmetric_eig(a)
    w, _ = jacobi_eigh(a.dense())
    w = w[np.argsort(-np.abs(w))]
    assert np.abs(d.eigenvalues - w).max() < 1e-10


@pytest.mark.parametrize("n", [4, 17, 60, 600])
def test_reconstruction_and_residual_invariants(n):
    a = random_symmetric(n, 100 + n)
    d = symmetric_eig(SymmetricMatrix(dense=a))
    v = d.columns(d.n)
    norm_a = np.linalg.norm(a)
    assert np.linalg.norm(a - (v * d.eigenvalues) @ v.T) <= n**2 * 1e-12 * norm_a
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= n * 1e-12
    top = np.abs(d.eigenvalues).max()
    for i in range(n):
        res = np.linalg.norm(a @ v[:, i] - d.eigenvalues[i] * v[:, i])
        assert res <= n * 1e-12 * top
    assert np.all(np.diff(d.sigmas) <= 1e-15 * top)


def test_kronecker_eig_pairs():
    col = np.array([1.0, 0.3, 0.05, 0.0])
    a = SymmetricMatrix(toeplitz_first_col=col)
    d = symmetric_eig(a)
    for i in (0, 3, 7, 15):
        v = d.column(i)
        res = np.linalg.norm(a.matvec(v) - d.eigenvalues[i] * v)
        assert res <= a.n * 1e-12 * d.sigmas[0]
    c = d.project(rng.normal(0, a.n))
    assert np.linalg.norm(d.lincomb(c) - rng.normal(0, a.n)) <= 1e-10


_REPEAT_SCRIPT = """
import hashlib
from regkrylov import add_noise, generate, mr2_trace, symmetric_eig
prob = generate("shaw", 256)
d = symmetric_eig(prob.a)
t = mr2_trace(prob.a, add_noise(prob, 1e-3, 1).b, 30, x_true=prob.x_true)
h = hashlib.sha256()
for arr in (d.eigenvalues, d.columns(d.n), t.residual_norms, t.solution_norms,
            t.relative_errors):
    h.update(arr.tobytes())
print(h.hexdigest())
"""


def _fresh_interpreter(script):
    """Stdout of `script` run by a new interpreter on this package."""
    src = str(Path(regkrylov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_eig_and_trace_bytes_repeat_across_processes():
    # Byte-determinism is promised for one machine and a fixed BLAS thread
    # count; two fresh interpreters must agree bit for bit.
    digests = [_fresh_interpreter(_REPEAT_SCRIPT) for _ in range(2)]
    assert len(digests[0]) == hashlib.sha256().digest_size * 2
    assert digests[0] == digests[1]


def test_import_does_not_load_scipy():
    # every factorization is numpy's LAPACK; scipy is a benchmark-only extra
    script = "import sys, regkrylov; print('scipy' in sys.modules)"
    assert _fresh_interpreter(script) == "False"


def test_symmetric_eig_memory_budget(get_problem):
    # LAPACK's vectors (n^2), the longdouble copy of A (2 n^2) and one
    # block of polished columns; LAPACK's own workspace is not traced
    n = 384
    a = get_problem("shaw", n).a
    assert traced_peak_n2(lambda: symmetric_eig(a), n) <= 4.0


def test_dense_limit_error(monkeypatch):
    a = SymmetricMatrix(dense=np.eye(8))
    monkeypatch.setattr(linalg, "DENSE_EIG_LIMIT", 4)
    with pytest.raises(ResourceLimitError):
        symmetric_eig(a)


# ---------------------------------------------------------------------------
# _svd_small


def test_single_column_norm():
    t = TridiagonalRect([2.0], [1.0])
    s, u, v = _svd_small(t.dense())
    assert abs(s[0] - np.sqrt(5.0)) < 1e-14


def test_tridiagonal_keeps_longdouble_entries():
    assert TridiagonalRect([1.0, 2.0], [0.5, 0.5]).dense().dtype == np.float64
    ld = np.longdouble
    t = TridiagonalRect(np.array([1.0, 2.0], dtype=ld), np.array([0.5, 0.5], dtype=ld))
    assert t.dense().dtype == ld and t.head(1).alpha.dtype == ld
    assert np.array_equal(t.dense(), TridiagonalRect([1.0, 2.0], [0.5, 0.5]).dense())


@pytest.mark.parametrize("m_mat", [
    np.zeros((2, 1)),
    np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]),
    np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0]),
    # breakdown (last beta zero) with a singular square block
    TridiagonalRect([0.0, 0.0, 0.0], [1.0, 1.0, 0.0]).dense(),
], ids=["zero", "zero-column", "rank-one", "breakdown"])
def test_zero_column(m_mat):
    # the factors stay orthonormal where singular values vanish
    s, u, v = _svd_small(m_mat)
    assert s.size == min(m_mat.shape) and s[-1] <= 10 * EPS * s[0]
    assert np.linalg.norm(u.T @ u - np.eye(s.size)) <= 10 * EPS
    assert np.linalg.norm(v.T @ v - np.eye(s.size)) <= 10 * EPS
    assert np.linalg.norm(m_mat - (u * s) @ v.T) <= 10 * EPS * s[0]


def test_random_tridiagonal_vs_jacobi_svd_oracle():
    t = TridiagonalRect(rng.normal(11, 5), np.abs(rng.normal(12, 5)) + 0.1)
    s, u, v = _svd_small(t.dense())
    ref = jacobi_svd(t.dense())
    assert np.abs(s - ref).max() < 1e-12
    dense = t.dense()
    assert np.linalg.norm(dense - (u * s) @ v.T) <= (t.k + 1) * 1e-12 * s[0]
    assert np.all(np.diff(s) <= 0.0)


def test_graded_tridiagonal_vs_jacobi_svd_oracle():
    # graded entries: singular values spread over twelve decades
    grade = 10.0 ** -np.linspace(0.0, 12.0, 30)
    t = TridiagonalRect(np.abs(rng.normal(61, 30)) * grade,
                        np.abs(rng.normal(62, 30)) * grade)
    dense = t.dense()
    s, u, v = _svd_small(dense)
    assert s.shape == (30,) and u.shape == (31, 30) and v.shape == (30, 30)
    assert np.abs(s - jacobi_svd(dense)).max() <= t.k * EPS * s[0]
    assert np.linalg.norm(dense - (u * s) @ v.T) <= (t.k + 1) * EPS * s[0]
    assert np.all(np.diff(s) <= 0.0)


# ---------------------------------------------------------------------------
# spectral_norm


def test_spectral_norm_trivial():
    assert spectral_norm(np.zeros((3, 4))) == 0.0
    assert abs(spectral_norm(np.diag([1.0, -4.0])) - 4.0) < 1e-12


def test_spectral_norm_projected_operator_vs_oracle(get_problem):
    a = get_problem("shaw", 64).a
    b = rng.normal(3, 64)
    fact = lanczos(a, START_FILTERED, b, 5)
    q = fact.basis[:, :5]
    m = a.dense() - (a.dense() @ q) @ q.T
    got = spectral_norm(m)
    ref = jacobi_svd(m)[0]
    assert abs(got - ref) <= 1e-9 * ref


def test_spectral_norm_dominates_probes():
    m = rng.normal(21, 48).reshape(8, 6)
    s = spectral_norm(m)
    for i in range(100):
        w = rng.normal(rng.derive(77, i), 6)
        w /= np.linalg.norm(w)
        assert np.linalg.norm(m @ w) <= s + 1e-12 * s


def test_spectral_norm_clustered_values():
    # near-tied top singular values force the dense fallback path
    lam = np.array([1.0, 1.0 - 1e-5, 0.5, 0.1])
    q, _ = np.linalg.qr(rng.normal(5, 16).reshape(4, 4))
    m = (q * lam) @ q.T
    assert abs(spectral_norm(m) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# principal-angle sine: the direct mode of diagnostics.angle_sine, the sine of
# the largest angle between the eigenbasis columns and a factorization basis


def _direct_sine(x_full, y):
    """angle_sine's direct mode between the leading columns of the
    orthogonal x_full and the orthonormal columns of y."""
    decomp = SpectralDecomposition(np.arange(x_full.shape[1], 0, -1.0), v=x_full)
    return diagnostics.angle_sine(decomp, y.shape[1], mode="direct", fact=types.SimpleNamespace(basis=y))


def test_identical_bases_have_zero_angles():
    q, _ = np.linalg.qr(rng.normal(8, 100).reshape(10, 10))
    assert _direct_sine(q, q[:, :3]) < 1e-13


def test_orthogonal_lines():
    assert abs(_direct_sine(np.eye(2), np.array([[0.0], [1.0]])) - 1.0) < 1e-14


def test_plane_rotation_angle():
    t = 0.3
    y = np.array([[np.cos(t)], [np.sin(t)]])
    assert abs(_direct_sine(np.eye(2), y) - np.sin(t)) < 1e-14


def test_tiny_rotation_angle_keeps_absolute_accuracy():
    t = 1e-10
    q, _ = np.linalg.qr(rng.normal(33, 100).reshape(10, 10))
    y = q[:, :3].copy()
    y[:, 0] = np.cos(t) * q[:, 0] + np.sin(t) * q[:, 3]
    assert abs(_direct_sine(q, y) - np.sin(t)) <= 1e-15


# ---------------------------------------------------------------------------
# least_squares


def test_projection_onto_column():
    y = least_squares(np.array([[1.0], [0.0]]), np.array([2.0, 3.0]))
    assert abs(y[0] - 2.0) < 1e-14


def test_zero_rhs():
    t = TridiagonalRect([1.0, 2.0], [0.5, 0.5])
    assert np.all(least_squares(t.dense(), np.zeros(3)) == 0.0)


def test_random_tridiagonal_vs_pinv_oracle():
    t = TridiagonalRect(rng.normal(41, 6), np.abs(rng.normal(42, 6)) + 0.1)
    rhs = rng.normal(43, 7)
    y = least_squares(t.dense(), rhs)
    ref = np.linalg.pinv(t.dense()) @ rhs
    assert np.linalg.norm(y - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_residual_orthogonal_to_range():
    for seed in range(5):
        t = TridiagonalRect(rng.normal(seed, 5), np.abs(rng.normal(seed + 50, 5)) + 0.05)
        rhs = rng.normal(seed + 90, 6)
        dense = t.dense()
        y = least_squares(dense, rhs)
        grad = dense.T @ (rhs - dense @ y)
        assert np.linalg.norm(grad) <= 6 * 1e-10 * np.linalg.norm(rhs)


def test_rank_deficient_minimum_norm():
    m = np.zeros((3, 2))
    m[0, 0] = 1.0  # second column identically zero
    y = least_squares(m, np.array([1.0, 1.0, 0.0]))
    assert abs(y[0] - 1.0) < 1e-14 and y[1] == 0.0
