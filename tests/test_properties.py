"""Property tests: small random symmetric systems through every solver.

Each example is a symmetric matrix of order n <= 8, built as G D G^T from
a random n-by-r factor G (integer or real entries in [-3, 3]) and signs in
D, so definite, indefinite and singular (r < n, or dependent columns)
matrices all occur, with a random right-hand side.  Every entry of `solvers.SOLVERS` runs to k_max = n.  The
checks, at 1e-8 * ||b||:

- the reported residual norms match ||b - A x_k|| recomputed from the
  iterates;
- the minres, mr2 and lsqr residuals do not increase beyond the rounding
  of the reported norms;
- the minres and mr2 residuals equal those of brute-force minimizers over
  the same Krylov spaces (`oracles.arnoldi_minimizers`);
- every tsvd iterate is the partial sum of the spectral expansion, at
  1e-12 relative, and its reported residuals never increase.

Three faults of the program break the literal checks.  They are pinned,
not hidden: each is recognised by an independent round-off criterion
below, and an evidence test at the end of this file reproduces it on a
fixed example and fails once it is mended.

1. Round-off pivots.  At a Lanczos breakdown on a singular matrix, or one
   step after a breakdown the tolerance misses, the projected system has a
   pivot at round-off level and x_k has norm ~1/eps; TSVD divides by
   eigenvalues that are zero up to round-off.  The floating-point residual
   of such an x_k is only accurate to ~n eps ||A|| ||x_k||, above the
   bound, and the minimum over a Krylov space whose image A V_k is
   rank-deficient to working precision moves by ~n eps cond(A V_k) ||b||.
2. Ulp increases.  Reported residuals can rise by an ulp from one k to
   the next, for example where the Givens solve falls back to the
   pseudoinverse at an exactly zero pivot.
3. Squares out of range.  Every norm is the root of a sum of squares, so
   where an operator, a right-hand side or an iterate is below ~1e-154 or
   above ~1e154 the squares are subnormal or overflow, and norms lose
   digits or become 0 or inf (a breakdown is then seen where there is
   none).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkrylov.exceptions import ContractViolation, NumericalError
from regkrylov.linalg import SymmetricMatrix, symmetric_eig
from regkrylov.solvers import SOLVERS, minres_trace, tsvd_trace

from oracles import arnoldi_basis, arnoldi_minimizers

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
BOUND = 1e-8

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, n))
    integer = draw(st.booleans())
    entries = st.integers(-3, 3) if integer else st.floats(-3.0, 3.0)
    g = np.array(draw(st.lists(entries, min_size=n * r, max_size=n * r)), dtype=float)
    d = draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]), min_size=r, max_size=r))
    b = draw(st.lists(entries, min_size=n, max_size=n))
    g = g.reshape(n, r)
    return (g * np.array(d)) @ g.T, np.array(b, dtype=float)


def _run(name, a_mat, b):
    """The trace of one solver, or None where it refuses a zero b or a
    vanishing A b."""
    a = SymmetricMatrix(dense=a_mat)
    try:
        return SOLVERS[name](a, b, a.n, None, symmetric_eig(a))
    except ContractViolation:
        # a zero b is refused as a bad input, zero as the builders see it,
        # so a norm that underflows counts
        assert np.linalg.norm(b) == 0.0, name
    except NumericalError:
        # a nonzero b whose A b is zero: K_k(A, A b), and the first
        # Golub-Kahan step, have no start in working precision
        assert name in ("mr2", "hybrid-mr2", "lsqr"), name
        assert np.linalg.norm(b) != 0.0 and np.linalg.norm(a_mat @ b) == 0.0, name
    return None


def _roundoff_pivot(a_mat, b, x):
    """The floating-point residual of x is accurate only to more than the bound."""
    return b.size * EPS * np.linalg.norm(a_mat, 2) * math.hypot(*x) > BOUND * math.hypot(*b)


def _squares_out_of_range(a_mat, *vectors):
    """A squared norm the solvers form is subnormal or overflows: that of a
    unit vector's image (of size up to ||A||), or of a nonzero v or A v."""
    with np.errstate(all="ignore"):
        norms = [np.linalg.norm(a_mat, 2)] + [
            math.hypot(*w) for v in vectors for w in (v, a_mat @ v)
        ]
    return any(s != 0.0 and not TINY <= s * s <= HUGE for s in norms)


def _ill_determined(a_mat, b, basis):
    """The minimum over span(basis) is not determined to the bound: the
    least-squares residual moves by ~n eps (1 + 2 cond(A V)) ||b||."""
    s = np.linalg.svd(a_mat @ basis, compute_uv=False)
    return b.size * EPS * (1.0 + 2.0 * s[0] / max(s[-1], 1e-300)) > BOUND


@pytest.mark.parametrize("name", list(SOLVERS))
@SETTINGS
@given(system=systems())
def test_reported_residuals_match_recomputed(name, system):
    a_mat, b = system
    trace = _run(name, a_mat, b)
    if trace is None:
        return
    for k, x in enumerate(trace.solutions, start=1):
        reported = trace.residual_norms[k - 1]
        true = np.linalg.norm(b - a_mat @ x)
        if abs(reported - true) > BOUND * np.linalg.norm(b):
            pinned = _roundoff_pivot(a_mat, b, x) or _squares_out_of_range(a_mat, b, x)
            assert pinned, (name, k, reported, true)


@pytest.mark.parametrize("name", ["minres", "mr2", "lsqr"])
@SETTINGS
@given(system=systems())
def test_residuals_never_increase(name, system):
    a_mat, b = system
    trace = _run(name, a_mat, b)
    if trace is None:
        return
    r = trace.residual_norms
    rounding = 4 * b.size * EPS * np.linalg.norm(b)
    for k in range(1, r.size):
        if r[k] > r[k - 1] + rounding:
            assert _squares_out_of_range(a_mat, b), (name, k + 1, r[k - 1], r[k])


@pytest.mark.parametrize("name", ["minres", "mr2"])
@SETTINGS
@given(system=systems())
def test_minimum_residuals_match_oracle(name, system):
    a_mat, b = system
    trace = _run(name, a_mat, b)
    if trace is None:
        return
    start = b if name == "minres" else a_mat @ b
    with np.errstate(all="ignore"):
        basis = arnoldi_basis(lambda v: a_mat @ v, start, trace.iterations)
        # the oracle is defined up to the first direction it cannot normalize
        finite = int(np.isfinite(basis).all(axis=0).cumprod().sum())
        oracle = arnoldi_minimizers(lambda v: a_mat @ v, start, b, finite) if finite else []
    for k, x in enumerate(trace.solutions[:finite], start=1):
        if _ill_determined(a_mat, b, basis[:, :k]):
            continue
        reported = trace.residual_norms[k - 1]
        want = np.linalg.norm(b - a_mat @ oracle[k - 1])
        if abs(reported - want) > BOUND * np.linalg.norm(b):
            pinned = _roundoff_pivot(a_mat, b, x) or _squares_out_of_range(a_mat, b, x)
            assert pinned, (name, k, reported, want)


@SETTINGS
@given(system=systems())
def test_tsvd_iterates_are_spectral_partial_sums(system):
    # x_k = sum_{i <= k} (v_i^T b / lambda_i) v_i, formed in one product
    # over the decomposition's own eigenpairs and coefficients (a coefficient
    # along a round-off eigenvalue is itself round-off, so recomputing it
    # would test fault 1, not the sum), and the reported residuals never
    # increase
    a_mat, b = system
    decomp = symmetric_eig(SymmetricMatrix(dense=a_mat))
    trace = tsvd_trace(decomp, b)
    lams = decomp.eigenvalues
    assert trace.iterations == int(np.argmin(np.append(lams, 0.0) != 0.0))
    c = decomp.project(b)
    for k, x in enumerate(trace.solutions, start=1):
        want = decomp.columns(k) @ (c[:k] / lams[:k])
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want), k
    assert np.all(np.diff(trace.residual_norms) <= 0.0)


# ---------------------------------------------------------------------------
# evidence for the pinned faults; each fails once its fault is mended


def test_pinned_roundoff_pivot_at_breakdown():
    # diag(2, 1, 0) with b = (1, 1, 1): no x gets the residual below the
    # null component |b_3| = 1, yet the square projected system at the
    # breakdown is solved through a round-off pivot and reports 0
    tr = minres_trace(SymmetricMatrix(dense=np.diag([2.0, 1.0, 0.0])), np.ones(3), 3)
    assert tr.factorization.breakdown and tr.iterations == 3
    assert tr.residual_norms[-1] < 1.0
    assert tr.solution_norms[-1] > 1e14
    # TSVD stops only at exactly zero eigenvalues; ones(3, 3) has two at round-off
    ones = SymmetricMatrix(dense=np.ones((3, 3)))
    ts = tsvd_trace(symmetric_eig(ones), np.array([1.0, 0.0, 0.0]))
    assert ts.iterations == 3 and ts.solution_norms[-1] > 1e14


def test_small_tails_keep_their_digits():
    # mr2 and hybrid-mr2 converge at k = 2 on this nonsingular system; the
    # part of b outside the basis is summed from its tail end, not left as
    # sqrt(||b||^2 - ||g||^2), one ulp of 8, so the reported residual is
    # round-off like the true one
    a_mat = np.array([[-3.0, -3.0], [-3.0, -2.0]])
    b = np.array([-2.0, -2.0])
    for name in ("mr2", "hybrid-mr2"):
        tr = _run(name, a_mat, b)
        assert tr.iterations == 2, name
        assert np.linalg.norm(b - a_mat @ tr.solutions[-1]) <= 1e-14 * np.linalg.norm(b), name
        assert tr.residual_norms[-1] <= 1e-14 * np.linalg.norm(b), name
    # tsvd at k = 2 leaves out only the last coefficient, 1e-12, which a
    # subtraction from ||b||^2 = 8 would lose entirely
    a_mat = np.diag([3.0, 2.0, 1.0])
    b = np.array([-2.0, -2.0, 1e-12])
    tr = _run("tsvd", a_mat, b)
    true = np.linalg.norm(b - a_mat @ tr.solutions[1])
    assert abs(tr.residual_norms[1] - true) <= 1e-14 * true


def test_pinned_ulp_increase():
    # rank-one A: the breakdown pivot is exactly zero, and the pseudoinverse
    # fallback recomputes the residual one ulp above the step before
    tr = minres_trace(SymmetricMatrix(dense=np.full((2, 2), -2.0)), np.array([1.0, 0.0]), 2)
    r = tr.residual_norms
    assert r[1] == np.nextafter(r[0], np.inf)


def test_pinned_squares_out_of_range():
    # a nonzero b whose squared norm underflows is refused as a zero start
    with pytest.raises(ContractViolation, match="zero"):
        minres_trace(SymmetricMatrix(dense=np.eye(1)), np.array([1e-170]), 1)
    # ||A|| ~ 3e-246: the squared norm of the new Lanczos direction
    # underflows, so a breakdown is seen at step 1 and x_1 solves the wrong
    # square system while reporting residual 0
    a_mat = np.diag([0.0, -3.4e-246])
    b = np.full(2, 1.3e-123)
    tr = minres_trace(SymmetricMatrix(dense=a_mat), b, 2)
    assert tr.factorization.breakdown and tr.factorization.tridiag.beta[0] == 0.0
    assert tr.residual_norms[0] == 0.0
    assert np.linalg.norm(b - a_mat @ tr.solutions[0]) > 0.5 * np.linalg.norm(b)
