import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkrylov import problems, rng
from regkrylov.exceptions import ContractViolation
from regkrylov.linalg import symmetric_eig

ONE_D = ("shaw", "foxgood", "gravity", "phillips", "deriv2")


def test_foxgood_corner_entry_hand_quadrature():
    # midpoint nodes 0.25, 0.75 with weight 1/2
    prob = problems.generate("foxgood", 2)
    assert abs(prob.a.dense()[0, 0] - 0.5 * np.sqrt(0.125)) < 1e-15


def test_deriv2_negative_definite():
    d = symmetric_eig(problems.generate("deriv2", 16).a)
    assert np.all(d.eigenvalues < 0.0)


def test_blur_band_one_is_scaled_identity():
    sigma = 0.7
    prob = problems.generate("blur", 4, band=1, sigma=sigma)
    c = 1.0 / (2.0 * np.pi * sigma**2)
    x = rng.normal(7, prob.n)
    assert np.linalg.norm(prob.a.matvec(x) - c * x) < 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("name", ONE_D)
def test_generators_symmetric_and_consistent(name):
    prob = problems.generate(name, 40)
    a = prob.a.dense()
    assert np.array_equal(a, a.T)
    res = np.linalg.norm(prob.b_hat - a @ prob.x_true)
    assert res <= 40 * 1e-12 * np.linalg.norm(a) * np.linalg.norm(prob.x_true)


@pytest.mark.parametrize("name", ONE_D + ("blur",))
def test_generation_is_bit_deterministic(name):
    n = 16 if name == "blur" else 48
    p1 = problems.generate(name, n)
    p2 = problems.generate(name, n)
    assert np.array_equal(p1.x_true, p2.x_true)
    assert np.array_equal(p1.b_hat, p2.b_hat)
    if name == "blur":
        assert np.array_equal(p1.a.factor, p2.a.factor)
    else:
        assert np.array_equal(p1.a.dense(), p2.a.dense())


def test_severe_problems_have_loglinear_decay(get_decomp):
    # log sigma_j approximately affine over j in [2, 20]
    for name in ("shaw", "foxgood", "gravity"):
        d = get_decomp(name, 256)
        j = np.arange(2, 21)
        y = np.log(d.sigmas[j - 1])
        coef = np.polyfit(j, y, 1)
        resid = y - np.polyval(coef, j)
        assert np.abs(resid).max() < 0.2 * np.abs(y).max(), name
        assert coef[0] < -0.3, name  # genuinely fast decay


def test_deriv2_polynomial_decay(get_decomp):
    d = get_decomp("deriv2", 256)
    j = np.arange(2, 65)
    scaled = d.sigmas[j - 1] * j.astype(float) ** 2
    assert scaled.max() / scaled.min() <= 100.0


def test_unknown_problem_and_bad_params():
    with pytest.raises(ContractViolation):
        problems.generate("nope", 8)
    with pytest.raises(ContractViolation):
        problems.generate("blur", 8, band=8)
    with pytest.raises(ContractViolation):
        problems.generate("blur", 8, sigma=0.0)


# ---------------------------------------------------------------------------
# synthetic problems


def test_synthetic_severe_clean_rhs_closed_form():
    spec = problems.SyntheticSpec(n=4, decay="severe", alpha=1.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    want = np.exp([-2.0, -4.0, -6.0, -8.0])
    assert np.abs(prob.b_hat - want).max() < 1e-15


def test_synthetic_moderate_sigmas():
    spec = problems.SyntheticSpec(n=3, decay="moderate", alpha=2.0)
    _, decomp = problems.generate_synthetic(spec)
    assert np.allclose(decomp.sigmas, [1.0, 0.25, 1.0 / 9.0], rtol=0, atol=1e-16)


def test_synthetic_random_basis_coefficients_exact():
    spec = problems.SyntheticSpec(n=12, decay="severe", alpha=0.7, beta=0.5,
                                  basis="random", seed=7)
    prob, decomp = problems.generate_synthetic(spec)
    coeffs = np.abs(decomp.project(prob.b_hat))
    want = decomp.sigmas ** 1.5
    assert np.abs(coeffs - want).max() < 1e-14


def test_synthetic_validation():
    with pytest.raises(ContractViolation):
        problems.generate_synthetic(problems.SyntheticSpec(n=4, alpha=-1.0))
    with pytest.raises(ContractViolation):
        problems.generate_synthetic(problems.SyntheticSpec(n=4, beta=0.0))
    with pytest.raises(ContractViolation):
        problems.generate_synthetic(
            problems.SyntheticSpec(n=4, decay="moderate", alpha=0.5)
        )
    with pytest.raises(ContractViolation):
        problems.generate_synthetic(
            problems.SyntheticSpec(n=4, decay="mild", alpha=2.0)
        )


def test_synthetic_alternating_signs():
    spec = problems.SyntheticSpec(n=5, sign_pattern="alternating")
    _, decomp = problems.generate_synthetic(spec)
    assert np.array_equal(decomp.signs, [1.0, -1.0, 1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# noise


def test_noise_same_seed_bitwise_identical(get_problem):
    prob = get_problem("shaw", 64)
    n1 = problems.add_noise(prob, 1e-3, seed=9)
    n2 = problems.add_noise(prob, 1e-3, seed=9)
    assert np.array_equal(n1.e, n2.e)
    assert not np.array_equal(n1.e, problems.add_noise(prob, 1e-3, seed=10).e)


def test_noise_level_exact(get_problem):
    prob = get_problem("shaw", 64)
    for eps in (1e-2, 1e-3, 0.5):
        nz = problems.add_noise(prob, eps, seed=4)
        ratio = np.linalg.norm(nz.e) / np.linalg.norm(prob.b_hat)
        assert abs(ratio - eps) <= 1e-14 * eps
        assert np.linalg.norm(nz.e) < np.linalg.norm(prob.b_hat)


def test_noise_level_validation(get_problem):
    prob = get_problem("shaw", 64)
    for eps in (1.0, -0.1, 2.0):
        with pytest.raises(ContractViolation):
            problems.add_noise(prob, eps, seed=0)
    clean = problems.add_noise(prob, 0.0, seed=0)
    assert not np.any(clean.e)
    assert np.array_equal(clean.b, prob.b_hat) and clean.b is not prob.b_hat


def test_zero_clean_rhs_is_refused():
    # every sigma_j = exp(-800 j) underflows to 0, and so does b_hat
    prob, _ = problems.generate_synthetic(problems.SyntheticSpec(n=12, alpha=800.0))
    assert not np.any(prob.b_hat)
    for eps in (0.0, 1e-3):
        with pytest.raises(ContractViolation, match="zero norm"):
            problems.add_noise(prob, eps, seed=0)


def test_noise_entries_pooled_mean(get_problem):
    prob = get_problem("shaw", 100)
    pooled = np.concatenate(
        [problems.add_noise(prob, 1e-2, seed=s).e for s in range(100)]
    )
    scale = pooled.std()
    assert abs(pooled.mean()) < 4 * scale / np.sqrt(pooled.size)


# ---------------------------------------------------------------------------
# transition index


def test_transition_no_noise_is_full():
    spec = problems.SyntheticSpec(n=8, decay="severe", alpha=1.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    assert problems.transition_index(decomp, prob.b_hat, np.zeros(8)) == 8


def test_transition_zero_signal():
    spec = problems.SyntheticSpec(n=8, decay="severe", alpha=1.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    e = decomp.lincomb(np.full(8, 1e-3))
    assert problems.transition_index(decomp, np.zeros(8), e) == 0


def test_transition_flat_noise_in_eigenbasis():
    # coefficients exp(-1.5 j) stay above 1e-3 exactly through j = 4
    spec = problems.SyntheticSpec(n=16, decay="severe", alpha=1.0, beta=0.5)
    prob, decomp = problems.generate_synthetic(spec)
    e = decomp.lincomb(np.full(16, 1e-3))
    assert problems.transition_index(decomp, prob.b_hat, e) == 4


# ---------------------------------------------------------------------------
# JSON container


@pytest.mark.parametrize("name", ("gravity", "blur"))
def test_problem_json_roundtrip_bitwise(tmp_path, name):
    n = 8 if name == "blur" else 24
    prob = problems.generate(name, n)
    path = tmp_path / "prob.json"
    problems.save_problem(prob, path)
    loaded = problems.load_problem(path)
    assert loaded.name == prob.name
    assert np.array_equal(loaded.x_true, prob.x_true)
    assert np.array_equal(loaded.b_hat, prob.b_hat)
    if name == "blur":
        assert np.array_equal(loaded.a.factor, prob.a.factor)
    else:
        assert np.array_equal(loaded.a.dense(), prob.a.dense())
    # container is plain JSON
    doc = json.loads(path.read_text())
    assert set(doc) >= {"name", "n", "arrays"}


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


@st.composite
def container_problems(draw):
    """A generated 1-D problem, a synthetic one or a blur problem, small."""
    kind = draw(st.sampled_from(ONE_D + ("synthetic", "blur")))
    if kind == "synthetic":
        spec = problems.SyntheticSpec(
            n=draw(st.integers(2, 24)), decay="severe",
            alpha=draw(st.floats(0.05, 3.0)), beta=draw(st.floats(0.05, 2.0)),
            sign_pattern=draw(st.sampled_from(("definite", "alternating", "random"))),
            basis="random", seed=draw(st.integers(0, 2**31)),
        )
        return problems.generate_synthetic(spec)[0]
    if kind == "blur":
        m = draw(st.integers(2, 12))
        return problems.generate("blur", m, band=draw(st.integers(1, m - 1)),
                                 sigma=draw(st.floats(0.1, 4.0)))
    return problems.generate(kind, draw(st.integers(2, 40)))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(container_problems())
def test_problem_container_roundtrip_property(prob):
    """save_problem/load_problem give back the arrays and the operator
    storage bit for bit, and the same name and metadata."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prob.json"
        problems.save_problem(prob, path)
        loaded = problems.load_problem(path)
    assert (loaded.name, loaded.n, loaded.meta) == (prob.name, prob.n, prob.meta)
    assert _bits(loaded.x_true) == _bits(prob.x_true)
    assert _bits(loaded.b_hat) == _bits(prob.b_hat)
    assert loaded.a.is_kronecker == prob.a.is_kronecker
    if prob.a.is_kronecker:
        assert _bits(loaded.a.factor) == _bits(prob.a.factor)
    else:
        assert _bits(loaded.a.dense()) == _bits(prob.a.dense())
