import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkrylov import problems, rng
from regkrylov.exceptions import ContractViolation
from regkrylov.linalg import DENSE_EIG_LIMIT, symmetric_eig

from conftest import traced_peak_n2
from oracles import meshgrid_problem, polished_eig

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


@pytest.mark.parametrize("n", [2, 3, 47, 256])
@pytest.mark.parametrize("name", ONE_D)
def test_dense_setup_matches_meshgrid_formulas_bitwise(name, n):
    a, x, b_hat = meshgrid_problem(name, n)
    prob = problems.generate(name, n)
    assert prob.a.dense().flags.c_contiguous
    assert np.array_equal(prob.a.dense(), a)
    assert np.array_equal(prob.x_true, x)
    assert np.array_equal(prob.b_hat, b_hat)
    lams, v = polished_eig(a)
    decomp = symmetric_eig(prob.a)
    assert np.array_equal(decomp.eigenvalues, lams)
    assert np.array_equal(decomp.columns(n), v)


@pytest.mark.parametrize("name", ONE_D)
def test_generation_memory_budget(name):
    # the kernel and the operator's symmetrized copy, 2 n^2 doubles, plus a
    # mask or a transient temporary
    n = 384
    assert traced_peak_n2(lambda: problems.generate(name, n), n) <= 2.5


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
    for sigma in (0.0, math.nan, math.inf):
        with pytest.raises(ContractViolation):
            problems.generate("blur", 8, sigma=sigma)


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


@pytest.mark.parametrize("field,value", [
    ("n", 8.0), ("n", True), ("seed", 1.5), ("seed", False), ("alpha", "x"),
    ("beta", None), ("beta", True), ("decay", 5), ("sign_pattern", None), ("basis", b"random"),
])
def test_synthetic_field_of_wrong_type_is_refused(field, value):
    with pytest.raises(ContractViolation, match=f"{field} must be"):
        problems.generate_synthetic(problems.SyntheticSpec(**{"n": 8, field: value}))


def test_synthetic_fields_accept_numpy_numbers():
    spec = problems.SyntheticSpec(n=np.int64(6), alpha=np.float64(0.5), seed=np.int32(3))
    prob, _ = problems.generate_synthetic(spec)
    assert prob.n == 6


def test_number_predicates():
    """Python and numpy numbers count, bools do not; a real must be finite
    and within the double range, and the check raises nothing on its own."""
    for x in (3, np.int64(3), np.uint8(3), 10**400):
        assert problems.is_integer(x) and problems.is_real(x) == (x != 10**400)
    for x in (0.5, np.float32(0.5), np.float64(-1e308), np.longdouble(2.0), -(10**300)):
        assert problems.is_real(x)
    for x in (True, np.bool_(True), 3.0, "3", None):
        assert not problems.is_integer(x)
    for x in (True, np.bool_(True), math.nan, math.inf, np.float32("inf"), -(10**400),
              np.longdouble("1e400"), "0.5", None):
        assert not problems.is_real(x)
    with pytest.raises(ContractViolation, match="alpha must be a finite real number"):
        problems.generate_synthetic(problems.SyntheticSpec(n=8, alpha=10**400))
    with pytest.raises(ContractViolation, match="finite sigma"):
        problems.generate("blur", 8, sigma=10**400)


def test_synthetic_alternating_signs():
    spec = problems.SyntheticSpec(n=5, sign_pattern="alternating")
    _, decomp = problems.generate_synthetic(spec)
    assert np.array_equal(np.sign(decomp.eigenvalues), [1.0, -1.0, 1.0, -1.0, 1.0])


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


def test_numpy_noise_level_is_exact_in_double(get_problem):
    prob = get_problem("shaw", 64)
    eps = np.float32(1e-3)
    ratio = np.linalg.norm(problems.add_noise(prob, eps, seed=4).e) / np.linalg.norm(prob.b_hat)
    assert abs(ratio - float(eps)) <= 1e-14 * float(eps)


def test_noise_level_validation(get_problem):
    prob = get_problem("shaw", 64)
    for eps in (1.0, -0.1, 2.0):
        with pytest.raises(ContractViolation):
            problems.add_noise(prob, eps, seed=0)
    clean = problems.add_noise(prob, 0.0, seed=0)
    assert not np.any(clean.e)
    assert np.array_equal(clean.b, prob.b_hat) and clean.b is not prob.b_hat


def test_noise_norm_below_underflow_is_refused(get_problem):
    """A noise norm below sqrt(n * tiny) is refused: the squares its norm
    sums underflow, so the rescale would miss the level or divide by zero.
    Just above that floor the level is still exact."""
    prob = get_problem("shaw", 8)
    floor = np.sqrt(8 * np.finfo(float).tiny) / np.linalg.norm(prob.b_hat)
    for eps in (1e-200, 0.5 * floor):
        with pytest.raises(ContractViolation, match="too small"):
            problems.add_noise(prob, eps, seed=1)
    eps = 2.0 * floor
    ratio = np.linalg.norm(problems.add_noise(prob, eps, seed=1).e) / np.linalg.norm(prob.b_hat)
    assert abs(ratio - eps) <= 1e-14 * eps


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
    assert problems.transition_index(np.abs(decomp.project(prob.b_hat)),
                                    np.abs(decomp.project(np.zeros(8)))) == 8


def test_transition_zero_signal():
    spec = problems.SyntheticSpec(n=8, decay="severe", alpha=1.0, beta=1.0)
    prob, decomp = problems.generate_synthetic(spec)
    e = decomp.lincomb(np.full(8, 1e-3))
    assert problems.transition_index(np.abs(decomp.project(np.zeros(8))),
                                    np.abs(decomp.project(e))) == 0


def test_transition_flat_noise_in_eigenbasis():
    # coefficients exp(-1.5 j) stay above 1e-3 exactly through j = 4
    spec = problems.SyntheticSpec(n=16, decay="severe", alpha=1.0, beta=0.5)
    prob, decomp = problems.generate_synthetic(spec)
    e = decomp.lincomb(np.full(16, 1e-3))
    assert problems.transition_index(np.abs(decomp.project(prob.b_hat)),
                                    np.abs(decomp.project(e))) == 4


# ---------------------------------------------------------------------------
# JSON container


def _stdlib_json(doc):
    def plain(x):
        if isinstance(x, (np.integer, np.floating)):
            return x.item()
        raise TypeError(f"{type(x).__name__} is not JSON serializable")

    return json.dumps(doc, sort_keys=True, indent=1, default=plain)


_JSON_LEAVES = st.one_of(
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.integers(), st.none(), st.booleans(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.lists(st.floats(), min_size=1), st.lists(st.floats().map(np.float64)),
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_JSON_DOCS)
def test_json_text_writes_the_bytes_of_the_standard_encoder(doc):
    """json_text writes the text of json.dumps(doc, sort_keys=True, indent=1),
    with numpy numbers as the plain numbers they hold, whatever the nesting."""
    assert problems.json_text(doc) == _stdlib_json(doc)


def test_json_text_keys_that_are_not_strings():
    doc = {"a": {1: [1.5, -0.0], 2.5: {"b": None}, True: []}, "c": [{}, [[]], {3: "\u00e9"}]}
    assert problems.json_text(doc) == _stdlib_json(doc)


def test_json_text_refuses_what_the_standard_encoder_refuses():
    for doc in ({"a": [np.arange(3)]}, [object()], {"a": {1: np.bool_(True)}}):
        with pytest.raises(TypeError):
            _stdlib_json(doc)
        with pytest.raises(TypeError):
            problems.json_text(doc)


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


@pytest.mark.parametrize("name", ("gravity", "blur"))
@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_container_with_non_finite_operator_is_refused(name, bad):
    prob = problems.generate(name, 4)
    doc = json.loads(problems.problem_to_json(prob))
    key = "toeplitz_first_col" if name == "blur" else "dense"
    entries = problems._dec(doc["arrays"][key])
    entries[1] = float(bad)
    doc["arrays"][key] = problems._enc(entries)
    with pytest.raises(ContractViolation, match="NaN or infinite"):
        problems.problem_from_json(json.dumps(doc))


def _container(name="gravity", n=8):
    return json.loads(problems.problem_to_json(problems.generate(name, n)))


def _drop(doc, *path):
    *parents, key = path
    for p in parents:
        doc = doc[p]
    del doc[key]
    return doc


def _short(doc, key, size):
    doc["arrays"][key] = problems._enc(problems._dec(doc["arrays"][key])[:size])


@pytest.mark.parametrize("edit,message", [
    (lambda d: _drop(d, "arrays"), "no 'arrays'"),
    (lambda d: _drop(d, "name"), "no 'name'"),
    (lambda d: _drop(d, "n"), "no 'n'"),
    (lambda d: _drop(d, "arrays", "b_hat"), "no 'b_hat'"),
    (lambda d: _drop(d, "arrays", "dense"), "no 'dense'"),
    (lambda d: d.update(n=8.0), "n must be a positive integer"),
    (lambda d: d["arrays"].update(x_true="not base64!"), "'x_true' is not base64"),
    (lambda d: d["arrays"].update(b_hat="AAAA"), "'b_hat' is not base64"),  # 3 bytes
    (lambda d: _short(d, "x_true", 5), "'x_true' has 5 entries, not 8"),
    (lambda d: d.update(n=9), "'x_true' has 8 entries, not 9"),
    (lambda d: _short(d, "dense", 63), "'dense' has 63 entries, not 64"),
], ids=["no-arrays", "no-name", "no-n", "no-b_hat", "no-operator", "float-n", "bad-base64",
        "partial-entry", "short-x_true", "wrong-n", "short-dense"])
def test_malformed_container_is_refused(edit, message):
    doc = _container()
    edit(doc)
    with pytest.raises(ContractViolation, match=message):
        problems.problem_from_json(json.dumps(doc))


def test_container_toeplitz_order_must_square_to_n():
    doc = _container("blur", 4)  # m = 4, n = 16
    _short(doc, "toeplitz_first_col", 3)
    with pytest.raises(ContractViolation, match="order 3, whose square is not n = 16"):
        problems.problem_from_json(json.dumps(doc))


def test_unserializable_problem_leaves_no_file(tmp_path):
    prob = problems.generate("gravity", 4)
    odd = problems.DiscretizedProblem(prob.name, prob.a, prob.x_true, prob.b_hat, {"n": {1, 2}})
    with pytest.raises(TypeError):
        problems.save_problem(odd, tmp_path / "prob.json")
    assert not (tmp_path / "prob.json").exists()


def test_problem_of_a_numpy_spec_round_trips(tmp_path):
    spec = problems.SyntheticSpec(n=np.int64(6), alpha=np.float64(0.5), seed=np.int32(3))
    prob, _ = problems.generate_synthetic(spec)
    problems.save_problem(prob, tmp_path / "prob.json")
    back = problems.load_problem(tmp_path / "prob.json")
    assert back.meta == {**prob.meta, "n": 6, "alpha": 0.5, "seed": 3}
    assert type(back.meta["n"]) is int and type(back.meta["alpha"]) is float
    assert np.array_equal(back.a.dense(), prob.a.dense())
    assert np.array_equal(back.b_hat, prob.b_hat)


@pytest.mark.parametrize("name", ["shaw", "blur"])
def test_order_above_the_dense_limit_is_refused(name):
    with pytest.raises(ContractViolation, match="problems need 2 <= n <= 4096"):
        problems.generate(name, 10**400)
    with pytest.raises(ContractViolation, match="problems need 2 <= n <= 4096"):
        problems.generate(name, DENSE_EIG_LIMIT + 1)


def test_synthetic_order_above_the_dense_limit_is_refused():
    with pytest.raises(ContractViolation, match="synthetic problems need 2 <= n <= 4096"):
        problems.generate_synthetic(problems.SyntheticSpec(n=DENSE_EIG_LIMIT + 1))


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
