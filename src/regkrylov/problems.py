"""Symmetric ill-posed test problems, synthetic models and noisy data.

The five 1-D generators are midpoint discretizations of first-kind Fredholm
kernels on their natural domains; `blur` is a 2-D Gaussian deblurring
operator stored as a Kronecker square of a banded Toeplitz factor.  All
generation is bit-deterministic for fixed inputs.

A 1-D kernel is built from 1-D node values by outer ufuncs and in-place
updates, and `SymmetricMatrix` keeps one symmetrized copy of it, never the
array it was given; generation peaks at about 2 n**2 doubles, below the
dense eigensolve (about 5 n**2 with LAPACK's workspace).

Every JSON output of the package goes through `json_text`, the standard
encoder with keys sorted and an indent of one; a problem's arrays travel in
its container as base64 little-endian doubles.
"""

import base64
import json
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng
from .exceptions import ContractViolation
# bound by value: rebinding linalg.DENSE_EIG_LIMIT moves the eigensolver's
# limit, not the generators'
from .linalg import DENSE_EIG_LIMIT, SpectralDecomposition, SymmetricMatrix

PROBLEM_NAMES = ("shaw", "foxgood", "gravity", "phillips", "deriv2", "blur")


@dataclass(frozen=True)
class DiscretizedProblem:
    """Operator, exact solution and the clean right-hand side A @ x_true."""

    name: str
    a: SymmetricMatrix
    x_true: np.ndarray
    b_hat: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.a.n


@dataclass(frozen=True)
class NoiseRealization:
    """A noise vector rescaled to an exact relative level, plus the noisy rhs."""

    e: np.ndarray
    b: np.ndarray


def is_integer(x):
    """x is a Python or numpy integer (a bool is not one)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x):
    """x is a Python or numpy real number (not a bool) that a double holds
    finitely, compared as a Python number so that nothing overflows."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x.item() if isinstance(x, np.generic) else x) <= sys.float_info.max)


# what a field declared int, float, str or list requires, and how a refusal names it
_FIELD_KINDS = {int: (is_integer, "an integer"), float: (is_real, "a finite real number"),
                str: (lambda x: isinstance(x, str), "a string"),
                list: (lambda x: isinstance(x, list), "a list")}


def check_field_types(obj, error=ContractViolation):
    """Raise `error` for the first field of the dataclass `obj` declared
    int, float, str or list whose value is not one."""
    for f in fields(obj):
        if f.type in _FIELD_KINDS:
            ok, what = _FIELD_KINDS[f.type]
            value = getattr(obj, f.name)
            if not ok(value):
                raise error(f"{f.name} must be {what}, not {reprlib.repr(value)}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Prescription for a synthetic problem with exact spectral data.

    decay: "severe" (sigma_j = exp(-alpha j)), "moderate" (j**-alpha with
    alpha > 1) or "mild" (j**-alpha with alpha <= 1).  The clean right-hand
    side is built in the eigenbasis so |v_j^T b_hat| = sigma_j**(1+beta)
    holds exactly.
    """

    n: int
    decay: str = "severe"
    alpha: float = 1.0
    beta: float = 1.0
    sign_pattern: str = "definite"  # definite | alternating | random
    basis: str = "identity"  # identity | random
    seed: int = 0

    def validate(self):
        check_field_types(self)
        if not 2 <= self.n <= DENSE_EIG_LIMIT:
            raise ContractViolation(
                f"synthetic problems need 2 <= n <= {DENSE_EIG_LIMIT}, not {reprlib.repr(self.n)}"
            )
        if self.alpha <= 0.0:
            raise ContractViolation("decay rate alpha must be positive")
        if self.beta <= 0.0:
            raise ContractViolation("coefficient exponent beta must be positive")
        if self.decay not in ("severe", "moderate", "mild"):
            raise ContractViolation(f"unknown decay kind {self.decay!r}")
        if self.decay == "moderate" and self.alpha <= 1.0:
            raise ContractViolation("moderate decay requires alpha > 1")
        if self.decay == "mild" and self.alpha > 1.0:
            raise ContractViolation("mild decay requires alpha <= 1")
        if self.sign_pattern not in ("definite", "alternating", "random"):
            raise ContractViolation(f"unknown sign pattern {self.sign_pattern!r}")
        if self.basis not in ("identity", "random"):
            raise ContractViolation(f"unknown basis kind {self.basis!r}")


# ---------------------------------------------------------------------------
# 1-D kernels (midpoint quadrature on matching node sets keeps A exactly
# symmetric; averaging with the transpose is a no-op guard).  Each kernel is
# evaluated in place on one n-by-n array (two for shaw).


def _midpoints(lo, hi, n):
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, h


def _shaw(n):
    t, h = _midpoints(-np.pi / 2, np.pi / 2, n)
    sin_t = np.sin(t)
    u = np.add.outer(sin_t, sin_t)
    u *= np.pi
    zero = u == 0.0
    u[zero] = 1.0
    sinc = np.sin(u)
    sinc /= u
    sinc[zero] = 1.0
    sinc *= sinc
    cos_t = np.cos(t)
    a = np.add.outer(cos_t, cos_t, out=u)
    a *= a
    a *= h
    a *= sinc
    x = 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    return a, x


def _foxgood(n):
    t, h = _midpoints(0.0, 1.0, n)
    t2 = t * t
    a = np.add.outer(t2, t2)
    np.sqrt(a, out=a)
    a *= h
    return a, t.copy()


def _gravity(n, depth=0.25):
    t, h = _midpoints(0.0, 1.0, n)
    a = np.subtract.outer(t, t)
    a *= a
    a += depth**2
    a **= -1.5
    a *= h * depth
    x = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    return a, x


def _phillips_psi(x):
    """1 + cos(pi x / 3) where |x| < 3, else 0, overwriting x."""
    far = np.abs(x) >= 3.0
    x *= np.pi
    x /= 3.0
    np.cos(x, out=x)
    x += 1.0
    x[far] = 0.0
    return x


def _phillips(n):
    t, h = _midpoints(-6.0, 6.0, n)
    a = _phillips_psi(np.subtract.outer(t, t))
    a *= h
    return a, _phillips_psi(t)


def _deriv2(n):
    t, h = _midpoints(0.0, 1.0, n)
    # s * (t - 1) on and above the diagonal (s <= t), t * (s - 1) below it
    a = np.multiply.outer(t, t - 1.0)
    np.multiply.outer(t - 1.0, t, out=a, where=np.greater.outer(t, t))
    a *= h
    return a, t.copy()


def test_image(m):
    """Piecewise-constant m-by-m grayscale test image.

    A bright centered square on a dark background plus one horizontal and
    one vertical gray bar; all geometry scales with m.
    """
    img = np.zeros((m, m))
    bar = max(m // 16, 1)
    r0 = m // 8
    img[r0 : r0 + bar, m // 6 : m - m // 6] = 0.5
    c0 = m // 8
    img[m // 6 : m - m // 6, c0 : c0 + bar] = 0.5
    side = max(m // 3, 1)
    lo = (m - side) // 2
    img[lo : lo + side, lo : lo + side] = 1.0
    return img


def _blur(m, band, sigma):
    if band < 1 or band >= m:
        raise ContractViolation("blur needs 1 <= band < m")
    if not is_real(sigma) or sigma <= 0.0:
        raise ContractViolation("blur needs a finite sigma > 0")
    z = np.zeros(m)
    ell = np.arange(band)
    z[:band] = np.exp(-(ell.astype(float) ** 2) / (2.0 * sigma**2))
    z /= sigma * np.sqrt(2.0 * np.pi)
    a = SymmetricMatrix(toeplitz_first_col=z)
    x = test_image(m).ravel(order="F")
    return a, x


def generate(name, n, band=3, sigma=0.7):
    """Build one of the named test problems.

    For `blur`, n is the image side m and the operator has order m**2.
    n is at most DENSE_EIG_LIMIT: the dense problems' eigensolve has order
    n, the blur factor's has order m.
    """
    builders = {
        "shaw": _shaw,
        "foxgood": _foxgood,
        "gravity": _gravity,
        "phillips": _phillips,
        "deriv2": _deriv2,
    }
    if not 2 <= n <= DENSE_EIG_LIMIT:
        raise ContractViolation(f"problems need 2 <= n <= {DENSE_EIG_LIMIT}, not {reprlib.repr(n)}")
    if name in builders:
        dense, x = builders[name](n)
        a = SymmetricMatrix(dense=dense)
        b_hat = a.matvec(x)
        return DiscretizedProblem(name, a, x, b_hat, {"n": n})
    if name == "blur":
        a, x = _blur(n, band, sigma)
        b_hat = a.matvec(x)
        meta = {"n": a.n, "m": n, "band": band, "sigma": sigma}
        return DiscretizedProblem(name, a, x, b_hat, meta)
    raise ContractViolation(f"unknown problem name {name!r}")


# ---------------------------------------------------------------------------
# synthetic model problems


def _random_orthogonal(n, seed):
    g = rng.normal(seed, n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))


def generate_synthetic(spec):
    """Synthetic problem with prescribed spectrum and coefficient decay.

    Returns (problem, decomposition); the decomposition is exact by
    construction, no numerical eigensolve involved.
    """
    spec.validate()
    j = np.arange(1, spec.n + 1, dtype=float)
    if spec.decay == "severe":
        sigmas = np.exp(-spec.alpha * j)
    else:
        sigmas = j**-spec.alpha
    if spec.sign_pattern == "definite":
        signs = np.ones(spec.n)
    elif spec.sign_pattern == "alternating":
        signs = np.where(np.arange(spec.n) % 2 == 0, 1.0, -1.0)
    else:
        u = rng.uniform01(rng.derive(spec.seed, 0x5167), spec.n)
        signs = np.where(u < 0.5, -1.0, 1.0)
    lams = signs * sigmas
    if spec.basis == "identity":
        v = np.eye(spec.n)
    else:
        v = _random_orthogonal(spec.n, rng.derive(spec.seed, 0xBA515))
    coeffs = signs * sigmas ** (1.0 + spec.beta)
    b_hat = v @ coeffs
    x_true = v @ sigmas**spec.beta
    a = SymmetricMatrix(dense=(v * lams) @ v.T)
    decomp = SpectralDecomposition(lams, v=v)
    meta = {
        "n": spec.n,
        "decay": spec.decay,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "sign_pattern": spec.sign_pattern,
        "basis": spec.basis,
        "seed": spec.seed,
    }
    return DiscretizedProblem("synthetic", a, x_true, b_hat, meta), decomp


# ---------------------------------------------------------------------------
# noise and the transition index


def check_noise_level(eps, b_hat=None, error=ContractViolation):
    """Raise `error` unless eps is a real number in [0, 1) and, given b_hat,
    ||b_hat|| != 0 and a nonzero eps puts the noise norm eps ||b_hat|| at or
    above sqrt(n * tiny) (tiny: the smallest normal double), below which a
    norm's squares underflow and no rescale could pin the level."""
    if not (is_real(eps) and 0.0 <= eps < 1.0):
        raise error(f"a noise level must be a real number in [0, 1), not {reprlib.repr(eps)}")
    if b_hat is None:
        return
    norm_b = float(np.linalg.norm(b_hat))
    if norm_b == 0.0:
        raise error("the clean right-hand side has zero norm")
    target = eps * norm_b
    if eps > 0.0 and target < np.sqrt(b_hat.size * np.finfo(float).tiny):
        raise error(
            f"noise level {eps:g} is too small: the norm {target:.3g} of its noise "
            "underflows in double precision"
        )


def add_noise(problem, eps, seed):
    """Gaussian noise rescaled so ||e|| / ||b_hat|| equals eps exactly, a
    level that `check_noise_level` accepts; eps = 0 gives e = 0 and a copy
    of b_hat."""
    b_hat = problem.b_hat
    check_noise_level(eps, b_hat)
    if eps == 0.0:
        return NoiseRealization(e=np.zeros(b_hat.size), b=b_hat.copy())
    target = float(eps) * float(np.linalg.norm(b_hat))  # in double for a numpy eps too
    e = rng.normal(rng.derive(seed, 0x4015E), b_hat.size)
    # two rescales pin the ratio to the last ulp
    e *= target / float(np.linalg.norm(e))
    e *= target / float(np.linalg.norm(e))
    return NoiseRealization(e=e, b=b_hat + e)


def transition_index(clean, noise):
    """Largest k with clean[j] > noise[j] for every j <= k, given the
    spectral coefficient magnitudes |v_j^T b_hat| and |v_j^T e|."""
    ahead = clean > noise
    if ahead.all():
        return int(ahead.size)
    return int(np.argmin(ahead))


# ---------------------------------------------------------------------------
# portable JSON container


def _enc(arr):
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _dec(text):
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").copy()


def json_text(doc):
    """A document as JSON text, keys sorted and indented by one; a numpy
    number is written as the plain number it holds."""
    def plain(x):
        if isinstance(x, (np.integer, np.floating)):
            return x.item()
        raise TypeError(f"{type(x).__name__} is not JSON serializable")

    return json.dumps(doc, sort_keys=True, indent=1, default=plain)


def problem_to_json(problem):
    """Serialize to the documented container: metadata plus base64-encoded
    little-endian float64 arrays."""
    doc = {
        "name": problem.name,
        "n": problem.n,
        "meta": problem.meta,
        "arrays": {
            "x_true": _enc(problem.x_true),
            "b_hat": _enc(problem.b_hat),
        },
    }
    if problem.a.is_kronecker:
        doc["arrays"]["toeplitz_first_col"] = _enc(problem.a.factor[:, 0])
    else:
        doc["arrays"]["dense"] = _enc(problem.a.dense().ravel())
    return json_text(doc)


def _member(doc, key):
    """doc[key], where doc must be a JSON object that has the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ContractViolation(f"the problem container has no {key!r}")
    return doc[key]


def _array(arrays, key, size=None):
    """The float64 array arrays[key]; its length must be `size` if given."""
    text = _member(arrays, key)
    try:
        out = _dec(text)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ContractViolation(
            f"container array {key!r} is not base64 little-endian float64 data"
        ) from exc
    if size is not None and out.size != size:
        raise ContractViolation(f"container array {key!r} has {out.size} entries, not {size}")
    return out


def problem_from_json(text):
    """The problem a container holds.  A missing key, an array that is not
    base64 float64 data, or an array length that disagrees with n (x_true
    and b_hat of length n, a dense operator of n**2 entries, a Toeplitz
    factor of order m with m**2 = n) is a ContractViolation naming it."""
    doc = json.loads(text)
    name = _member(doc, "name")
    n = _member(doc, "n")
    if not is_integer(n) or n < 1:
        raise ContractViolation(f"container n must be a positive integer, not {n!r}")
    arrays = _member(doc, "arrays")
    x_true = _array(arrays, "x_true", n)
    b_hat = _array(arrays, "b_hat", n)
    if "toeplitz_first_col" in arrays:
        col = _array(arrays, "toeplitz_first_col")
        if col.size**2 != n:
            raise ContractViolation(
                f"container array 'toeplitz_first_col' has order {col.size}, "
                f"whose square is not n = {n}"
            )
        a = SymmetricMatrix(toeplitz_first_col=col)
    else:
        a = SymmetricMatrix(dense=_array(arrays, "dense", n * n).reshape(n, n))
    return DiscretizedProblem(name, a, x_true, b_hat, doc.get("meta", {}))


def save_problem(problem, path):
    text = problem_to_json(problem)  # before the file is opened
    with open(path, "w") as fh:
        fh.write(text)


def load_problem(path):
    with open(path) as fh:
        return problem_from_json(fh.read())
