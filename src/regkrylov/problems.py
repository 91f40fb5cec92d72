"""Symmetric ill-posed test problems, synthetic models and noisy data.

The five 1-D generators are midpoint discretizations of first-kind Fredholm
kernels on their natural domains; `blur` is a 2-D Gaussian deblurring
operator stored as a Kronecker square of a banded Toeplitz factor.  All
generation is bit-deterministic for fixed inputs.
"""

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .exceptions import ContractViolation
from .linalg import SpectralDecomposition, SymmetricMatrix

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
    eps: float
    seed: int
    b: np.ndarray


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
        if self.n < 2:
            raise ContractViolation("synthetic problems need n >= 2")
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
# symmetric; averaging with the transpose is a no-op guard)


def _midpoints(lo, hi, n):
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, h


def _shaw(n):
    t, h = _midpoints(-np.pi / 2, np.pi / 2, n)
    s, tt = np.meshgrid(t, t, indexing="ij")
    u = np.pi * (np.sin(s) + np.sin(tt))
    safe = np.where(u == 0.0, 1.0, u)
    sinc = np.where(u == 0.0, 1.0, np.sin(safe) / safe)
    a = h * (np.cos(s) + np.cos(tt)) ** 2 * sinc**2
    x = 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    return a, x


def _foxgood(n):
    t, h = _midpoints(0.0, 1.0, n)
    s, tt = np.meshgrid(t, t, indexing="ij")
    a = h * np.sqrt(s**2 + tt**2)
    return a, t.copy()


def _gravity(n, depth=0.25):
    t, h = _midpoints(0.0, 1.0, n)
    s, tt = np.meshgrid(t, t, indexing="ij")
    a = h * depth * (depth**2 + (s - tt) ** 2) ** -1.5
    x = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    return a, x


def _phillips_psi(x):
    return np.where(np.abs(x) < 3.0, 1.0 + np.cos(np.pi * x / 3.0), 0.0)


def _phillips(n):
    t, h = _midpoints(-6.0, 6.0, n)
    s, tt = np.meshgrid(t, t, indexing="ij")
    a = h * _phillips_psi(s - tt)
    return a, _phillips_psi(t)


def _deriv2(n):
    t, h = _midpoints(0.0, 1.0, n)
    s, tt = np.meshgrid(t, t, indexing="ij")
    a = h * np.where(s <= tt, s * (tt - 1.0), tt * (s - 1.0))
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
    if sigma <= 0.0:
        raise ContractViolation("blur needs sigma > 0")
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
    """
    builders = {
        "shaw": _shaw,
        "foxgood": _foxgood,
        "gravity": _gravity,
        "phillips": _phillips,
        "deriv2": _deriv2,
    }
    if n < 2:
        raise ContractViolation("problems need n >= 2")
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


def add_noise(problem, eps, seed):
    """Gaussian noise rescaled so ||e|| / ||b_hat|| equals eps exactly;
    eps = 0 gives e = 0 and a copy of b_hat.  A relative level needs a
    nonzero ||b_hat||."""
    if not 0.0 <= eps < 1.0:
        raise ContractViolation("relative noise level must lie in [0, 1)")
    b_hat = problem.b_hat
    norm_b = float(np.linalg.norm(b_hat))
    if norm_b == 0.0:
        raise ContractViolation("the clean right-hand side has zero norm")
    if eps == 0.0:
        return NoiseRealization(e=np.zeros(b_hat.size), eps=eps, seed=seed, b=b_hat.copy())
    e = rng.normal(rng.derive(seed, 0x4015E), b_hat.size)
    target = eps * norm_b
    # two rescales pin the ratio to the last ulp
    e *= target / float(np.linalg.norm(e))
    e *= target / float(np.linalg.norm(e))
    return NoiseRealization(e=e, eps=eps, seed=seed, b=b_hat + e)


def transition_index(decomp, b_hat, e):
    """Largest k with |v_j^T b_hat| > |v_j^T e| for every j <= k."""
    cb = np.abs(decomp.project(b_hat))
    ce = np.abs(decomp.project(e))
    ahead = cb > ce
    if ahead.all():
        return int(ahead.size)
    return int(np.argmin(ahead))


# ---------------------------------------------------------------------------
# portable JSON container


def _enc(arr):
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _dec(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


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
    return json.dumps(doc, sort_keys=True, indent=1)


def problem_from_json(text):
    doc = json.loads(text)
    arrays = doc["arrays"]
    x_true = _dec(arrays["x_true"])
    b_hat = _dec(arrays["b_hat"])
    if "toeplitz_first_col" in arrays:
        a = SymmetricMatrix(toeplitz_first_col=_dec(arrays["toeplitz_first_col"]))
    else:
        n = doc["n"]
        a = SymmetricMatrix(dense=_dec(arrays["dense"]).reshape(n, n))
    return DiscretizedProblem(doc["name"], a, x_true, b_hat, doc.get("meta", {}))


def save_problem(problem, path):
    with open(path, "w") as fh:
        fh.write(problem_to_json(problem))


def load_problem(path):
    with open(path) as fh:
        return problem_from_json(fh.read())
