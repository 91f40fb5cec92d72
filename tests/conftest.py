import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from regkrylov import problems
from regkrylov.linalg import symmetric_eig

# for tests of the np.longdouble paths, which only differ from double where
# the platform's long double is wider
needs_extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)



def traced_peak_n2(fn, n):
    """Peak traced allocation while fn() runs, in units of n^2 doubles.
    tracemalloc sees numpy's array data, not LAPACK's workspace."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


_PROBLEMS = {}
_DECOMPS = {}


@pytest.fixture(scope="session")
def get_problem():
    def _get(name, n, **kw):
        key = (name, n, tuple(sorted(kw.items())))
        if key not in _PROBLEMS:
            _PROBLEMS[key] = problems.generate(name, n, **kw)
        return _PROBLEMS[key]

    return _get


@pytest.fixture(scope="session")
def get_decomp(get_problem):
    def _get(name, n, **kw):
        key = (name, n, tuple(sorted(kw.items())))
        if key not in _DECOMPS:
            _DECOMPS[key] = symmetric_eig(get_problem(name, n, **kw).a)
        return _DECOMPS[key]

    return _get
