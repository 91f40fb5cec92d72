"""Deterministic counter-based random numbers.

Every draw is a pure function of (seed, counter) through a SplitMix64-style
integer mix, so streams are reproducible bit for bit, independent of call
history, and trivially splittable into independent child streams.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def _finalize(z):
    """SplitMix64 finalizer on a uint64 array (wraparound intended)."""
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def derive(seed, *tags):
    """Fold integer tags into a seed, producing an independent child stream."""
    s = np.array([int(seed) & _MASK], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for t in tags:
            s = _finalize((s + _GOLDEN) ^ np.uint64(int(t) & _MASK))
    return int(s[0])


def raw64(seed, n):
    """First n raw 64-bit words of the stream identified by seed."""
    key = _finalize(np.array([int(seed) & _MASK], dtype=np.uint64))[0]
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _finalize(key + idx * _GOLDEN)


def uniform01(seed, n):
    """n doubles strictly inside (0, 1)."""
    return (raw64(seed, n) >> np.uint64(11)) * 2.0**-53 + 2.0**-54


def normal(seed, n):
    """n standard normal doubles via the Box-Muller transform."""
    m = (n + 1) // 2
    u = uniform01(seed, 2 * m)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    a = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(a)
    out[1::2] = r * np.sin(a)
    return out[:n]
