import numpy as np

from regkrylov import rng


def test_streams_are_deterministic():
    a = rng.normal(42, 1000)
    b = rng.normal(42, 1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(rng.raw64(1, 64), rng.raw64(2, 64))


def test_uniforms_strictly_inside_unit_interval():
    u = rng.uniform01(7, 100000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_derive_gives_independent_child_streams():
    s1 = rng.derive(5, 1)
    s2 = rng.derive(5, 2)
    assert s1 != s2
    assert not np.array_equal(rng.normal(s1, 32), rng.normal(s2, 32))


def test_normal_moments():
    # pooled statistical check: mean within 4 standard errors, variance close
    z = rng.normal(1234, 10000)
    se = 1.0 / np.sqrt(z.size)
    assert abs(z.mean()) < 4 * se
    assert abs(z.var() - 1.0) < 6 * np.sqrt(2.0 / z.size)


def test_odd_length_requests():
    assert rng.normal(3, 7).shape == (7,)


def test_numpy_integer_seeds_give_the_same_streams():
    for seed in (3, -3, 2**63 + 5):
        np_seed = np.uint64(seed) if seed >= 2**63 else np.int64(seed)
        assert rng.derive(np_seed, 0x4015E) == rng.derive(seed, 0x4015E)
        assert np.array_equal(rng.raw64(np_seed, 4), rng.raw64(seed, 4))
