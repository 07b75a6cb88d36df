import numpy as np
import pytest

from disclab import random_point_set, uniform01
from disclab.rng import raw64

MASK = (1 << 64) - 1


def _splitmix64_reference(seed, i):
    """Scalar reference, straight from the published constants."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_matches_scalar_reference():
    # seeds outside [0, 2^64) enter the stream masked to 64 bits, and the
    # uniforms are the top 53 bits of each output scaled by 2^-53
    for seed in (42, 0, -1, 2**63, 2**64 - 1, 2**70):
        for start in (0, 2**62 - 5, 2**62 + 3):
            want = [_splitmix64_reference(seed & MASK, start + i) for i in range(16)]
            assert [int(x) for x in raw64(seed, start, 16)] == want, (seed, start)
            u = uniform01(seed, start, 16)
            assert u.dtype == np.float64
            assert u.tolist() == [(z >> 11) * 2.0**-53 for z in want], (seed, start)


def test_known_first_output_for_seed_zero():
    # widely used splitmix64 test vector
    assert int(raw64(0, 0, 1)[0]) == 0xE220A8397B1DCDAF


def test_counter_stream_is_splittable():
    whole = raw64(7, 0, 100)
    parts = np.concatenate([raw64(7, 0, 37), raw64(7, 37, 13), raw64(7, 50, 50)])
    np.testing.assert_array_equal(whole, parts)


def test_uniform01_range_and_determinism():
    u = uniform01(123, 0, 10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    np.testing.assert_array_equal(u, uniform01(123, 0, 10000))


def test_random_point_set_layout():
    p = random_point_set(5, 3, 99)
    flat = uniform01(99, 0, 15)
    np.testing.assert_array_equal(p.coords.ravel(), flat)
    assert p.n == 5 and p.d == 3


@pytest.mark.parametrize(
    "n, d, seed, name", [(2.5, 1, 0, "n"), (4, 1.0, 0, "d"), (4, 1, 0.0, "seed")]
)
def test_random_point_set_refuses_non_integers(n, d, seed, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        random_point_set(n, d, seed)
    assert random_point_set(np.int64(4), np.int64(1), np.uint64(7)).n == 4


def test_distinct_seeds_differ():
    assert not np.array_equal(uniform01(1, 0, 64), uniform01(2, 0, 64))


def test_uniform01_stride_reads_every_kth_double():
    # odd starts, near 2^62 too, and a count of one
    for k in range(1, 8):
        for start in (1, 7, 12345, 2**62 + 3):
            for count in (1, 29):
                want = uniform01(11, start, count * k)[::k]
                np.testing.assert_array_equal(uniform01(11, start, count, stride=k), want)
    assert uniform01(11, 5, 0, stride=3).size == 0


def test_uniform01_rejects_stride_below_one():
    for k in (0, -2):
        with pytest.raises(ValueError, match="stride"):
            uniform01(11, 0, 4, stride=k)
