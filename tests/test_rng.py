import numpy as np
import pytest

from synclouvain.rng import uniform01

# (seed, parts, ids, draws as float.hex), computed with the pure-int
# SplitMix64 key mixing that preceded the numpy one
PINNED = [
    (0, (0, 0), [0, 1, 2, 3],
     ["0x1.693568ef770d0p-1", "0x1.1c13ade1c7e5cp-3",
      "0x1.f1344acd6b045p-1", "0x1.1c8038765e03ep-2"]),
    (7, (3, 12), [5, 1000, 2**40],
     ["0x1.3861c5d12b381p-1", "0x1.1ea302560d3aep-1",
      "0x1.f476b6c047d9cp-2"]),
    (-1, (1, 2), [0, 7], ["0x1.fd5b7109a2cf3p-1", "0x1.b32aee89c6466p-1"]),
    (2**63 + 5, (0, 99), [123456789], ["0x1.1158882a8fe01p-1"]),
]


@pytest.mark.parametrize("seed, parts, ids, want", PINNED)
def test_uniform01_pinned_draws(seed, parts, ids, want):
    assert [float(x).hex() for x in uniform01(seed, parts, ids)] == want


def test_uniform01_ignores_batching_and_id_order():
    rng = np.random.default_rng(11)
    ids = rng.integers(0, 2**62, 500)
    with np.errstate(all="raise"):
        whole = uniform01(3, (2, 5), ids)
        parts = np.concatenate([uniform01(3, (2, 5), c)
                                for c in np.array_split(ids, 7)])
        perm = rng.permutation(ids.size)
        shuffled = uniform01(3, (2, 5), ids[perm])
        one = [uniform01(3, (2, 5), [i])[0] for i in ids[:20].tolist()]
    np.testing.assert_array_equal(parts, whole)
    np.testing.assert_array_equal(shuffled, whole[perm])
    np.testing.assert_array_equal(one, whole[:20])


def test_uniform01_draws_lie_in_unit_interval():
    rng = np.random.default_rng(12)
    ids = np.concatenate((rng.integers(0, 2**63, 10_000, dtype=np.uint64),
                          np.array([0, 2**64 - 1], dtype=np.uint64)))
    for seed in (0, 1, -1, 2**64 - 1):
        u = uniform01(seed, (0, 1), ids)
        assert u.dtype == np.float64
        assert ((u >= 0.0) & (u < 1.0)).all()


def test_uniform01_numpy_integer_seed_draws_as_its_int():
    ids = np.arange(100)
    for seed in (0, 7, -3, 2**62):
        np.testing.assert_array_equal(uniform01(np.int64(seed), (1, 4), ids),
                                      uniform01(seed, (1, 4), ids))
