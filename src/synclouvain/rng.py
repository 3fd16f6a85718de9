"""Stateless counter-based uniform draws.

Move acceptance must depend only on (seed, level, sweep, node), never on
thread count or commit order, so instead of a sequential generator each draw
is a pure hash of its coordinates (SplitMix64 finalizer). Identical keys give
identical doubles on every platform and for any batching of the calls.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z):
    """SplitMix64's finalizer on ``np.uint64`` values, modulo 2**64; call it
    under ``np.errstate(over="ignore")``."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def mix_key(seed: int, *parts: int) -> int:
    """Collapse (seed, part, part, ...) into one well-mixed 64-bit state."""
    with np.errstate(over="ignore"):
        state = _finalize(np.uint64(int(seed) & _MASK))
        for part in parts:
            state = _finalize(state + np.uint64(_GAMMA)
                              + np.uint64(int(part) & _MASK))
    return int(state)


def uniform01(seed: int, parts: tuple[int, ...], ids) -> np.ndarray:
    """Uniform [0, 1) double per id under the key (seed, *parts)."""
    base = np.uint64(mix_key(seed, *parts))
    ids = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _finalize(ids * np.uint64(_GAMMA) + base)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
