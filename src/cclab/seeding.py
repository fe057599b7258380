"""Deterministic counter-based random streams.

Every stochastic routine takes an explicit (seed, path...) address and derives
an independent Philox stream from it.  Results therefore never depend on
worker count, scheduling, or call order: batch b of scenario s always sees the
same bits.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # splitmix64 finalizer; decorrelates adjacent path indices.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, *path: int) -> tuple[int, int]:
    """Collapse a (seed, path...) address into a 128-bit Philox key."""
    k0 = _splitmix64(seed & _MASK64)
    k1 = _splitmix64(~seed & _MASK64)
    for p in path:
        k0 = _splitmix64((k0 ^ (p & _MASK64)) & _MASK64)
        k1 = _splitmix64((k1 + _splitmix64(p & _MASK64)) & _MASK64)
    return k0, k1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given stream address."""
    k0, k1 = stream_key(seed, *path)
    bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    return np.random.Generator(bitgen)


def stream_id(seed: int, *path: int) -> str:
    """Label of a stream address; the version tag changes whenever the draws
    made from a stream change (v2: direct sums of S_n in ``mcengine``; v3:
    ``uniform_sym`` bit planes at n >= 512, off-lattice atom counts, and one
    word per ``pareto_sym`` step)."""
    return "philox-v3:" + "/".join(str(int(x)) for x in (seed, *path))
