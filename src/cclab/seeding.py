"""Deterministic random streams, one per address.

Every stochastic routine takes an explicit (seed, path...) address and draws
from an SFC64 generator seeded by ``SeedSequence(seed, spawn_key=path)``.  The
seed is hashed whole, so seeds equal modulo 2^64 get distinct streams.  Path
entries are read as 32-bit words: one outside [0, 2^32) raises ValueError and
a wider number enters as its ``words``, so distinct paths never share a
stream.  Results never depend on worker count, scheduling, or call order.
``mcengine``'s batch b draws from one stream, whose words every grid point of
its walks reads in turn: (seed, 0, *words(n), b) for ``estimate`` at n, and
(seed, 1, b) for ``simulate``, whose one walk a replicate runs to the last n.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given stream address."""
    if not all(0 <= x < 1 << 32 for x in path):
        raise ValueError(f"stream path entries must lie in [0, 2^32): {path}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path)))


def words(x: int) -> tuple:
    """The 32-bit words of x >= 0, low first, as SeedSequence read x whole."""
    return tuple(x >> k & 0xFFFFFFFF for k in range(0, max(x.bit_length(), 1), 32))


def stream_id(seed: int, *path: int) -> str:
    """Label of a stream address.  The version tag changes whenever the draws
    made from a stream change; CHANGES.md says what each version changed."""
    return "sfc64-v8:" + "/".join(str(int(x)) for x in (seed, *path))
