"""Deterministic random streams, one per address.

Every stochastic routine takes an explicit (seed, path...) address and draws
from an SFC64 generator seeded by ``SeedSequence(seed, spawn_key=path)``.  The
seed is hashed whole, so seeds equal modulo 2^64 still get distinct streams;
path entries are read as 32-bit words, so paths of one length are distinct
while their entries stay below 2^32.  Results therefore never depend on worker
count, scheduling, or call order: batch b of an ``mcengine`` walk of n steps
always draws from the address (seed, 0, n, b).
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given stream address."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path)))


def stream_id(seed: int, *path: int) -> str:
    """Label of a stream address; the version tag changes whenever the draws
    made from a stream change (v2: direct sums of S_n in ``mcengine``; v3:
    ``uniform_sym`` bit planes at n >= 512, off-lattice atom counts, and one
    word per ``pareto_sym`` step; v4: SFC64 seeded by ``SeedSequence`` in
    place of Philox)."""
    return "sfc64-v4:" + "/".join(str(int(x)) for x in (seed, *path))
