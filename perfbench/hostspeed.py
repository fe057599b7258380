"""Scale measured wall times to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over tens of seconds, in wall and CPU time alike, as other tenants'
load comes and goes.  A fixed reference kernel, timed right before and right
after each measured call, tracks that drift.  ``HostClock.scale`` turns a
call's wall into the wall it would have taken on a host where the kernel
takes its nominal time: ``wall * nominal / mean(reference before, after)``.
The kernels never call cclab, so a change to cclab moves only the scaled
wall, and by the same share as the raw one.

Two kernels: ``python`` (dict updates in an interpreter loop, like the
per-``n`` callbacks and the exact oracles) and ``numpy`` (sorts and prefix
sums of an array that fits in cache, like the samplers).  A workload names
the mix that tracks its own ops best.
"""

from __future__ import annotations

import time

import numpy as np

_ARRAY = np.random.default_rng(20_240_917).random(1 << 16)


def python_kernel() -> None:
    table: dict = {}
    for i in range(250_000):
        key = (i * 2654435761) % 10007
        table[key] = table.get(key, 0.0) + 0.5 * i


def numpy_kernel() -> None:
    for _ in range(45):
        np.cumsum(np.sort(_ARRAY * 3.0 + 1.0))


# Wall of each kernel on the nominal host: 2 shared vCPUs of a Xeon at 2.1 GHz
# in a quiet spell, Python 3 with NumPy.  Only the ratio to it matters.
NOMINAL_S = {"python": 0.050, "numpy": 0.040}
MIXES = {
    "python+numpy": ("python", "numpy"),
    "numpy": ("numpy",),
}
_KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class HostClock:
    """Times a kernel mix; scales walls measured between two of its readings."""

    def __init__(self, mix: str) -> None:
        self.mix = MIXES[mix]
        self.nominal = sum(NOMINAL_S[k] for k in self.mix)
        self.readings: list[float] = []

    def read(self) -> float:
        t0 = time.perf_counter()
        for kernel in self.mix:
            _KERNELS[kernel]()
        elapsed = time.perf_counter() - t0
        self.readings.append(elapsed)
        return elapsed

    def scale(self, wall: float, before: float, after: float) -> float:
        return wall * self.nominal / (0.5 * (before + after))
