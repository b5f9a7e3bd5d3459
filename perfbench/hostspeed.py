"""How fast the host runs, sampled between the benchmark's operations.

The hosts this benchmark runs on are shared.  Their speed switches
between a fast state and one about 1.5x slower, in process CPU time as
much as in wall time; a state lasts from a tenth of a second to tens of
seconds, and the share of slow time drifts over minutes.  A median or a
best repeat over a run measures that share as much as the program.  So
the benchmark measures the host's speed as it goes: every
:data:`INTERVAL_S`, between two operations, it times one run of
:func:`_kernel`, code of its own that never changes, and scales each
operation by ``REFERENCE_S /`` (the kernel runs around it).  Timings are
then host times at the host speed where the kernel takes
``REFERENCE_S``: a change to the program moves them in full, a change in
host speed mostly cancels.

Code does not all slow alike: a loop that stays in the core's caches
swings more than random reads from memory, and the program's
simulations lie in between.  The kernel therefore spends a little under
half its time in interpreted arithmetic with small NumPy operations and
the rest in random lookups into a table larger than the caches.  In
4-minute traces of a fixed batch of simulations interleaved with the
kernel (2-vCPU Xeon VM), the batch's 30-second medians moved by 1.22x
to 1.78x; divided by the kernel's, by 1.08x to 1.14x.  A kernel run
allocates nothing that outlives it; the table, built with the first
sample, stays resident (:func:`table_mb`).
"""

from __future__ import annotations

import bisect
import math
import random
import time
from pathlib import Path

import numpy as np

#: kernel time (s) of the nominal host; scaled timings are expressed at
#: this speed.  About the kernel's median on a 2.0 GHz Xeon vCPU.
REFERENCE_S = 0.009
#: least time between two speed samples.
INTERVAL_S = 0.1

_ARRAY = np.linspace(0.0, 1.0, 32)
_TABLE_SIZE = 300_000
_LOOKUPS = 8000
_table: dict[int, int] = {}
_keys: list[int] = []
_next = 0
_table_mb = 0.0


def _resident_mb() -> float:
    with Path("/proc/self/statm").open() as statm:
        return int(statm.read().split()[1]) * 4096 / 2**20


def _build_table() -> None:
    global _keys, _table_mb
    before = _resident_mb()
    _table.update((i, i) for i in range(_TABLE_SIZE))
    # every key once, in random order; each kernel run reads the next
    # _LOOKUPS of them, so its reads miss the caches of the run before
    _keys = random.Random(0).sample(range(_TABLE_SIZE), _TABLE_SIZE)
    _table_mb = _resident_mb() - before


def table_mb() -> float:
    """Resident memory (MB) the kernel's table adds to the process."""
    return _table_mb


def _kernel() -> float:
    global _next
    acc = 0.0
    small: dict[int, float] = {}
    x = _ARRAY
    for i in range(7000):
        k = i & 63
        small[k] = small.get(k, 0.0) + math.sqrt(i + 1.0)
        if i % 24 == 0:
            x = np.minimum(x * 1.0001 + 0.5, 1e6)
            acc += float(x.sum())
    total = 0
    for key in _keys[_next : _next + _LOOKUPS]:
        total += _table[key]
    _next = (_next + _LOOKUPS) % (_TABLE_SIZE - _LOOKUPS)
    return acc + sum(small.values()) + total


def kernel_seconds() -> float:
    """Host seconds of one kernel run, now."""
    if not _table:
        _build_table()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Sampler:
    """Host-speed samples over one pass; see :func:`tick`."""

    def __init__(self) -> None:
        #: ``perf_counter`` at the end of each sample, and its scale.
        self.at: list[float] = []
        self.scales: list[float] = []
        #: host seconds spent running the kernel.
        self.spent_s = 0.0

    def sample(self) -> None:
        """Time one kernel run now."""
        t0 = time.perf_counter()
        k = kernel_seconds()
        self.at.append(time.perf_counter())
        self.scales.append(REFERENCE_S / k)
        self.spent_s += self.at[-1] - t0

    def scale_over(self, start: float, end: float) -> float:
        """Scale for ``[start, end]``: mean of the samples around it.

        Those are the latest sample taken by ``start`` and the first
        taken after ``end`` (the last, when none is).
        """
        i = max(bisect.bisect_right(self.at, start) - 1, 0)
        j = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return (self.scales[i] + self.scales[j]) / 2

    def mean_scale(self) -> float:
        """Mean scale over the samples."""
        return sum(self.scales) / len(self.scales)


#: the sampler :func:`tick` feeds; the runner sets it around a pass.
active: Sampler | None = None


def tick() -> None:
    """Between two operations: sample the host speed if it is due.

    A no-op outside a measured pass.
    """
    if active is not None and (
        not active.at or time.perf_counter() - active.at[-1] >= INTERVAL_S
    ):
        active.sample()
