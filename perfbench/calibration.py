"""How fast the host runs right now, from a fixed pure-Python kernel.

On the shared 2-vCPU machine this benchmark was built on, the same code
ran up to 1.8x slower for seconds to minutes at a time (neighbours on
the host; no steal time showed in ``/proc/stat``).  A whole 30 s sweep
could fall into one slow stretch, so no statistic over a single run's
own timings could remove it.

The kernel below never calls the program: it builds and sorts floats,
fills a dict and makes small tuples, the object-heavy Python the
analyses themselves run, with a working set of a few MB.  Timed between
measured operations, its median tells how slow the host was over that
stretch; a time scaled by ``REFERENCE_S / median kernel time`` is the
time the work would have taken at the reference speed.  Program changes
cannot move the kernel, so a slower program still reads slower.  Over
six 28 s sweep runs whose median kernel time ranged 18.9-27.8 ms, the
sweep's total time so scaled spread (quartile distance over median)
0.06, against 0.15 for the fastest measured pass.  Each workload runs
the kernel where nothing else is in flight: between sweep systems,
between rounds of requests, around set-up (:class:`Stopwatch`).

Caveat: work the program leaves running in the background (a thread or
process still busy after a call returns) slows the kernel too, and the
scaling would hide part of that cost.
"""

from __future__ import annotations

import random
import statistics
import time

#: The kernel's time on the reference machine in a quiet stretch,
#: rounded and frozen: scaled times read in seconds at that speed.
REFERENCE_S = 0.020

_ITEMS = 30_000
_BUCKETS = 20_011


def _kernel() -> float:
    rng = random.Random(0)
    values = [rng.random() for _ in range(_ITEMS)]
    table: dict[int, float] = {}
    for index, value in enumerate(values):
        key = (index * 7919) % _BUCKETS
        table[key] = table.get(key, 0.0) + value
    ordered = sorted(values)
    rows = [(value, index, str(index)) for index, value in enumerate(ordered[: _ITEMS // 3])]
    return max(row[0] * row[1] for row in rows) + len(table)


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def scale(kernels: list[float]) -> float:
    """Factor taking times measured while ``kernels`` were taken to the
    reference speed (the median kernel time stands for the stretch)."""
    return REFERENCE_S / statistics.median(kernels)


class Stopwatch:
    """Times a ``with`` block, measured and at the reference speed.

    Used for set-up, which no round structure brackets: the kernel runs
    ``KERNELS`` times right before and right after the block.
    """

    KERNELS = 2

    def __enter__(self) -> "Stopwatch":
        self.before = [kernel_s() for _ in range(self.KERNELS)]
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.measured = time.perf_counter() - self.started
        after = [kernel_s() for _ in range(self.KERNELS)]
        self.reference = self.measured * scale(self.before + after)
