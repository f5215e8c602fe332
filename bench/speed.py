"""Host speed, read with a fixed reference kernel.

On a shared machine the same job can run at very different speeds for
seconds or minutes at a time, when other work contends for the core;
on a 2-vCPU x86_64 VM the same job took 1.6 to 1.9 times as long in
such phases.  A job's best time over a run only helps when the run
catches a quiet moment.  So the benchmark reads the host's speed with
this kernel between jobs and scales each execution to a host on which
the kernel takes REFERENCE_S.  The kernel is benchmark code and uses
the same kinds of work as monolc (hashing tuples and frozensets, dict
updates, Fraction arithmetic), so a change to monolc never changes it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# the kernel's time on an uncontended 2-vCPU x86_64 VM (CPython 3.11)
REFERENCE_S = 0.001
# job time between two readings
EVERY_S = 0.1


def _kernel() -> int:
    seen: dict = {}
    x, acc = 1, Fraction(0)
    for i in range(900):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = frozenset((x & 63, (x >> 6) & 63, (x >> 12) & 63))
        seen[key] = seen.get(key, 0) + 1
        if i % 8 == 0:
            acc += Fraction(x & 255, ((x >> 8) & 255) + 1)
    return len(seen) + acc.denominator


def reading() -> float:
    """Median of five kernel runs, in seconds: a job feels the host's
    typical speed over its run, not its best moment.  The cyclic
    collector is off meanwhile, so the size of the library's heap does
    not change the reading."""
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds measured between two readings, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
