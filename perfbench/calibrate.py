"""A fixed piece of work that measures the machine's current speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  Each process times this loop next to what it
measures, and the benchmark scales its times to a machine on which the
loop takes ``REFERENCE_S``.  The loop is the benchmark's own code, so a
change to the program cannot move it.  It mixes the three kinds of work
the workloads do, weighted roughly as they are: mostly interpreter-bound
loops over small tuples, then numpy gathers whose bytes are hashed into a
dict, then big-integer additions.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds the loop takes on the reference machine.  Never change it:
#: every recorded figure is expressed in it.
REFERENCE_S = 0.063


def _interpreter() -> int:
    s = 0
    acc = []
    for i in range(180_000):
        acc.append((i, i & 7))
        s += i * i % 7
        if len(acc) > 64:
            acc.clear()
    return s


def _bigint() -> int:
    c = [1] + [0] * 400
    for part in range(1, 401, 2):
        for i in range(400, part - 1, -1):
            c[i] += c[i - part]
    return c[-1]


def _gather() -> int:
    x = np.arange(1 << 12)
    a, b = (x * 1237) % (1 << 12), (x * 2731 + 17) % (1 << 12)  # odd factors: permutations
    seen = {}
    for i in range(500):
        x = x[a] if i & 1 else x[b]
        seen[x.tobytes()] = i
        if len(seen) == 16:  # keep the loop's memory small next to the job's
            seen.clear()
    return len(seen)


def calibrate(rounds: int = 3) -> float:
    """Median seconds of one pass over the three kinds of work."""
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        _interpreter()
        _bigint()
        _gather()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def speed_factor(*seconds: float) -> float:
    """Factor that scales a time measured next to these calibrations."""
    return REFERENCE_S / statistics.mean(seconds)
