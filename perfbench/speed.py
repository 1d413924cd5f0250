"""Machine speed, measured around every timed unit of work.

On a shared two-core host the same pass runs anywhere from 1.0x to 1.9x
its fastest time, in slow and fast phases that last from seconds to
minutes. The phases move a fixed pure-Python loop by the same factor, so
the benchmark times that loop before and after each set-up and pass and
reports the unit's time scaled to a fixed loop time:

    scaled = wall * REFERENCE_S / reference time around the unit

A scaled time is in seconds of a machine on which the loop takes
REFERENCE_S. The loop does not call fairsched, so a change to the program
moves the scaled time by exactly the factor it moves the wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Median reference time on the machine baseline.json was measured on.
REFERENCE_S = 0.0065


def reference_work() -> float:
    """Fixed work shaped like the decoder's inner loop: list reads and
    writes, float division, comparisons."""
    n = 1500
    load = [10.0 + (i * 37 % 91) for i in range(n)]
    pred = [(i * 7919) % i if i else 0 for i in range(n)]
    finish = [0.0] * n
    free = [0.0] * 6
    for rep in range(16):
        for i in range(n):
            r = (i + rep) % 6
            ready = finish[pred[i]] + load[i] / 1000.0
            start = free[r] if free[r] > ready else ready
            finish[i] = start + load[i] / (r + 1)
            free[r] = finish[i]
    return finish[-1]


def reference_seconds(repeats: int = 7) -> float:
    """Median time of `repeats` runs of reference_work()."""
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        reference_work()
        samples.append(perf_counter() - started)
    return statistics.median(samples)
