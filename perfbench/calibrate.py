"""A fixed CPU probe that measures how fast the host runs Python right now.

On a shared host the speed of one core drifts by a third or more over
stretches of seconds to minutes, and a whole benchmark run can fall inside
one slow stretch.  The benchmark pins itself and its solves to one core,
runs ``probe`` before and after every timed interval, and scales the
interval by ``REFERENCE_PROBE_S`` over the probes' mean.  Times are then
seconds on a core where the probe takes ``REFERENCE_PROBE_S``, about a
quiet core of the 2-vCPU Xeon VM the benchmark was written on.

The probe is the benchmark's own code and never calls the solver, so a
change to the solver cannot change it.  It does the kinds of work the
solver does: format and parse text records, sort tuples, update a dict.
"""

from __future__ import annotations

import os
import random
import time

REFERENCE_PROBE_S = 0.2
PROBE_RECORDS = 40_000


def pin_to_one_cpu() -> int:
    """Keep this process and the processes it starts on one core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Wall time of a fixed piece of pure-Python work, in seconds."""
    rng = random.Random(7)
    t0 = time.perf_counter()
    records = [(rng.randrange(1 << 20), rng.randrange(1 << 20), i)
               for i in range(PROBE_RECORDS)]
    lines = ["%d %d %d" % r for r in records]
    parsed = sorted(tuple(int(x) for x in line.split()) for line in lines)
    totals: dict[int, int] = {}
    for a, b, _ in parsed:
        totals[a & 1023] = totals.get(a & 1023, 0) + b
    return time.perf_counter() - t0
