"""Host-speed reference: end-to-end times in seconds at a fixed reference speed.

The benchmark's host is a few vCPUs of a shared machine whose speed
swings by up to ~1.7x in phases of tens of seconds to minutes; a fixed
pure-Python loop then takes anywhere from ~11 ms to ~19 ms. Wall times
of the same code measured in two such phases differ by more than any
useful bound, and longer runs do not help because a phase can outlast a
run. So every pipeline step is bracketed by a short reference probe, and
its wall time is rescaled to the speed at which the probe takes
``REFERENCE_S``:

    step_s = wall_s * REFERENCE_S / sqrt(probe_before_s * probe_after_s)

The probe is a fixed workload of this file (dict updates, a keyed sort,
string formatting: the interpreter work kgslice itself does), so a
change to kgslice moves the step times and never the probe. Raw wall
times are kept next to the rescaled ones in each run's record.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# The probe's median time on a 2-vCPU x86_64 host (Python 3.11.7) in a
# fast phase; any fixed value works, this one keeps step times close to
# wall seconds on that host.
REFERENCE_S = 0.0110
PROBE_CALLS = 3


def _probe_once() -> int:
    counts: dict[int, int] = {}
    for i in range(40000):
        k = (i * 7919) % 50021
        counts[k] = counts.get(k, 0) + 1
    keys = sorted(counts, key=lambda k: -k)
    return len("".join([f"<{k}>" for k in keys[:5000]])) + len(keys)


def probe() -> float:
    """Median seconds of a few calls of the fixed reference workload."""
    times = []
    for _ in range(PROBE_CALLS):
        t = perf_counter()
        _probe_once()
        times.append(perf_counter() - t)
    return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor from wall seconds to seconds at reference speed."""
    return REFERENCE_S / math.sqrt(before_s * after_s)
