"""Machine-speed correction for shared, variable-speed hosts.

On a shared host the interpreter's speed drifts by 20% or more over
minutes, far more than the changes the benchmark must resolve, and a whole
run can fall in a slow phase.  So each run also times a fixed pure-Python
reference task between requests.  The task never touches adaptsel, so a
change to adaptsel cannot move it; only the host's speed can.  Every timing
metric is reported at nominal speed: each measured time is multiplied by
``NOMINAL_S / median(reference times measured around it)``.  The raw,
uncorrected figures are printed beside the corrected ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Duration of one reference task at nominal speed.  It sets the speed
# that corrected times refer to, and is a fixed constant, so corrected
# figures stay comparable across commits.
NOMINAL_S = 0.002

# Prebuilt once, so the task allocates nothing and the allocator's state
# left by the previous request cannot change its time.
_TABLE = {(i % 61, i % 7, i % 5): i * 0.5 for i in range(2000)}
_KEYS = list(_TABLE)


def _step(total: float, value: float) -> float:
    return total + value * 0.5


def reference_task() -> float:
    """Fixed interpreter work of the kinds adaptsel's exact paths do:
    tuple-keyed dict lookups, calls, branches and float arithmetic."""
    total = 0.0
    for _ in range(6):
        for key in _KEYS:
            total = _step(total, _TABLE[key])
            if key[1] == 3:
                total -= 1.0
    return total


def measure() -> float:
    """Seconds one reference task takes now.  The collector is paused so
    garbage left by the previous request is not collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_task()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale_now(samples: int = 5) -> float:
    """Factor from time measured now to time at nominal speed."""
    return NOMINAL_S / statistics.median(measure() for _ in range(samples))


def local_scales(durations: list[float], half: int = 2) -> list[float]:
    """Per-request factors to nominal speed, from the reference durations
    measured after each request.  The host switches between speeds within
    a second, so the factor uses only the nearest samples (the one just
    before a request, the one just after, and their neighbours), and their
    median, so that one interrupted sample does not count."""
    return [NOMINAL_S / statistics.median(durations[max(0, i - half):i + half + 1])
            for i in range(len(durations))]
