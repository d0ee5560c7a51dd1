"""Machine-speed reference: a fixed kernel timed next to the workload.

On a shared VM the same code runs up to about 1.7 times slower for spells of
seconds to minutes, and a spell can cover a whole run.  Python code of every
kind slows by nearly the same factor, so the benchmark times this kernel
(rational arithmetic, like the package's, but none of the package's code)
before and after every pass and scales the pass's latencies by
``REFERENCE_SECONDS / measured``: timings then read as at a fixed machine
speed, while a change to the package moves them as much as before.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The kernel's time on a 2-vCPU x86 VM (Python 3.11) in its fast state; the
# scale of every normalised timing, not a limit.
REFERENCE_SECONDS = 0.003


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    return acc


def reference_seconds(repeats: int = 3) -> float:
    """Best time of the kernel over ``repeats`` back-to-back runs, with the
    cyclic garbage collector off so the size of the heap does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()
