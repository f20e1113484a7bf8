"""A fixed pure-Python loop that shows how fast the machine runs Python right now.

On a shared host the same code runs up to 20% faster or slower for tens of
seconds at a time, so two runs of one commit can differ by more than a change
worth measuring. The benchmark runs this loop for a small share of each
timed call's own time, right after the call, and divides the call's time by
the slowdown the loop shows in the same window. A time is then reported as
it would have been on a machine that runs one loop in ``NOMINAL_S``.

The loop mixes recursion, set and dict work, and frozenset building: the
kinds of work caseplan's mapping and search do. It shares no code with
caseplan, so a change to caseplan does not change it, and it runs with the
garbage collector off, so the caller's heap does not slow it.
"""

from __future__ import annotations

import gc
from time import perf_counter

NOMINAL_S = 0.9e-3  # one loop() on a 2-vCPU Intel Xeon VM, Python 3.11.7
SHARE = 0.03  # loop time per second of measured call time


def _queens(n: int, row: int, cols: set, up: set, down: set) -> int:
    if row == n:
        return 1
    total = 0
    for col in range(n):
        if col not in cols and row + col not in up and row - col not in down:
            cols.add(col)
            up.add(row + col)
            down.add(row - col)
            total += _queens(n, row + 1, cols, up, down)
            cols.discard(col)
            up.discard(row + col)
            down.discard(row - col)
    return total


def loop() -> int:
    total = _queens(6, 0, set(), set(), set())
    seen: dict[frozenset, int] = {}
    for i in range(300):
        key = frozenset(range(i % 17, i % 17 + 12))
        seen[key] = seen.get(key, 0) + 1
        total += len(key & {3, 5, 7, 11})
    return total


def sample(budget_s: float) -> tuple[float, int]:
    """Run ``loop`` once, then again until ``budget_s`` has passed; return (seconds, loops)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        loops = 0
        while True:
            loop()
            loops += 1
            spent = perf_counter() - began
            if spent >= budget_s:
                return spent, loops
    finally:
        if enabled:
            gc.enable()
