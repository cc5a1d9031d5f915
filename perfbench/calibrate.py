"""Host speed, from a fixed pure-Python kernel timed between passes.

The shared VM this benchmark was written on runs for tens of seconds to
minutes at a time at one of two speeds about 1.8x apart, in wall and in
CPU time alike, so whole runs land in one mode or the other. Passes are
therefore also reported in reference seconds: a pass's wall time times
``REF_S`` over the kernel's time measured just before and just after it.
The kernel does not use the program, so a change to the program moves the
pass time and not the kernel.
"""
from __future__ import annotations

import statistics
import time

#: the kernel's time on the 2-vCPU Xeon VM in its fast mode; a reference
#: second is a wall second at that host speed
REF_S = 0.016
#: kernel runs per measurement; their median is the measurement
REPEATS = 3


def _build(depth: int, i: int):
    return (i,) if depth == 0 else (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _walk(t, acc: dict) -> int:
    if len(t) == 1:
        k = t[0] % 97
        acc[k] = acc.get(k, 0) + 1
        return 1
    return _walk(t[0], acc) + _walk(t[1], acc)


def kernel() -> int:
    """Calls, recursion, tuples and dict updates, as the program's evaluator
    and rewriter do; about 16 ms on that VM in its fast mode."""
    acc: dict = {}
    return sum(_walk(_build(10, 1), acc) for _ in range(48))


def measure() -> float:
    """Median wall time of REPEATS kernel runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
