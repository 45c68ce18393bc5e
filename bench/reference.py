"""A fixed reference work that measures how fast the processor runs right now.

On a shared virtual machine the processor's speed changes within seconds:
other guests on the same host slow it, and the slowdown shows in this
thread's CPU time as much as in wall time. The benchmark runs this work just
before every timed call and scales the call's time by how long the work took,
so a call is reported at one fixed speed: the speed at which the work takes
REFERENCE_SECONDS. The work is plain Python of the kind the simulator does
(seeded draws, a heap of small objects, dict counts, small JSON records) and
calls nothing from crossguard, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time

# The work's typical time on a 2-vCPU shared virtual machine with Python 3.11.7.
# Scaled times are host seconds at that speed.
REFERENCE_SECONDS = 0.0018
ITEMS = 320


class _Item:
    __slots__ = ("t", "node", "x")

    def __init__(self, t: int, node: int, x: float) -> None:
        self.t, self.node, self.x = t, node, x


def work() -> int:
    rng = random.Random(11)
    heap: list[tuple] = []
    seen: dict[int, int] = {}
    written = 0
    for i in range(ITEMS):
        item = _Item(i, i % 31, rng.random())
        heapq.heappush(heap, (item.x, i, item))
        seen[item.node] = seen.get(item.node, 0) + 1
        if len(heap) > 20:
            _, _, out = heapq.heappop(heap)
            written += len(json.dumps({"t": out.t, "node": out.node, "x": out.x}))
    return written


def timed() -> float:
    """Thread CPU seconds of one run of the work.

    The collector is off while it runs, so a collection of the program's
    objects is never charged to the reference; the work frees all it builds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        work()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, reference_seconds: float) -> float:
    """`seconds` measured while the work took `reference_seconds`, at the fixed speed."""
    return seconds * REFERENCE_SECONDS / reference_seconds
