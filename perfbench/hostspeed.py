"""Host speed, measured with a fixed pure-Python reference loop.

On a virtual machine whose cores other tenants share, their load moves the
host's speed by tens of percent from minute to minute.
The benchmark samples the reference loop between cells over a whole run (and
around every set-up probe) and reports times scaled to a host on which the
loop takes :data:`NOMINAL_S`: ``scaled = measured * NOMINAL_S / reference``,
``reference`` being the median sample.  The loop shares no code with the
simulator, so a change to the program moves the scaled times exactly as it
moves the measured ones, while a host that is slower for everything moves
neither.

The loop is interpreter-bound like the simulator: a binary heap of small
tuples, a generator driven by ``send`` and dict updates.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time

#: Reference-loop seconds of the host the scaled times refer to (the loop's
#: median on a 2-core Xeon at 2.1 GHz under Python 3.11, quiet host).
NOMINAL_S = 0.020

_STEPS = 20_000


def _accumulator():
    total = 0
    while True:
        total += yield total


def reference_loop(steps: int = _STEPS) -> int:
    heap: list[tuple[int, int]] = []
    buckets: dict[int, int] = {}
    accumulate = _accumulator()
    next(accumulate)
    state = 12345
    for step in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (state % 1000, step))
        if len(heap) > 64:
            key, origin = heapq.heappop(heap)
            buckets[origin % 512] = buckets.get(origin % 512, 0) \
                + accumulate.send(key)
    return len(buckets)


def _timed_loop() -> float:
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def sample(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of the reference loop."""
    return statistics.median(_timed_loop() for _ in range(repeats))


class Cores:
    """The reference loop on ``cores`` cores at once, for workloads that
    keep that many processes busy: this process runs it while
    ``cores - 1`` helper processes (idle between samples) run it too, and
    a sample is the slowest of the loops, since the slowest core paces a
    lockstep.  Use as a context manager; it stops its helpers."""

    def __init__(self, cores: int = 1):
        self._helpers = [subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True) for _ in range(cores - 1)]

    def sample(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        own = _timed_loop()
        return max([own] + [float(helper.stdout.readline())
                            for helper in self._helpers])

    def __enter__(self) -> "Cores":
        return self

    def __exit__(self, *_exc) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            helper.wait(timeout=10)
            helper.stdout.close()


if __name__ == "__main__":
    # A helper of ``Cores``: one timed loop per line read.
    for _line in sys.stdin:
        print(_timed_loop(), flush=True)
