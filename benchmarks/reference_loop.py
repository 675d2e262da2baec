"""Frozen reference event loop: the kernel benchmark's yardstick.

A plain ``heapq`` + generator scheduler.  ``test_bench_kernel.py`` runs
each workload shape on it interleaved with the real kernel and gates the
*kernel / reference* rate ratio: both sides are pure-Python event loops on
the same interpreter and host, so the ratio cancels host speed.

**Do not change this file.**  Every committed kernel baseline is measured
against it; editing it invalidates all of them.

A process is a generator.  It yields a float to sleep that long, or a
callable ``command(generator)`` that arranges its own resumption (see
:meth:`ReferenceSlots.acquire`).
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush


class ReferenceLoop:
    """``(time, sequence, generator, value)`` entries on one binary heap."""

    def __init__(self):
        self.now = 0.0
        self.events = 0
        self._heap: list = []
        self._sequence = 0

    def schedule(self, generator, delay: float = 0.0, value=None) -> None:
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, generator, value))

    def run(self) -> None:
        heap = self._heap
        schedule = self.schedule
        while heap:
            self.now, _sequence, generator, value = heappop(heap)
            self.events += 1
            try:
                command = generator.send(value)
            except StopIteration:
                continue
            if command.__class__ is float:
                schedule(generator, command)
            else:
                command(generator)


class ReferenceSlots:
    """A counted resource with a FIFO wait queue."""

    def __init__(self, loop: ReferenceLoop, capacity: int):
        self.loop = loop
        self.capacity = capacity
        self.users = 0
        self.waiters: deque = deque()

    def acquire(self, generator) -> None:
        if self.users < self.capacity:
            self.users += 1
            self.loop.schedule(generator)
        else:
            self.waiters.append(generator)

    def release(self) -> None:
        if self.waiters:
            self.loop.schedule(self.waiters.popleft())
        else:
            self.users -= 1


# ---------------------------------------------------------------------------
# The benchmark shapes on the reference loop (twins of the kernel builders
# in test_bench_kernel.py; frozen with the loop)
# ---------------------------------------------------------------------------

def build_immediate(loop: ReferenceLoop, pairs: int = 25, iters: int = 800) -> None:
    for _ in range(pairs):
        slots = ReferenceSlots(loop, 1)

        def player(slots=slots):
            for _ in range(iters):
                yield slots.acquire
                slots.release()
                yield 0.0

        loop.schedule(player())
        loop.schedule(player())


def build_mixed(loop: ReferenceLoop, workers: int = 50, iters: int = 400) -> None:
    slots = ReferenceSlots(loop, 4)

    def worker():
        for _ in range(iters):
            yield slots.acquire
            yield 0.0
            slots.release()
            yield 1.0

    for _ in range(workers):
        loop.schedule(worker())


def build_timer(loop: ReferenceLoop, workers: int = 100, iters: int = 300) -> None:
    def worker(delay):
        for _ in range(iters):
            yield delay

    for index in range(workers):
        loop.schedule(worker(1.0 + (index % 7) * 0.5))


def run_roundtrips(loop: ReferenceLoop, io_count: int, queue_depth: int = 8,
                   slots: int = 4, service_us: float = 2.0,
                   blocks: int = 1 << 16) -> list[float]:
    """Closed-loop 4 KiB random reads against a slotted fixed-latency
    device; returns the per-request latencies."""
    device = ReferenceSlots(loop, slots)
    rng = random.Random(1)
    issued = [0]
    latencies: list[float] = []

    def serve(request, waiter):
        yield device.acquire
        yield service_us
        device.release()
        request[2] = loop.now
        loop.schedule(waiter, value=request)

    def submit(request):
        return lambda waiter: loop.schedule(serve(request, waiter))

    def worker():
        while issued[0] < io_count:
            issued[0] += 1
            request = yield submit([rng.randrange(blocks) * 4096, loop.now, None])
            latencies.append(request[2] - request[1])

    for _ in range(queue_depth):
        loop.schedule(worker())
    loop.run()
    return latencies
