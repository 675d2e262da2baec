"""Per-layer timing from outside the program: wrappers around public callables.

:class:`LayerTracer` replaces a public callable, under the name its callers
bind, with a wrapper that records a span around the call.  A layer's *self
time* is the time its spans took minus the time of the wrapped spans they
contain, so the self times of one process never overlap, and the traced wall
time minus their sum is the residual ``other``.

Shard workers of a process transport are forked from the benchmark process,
so they inherit the wrappers.  A forked worker starts its own books on its
first span and writes them to ``dump_dir`` when its shard is collected;
:meth:`LayerTracer.worker_books` reads them back.  Worker self times run in
parallel with the coordinator and are kept apart from its books.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

_MISSING = object()

#: Layer names that simulate: their self time is the kernel plus the device
#: request paths (``run_job`` runs the simulator on sweep cells,
#: ``ShardWorker.advance`` on fleet shards).
SIMULATION_LAYERS = ("workload.run_job", "cluster.advance")


class LayerTracer:
    """Span books for one process: self seconds per layer, plus counters
    filled by the wrappers' hooks."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self._pid = os.getpid()
        self._patches: list[tuple[Any, str, Any]] = []
        self._reset()

    def _reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        #: Open spans: the seconds of wrapped spans each one contains.
        self._stack: list[list[float]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable,
             hook: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` with a span of ``layer`` around each call.  ``hook(tracer,
        args, kwargs, result, self_seconds)`` runs after a call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                # A forked shard worker: the books it inherited belong to
                # the coordinator.
                tracer._pid = os.getpid()
                tracer._reset()
                tracer._forked = True
            frame = [0.0]
            tracer._stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._stack.pop()
                own = elapsed - frame[0]
                tracer.self_s[layer] += own
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if hook is not None:
                hook(tracer, args, kwargs, result, own)
            return result

        return traced

    def patch(self, owner: Any, name: str, layer: str,
              hook: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.name`` (a module global or a class attribute)
        with its traced version until :meth:`uninstall`."""
        own = vars(owner).get(name, _MISSING)
        self._patches.append((owner, name, own))
        setattr(owner, name, self.wrap(layer, getattr(owner, name), hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def take(self) -> dict[str, Any]:
        """The books so far, emptied."""
        books = {"self_s": dict(self.self_s),
                 "counters": dict(self.counters)}
        self._reset()
        return books

    # -- forked shard workers ----------------------------------------------

    _forked = False

    def dump_worker_books(self) -> None:
        """Write a forked worker's books to ``dump_dir`` (no-op in the
        coordinator process)."""
        if not self._forked:
            return
        path = self.dump_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(self.take()))

    def worker_books(self) -> list[dict[str, Any]]:
        """Read and delete the books forked workers have written."""
        books = []
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            books.append(json.loads(path.read_text()))
            path.unlink()
        return books


# ---------------------------------------------------------------------------
# The wrapped entry points of each layer
# ---------------------------------------------------------------------------

def _count_miss(tracer, args, kwargs, result, own) -> None:
    if result is None:
        tracer.counters["sweep.cache_misses"] += 1


def _count_round_trip(tracer, args, kwargs, result, own) -> None:
    _outbound, _peek, ran = result
    tracer.counters["transport.round_trips"] += 1
    if ran:
        tracer.counters["transport.busy_round_trips"] += 1


def _dump_worker(tracer, args, kwargs, result, own) -> None:
    tracer.dump_worker_books()


def _simulated(tracer, args, kwargs, result, own) -> None:
    """After ``run_job`` ran its simulator (sweep cells): charge the
    simulation to the device family and count its kernel events."""
    if not kwargs.get("run", True) or (len(args) > 3 and not args[3]):
        return  # fleet shards only schedule their jobs here
    from repro.ebs.essd import EssdDevice
    from repro.ssd.ssd import SsdDevice

    sim, device = args[0], args[1]
    family = "ssd" if isinstance(device, SsdDevice) \
        else "ebs" if isinstance(device, EssdDevice) else "other"
    tracer.counters["sim.events"] += sim.scheduled_events
    tracer.counters[f"{family}.events"] += sim.scheduled_events
    tracer.counters[f"{family}.ios"] += result.ios_completed
    tracer.counters[f"{family}.request_s"] += own


def install(tracer: LayerTracer) -> None:
    """Wrap the public callables of every layer the workloads exercise."""
    import repro.cluster.coordinator as coordinator
    import repro.devices as devices
    import repro.experiments.common as common
    import repro.experiments.sweep as sweep
    import repro.workload.fio as fio
    from repro.cluster.shard import ShardWorker
    from repro.cluster.transport import InProcessTransport, SharedMemoryTransport
    from repro.ebs.essd import EssdDevice
    from repro.metrics.latency import LatencyRecorder
    from repro.ssd.ssd import SsdDevice

    tracer.patch(sweep, "run_cell", "sweep.cell_overhead")
    tracer.patch(sweep.SweepCache, "load", "sweep.cache", _count_miss)
    tracer.patch(sweep.SweepCache, "store", "sweep.cache")
    tracer.patch(devices, "create_device", "devices.build")
    tracer.patch(common, "create_device", "devices.build")
    tracer.patch(SsdDevice, "preload", "ssd.preload")
    tracer.patch(EssdDevice, "preload", "ebs.preload")
    tracer.patch(common, "run_job", "workload.run_job", _simulated)
    tracer.patch(fio, "run_job", "workload.run_job", _simulated)
    tracer.patch(LatencyRecorder, "summary", "metrics.summary")
    tracer.patch(coordinator, "partition_topology", "cluster.partition")
    tracer.patch(coordinator, "create_transport", "transport.init")
    tracer.patch(coordinator, "merge_shard_payloads", "cluster.merge")
    tracer.patch(ShardWorker, "__init__", "cluster.build")
    tracer.patch(ShardWorker, "advance", "cluster.advance")
    tracer.patch(ShardWorker, "collect", "cluster.collect", _dump_worker)
    for transport in (InProcessTransport, SharedMemoryTransport):
        tracer.patch(transport, "post", "transport.post")
        tracer.patch(transport, "wait", "transport.wait", _count_round_trip)
        tracer.patch(transport, "collect_all", "transport.collect")
        tracer.patch(transport, "close", "transport.close")
