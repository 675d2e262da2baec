"""The :class:`BlockDevice` base class all bundled device models build on.

``BlockDevice`` implements the full :class:`repro.devices.Device` protocol
(submission, statistics, tracing, preload) so concrete models only write
``_pipeline``, the generator that serves one request.  Workloads and
experiments are typed against the protocol, not this class -- a device need
not inherit from it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.host.io import IOKind, IORequest
from repro.sim.events import spawn_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Event, Simulator
    from repro.sim.trace import Tracer


@dataclass
class DeviceStats:
    """Cumulative counters every device keeps.

    All byte counters are host-visible bytes (before any device-internal
    amplification); device models add their own extended statistics on top.
    """

    reads_completed: int = 0
    writes_completed: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    flushes_completed: int = 0
    errors: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ios_completed(self) -> int:
        return self.reads_completed + self.writes_completed + self.flushes_completed


class BlockDevice(abc.ABC):
    """A block-addressable storage device attached to a simulator.

    Sub-classes implement :meth:`_pipeline`, a simulation process that
    performs one request, ends with ``self._finish(request)``, and returns
    the request.  The public entry point is :meth:`submit`, which validates
    the request, stamps its submit time, and returns the completion event
    (a :class:`~repro.sim.events.Process`).
    """

    def __init__(self, sim: "Simulator", capacity_bytes: int,
                 logical_block_size: int = 4096, name: str = "device"):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if logical_block_size <= 0 or capacity_bytes % logical_block_size != 0:
            raise ValueError(
                f"capacity {capacity_bytes} must be a multiple of the logical "
                f"block size {logical_block_size}")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.logical_block_size = logical_block_size
        self.name = name
        self.stats = DeviceStats()
        #: Request-path tracer; ``None`` (the default) keeps tracing free.
        self.tracer: Optional["Tracer"] = None

    # -- public API ---------------------------------------------------------
    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach a :class:`repro.sim.trace.Tracer` (``None`` detaches)."""
        self.tracer = tracer

    def submit(self, request: IORequest) -> "Event":
        """Submit ``request``; returns an event that succeeds with the request
        once the device has completed it.

        The request runs through the device's :meth:`_pipeline` in a pooled
        process.
        """
        self.validate(request)
        sim = self.sim
        request.submit_time = sim._now
        if self.tracer is not None:
            self.tracer.start(request, self.name)
        return spawn_process(sim, self._pipeline(request))

    def read(self, offset: int, size: int, **kwargs) -> "Event":
        """Submit a read of ``size`` bytes at ``offset``."""
        return self.submit(IORequest.read(offset, size, **kwargs))

    def write(self, offset: int, size: int, **kwargs) -> "Event":
        """Submit a write of ``size`` bytes at ``offset``."""
        return self.submit(IORequest.write(offset, size, **kwargs))

    def flush(self, **kwargs) -> "Event":
        """Submit a flush request (drain volatile buffers)."""
        return self.submit(IORequest.flush(**kwargs))

    def validate(self, request: IORequest) -> None:
        """Raise ``ValueError`` for requests outside the device's address space
        or not aligned to the logical block size."""
        if request.kind is IOKind.FLUSH:
            return
        if request.offset % self.logical_block_size != 0:
            raise ValueError(
                f"offset {request.offset} not aligned to {self.logical_block_size}")
        if request.size % self.logical_block_size != 0:
            raise ValueError(
                f"size {request.size} not aligned to {self.logical_block_size}")
        if request.offset + request.size > self.capacity_bytes:
            raise ValueError(
                f"request [{request.offset}, {request.end_offset}) exceeds "
                f"device capacity {self.capacity_bytes}")

    def preload(self, offset: int = 0, size: Optional[int] = None) -> None:
        """Precondition the device for read workloads; default is a no-op."""

    def describe(self) -> dict:
        """JSON-serialisable configuration + statistics summary."""
        return {
            "name": self.name,
            "kind": type(self).__name__,
            "capacity_bytes": self.capacity_bytes,
            "logical_block_size": self.logical_block_size,
            "ios_completed": self.stats.ios_completed,
            "bytes_read": self.stats.bytes_read,
            "bytes_written": self.stats.bytes_written,
        }

    # -- plumbing -----------------------------------------------------------
    @abc.abstractmethod
    def _pipeline(self, request: IORequest):
        """The generator :meth:`submit` turns into the completion process.

        A **flattened service pipeline**: one generator frame that serves
        the request (per-device constants precomputed at construction, no
        ``yield from`` trampoline on the hot path), calls
        ``self._finish(request)``, and returns the request.
        """

    def _finish(self, request: IORequest) -> None:
        """Completion bookkeeping shared by every pipeline: stamp the
        completion time, account statistics, close tracing, run hooks."""
        request.complete_time = self.sim._now
        stats = self.stats
        kind = request.kind
        if kind is IOKind.READ:
            stats.reads_completed += 1
            stats.bytes_read += request.size
        elif kind is IOKind.WRITE:
            stats.writes_completed += 1
            stats.bytes_written += request.size
        elif kind is IOKind.FLUSH:
            stats.flushes_completed += 1
        if self.tracer is not None:
            self.tracer.finish(request)
        cls = type(self)
        if cls.on_complete is not BlockDevice.on_complete:
            self.on_complete(request)

    def on_complete(self, request: IORequest) -> None:
        """Hook for sub-classes / instrumentation; default does nothing.

        Override in a *subclass* -- :meth:`_finish` dispatches the hook
        through the class (skipping the no-op default), so a per-instance
        ``device.on_complete = fn`` assignment is not seen.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"capacity={self.capacity_bytes // (1 << 20)}MiB>")
