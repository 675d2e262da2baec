"""The :class:`Device` protocol every simulated storage device satisfies.

The protocol is the single submission contract between the three layers of
the stack: workloads (:mod:`repro.workload`) drive any object that
implements it, the sweep subsystem (:mod:`repro.experiments`) builds devices
only through the :mod:`repro.devices.registry`, and the kernel
(:mod:`repro.sim`) neither knows nor cares what a device is.

A device must provide:

* ``submit(request) -> Event`` -- accept an :class:`~repro.host.io.IORequest`
  and return an event that succeeds with the completed request;
* ``describe() -> dict`` -- a JSON-serialisable summary of configuration and
  runtime statistics;
* ``stats`` -- cumulative :class:`~repro.host.device.DeviceStats` counters;
* ``preload()`` -- precondition the address space for read workloads (no-op
  where meaningless);
* ``set_tracer(tracer)`` -- attach a :class:`repro.sim.trace.Tracer` (pass
  ``None`` to detach).

:class:`repro.host.BlockDevice` implements the whole contract, so concrete
models (the local SSD, the elastic SSD, the loopback device) only write
``_pipeline``, the generator that serves one request and ends in
``self._finish(request)``.  Third-party devices need not inherit from it -- anything that
quacks per this protocol works end to end, including through
``python -m repro.experiments run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.device import DeviceStats
    from repro.host.io import IORequest
    from repro.sim import Event
    from repro.sim.trace import Tracer


@runtime_checkable
class Device(Protocol):
    """Structural type of a simulated storage device (see module docstring)."""

    name: str
    capacity_bytes: int
    logical_block_size: int
    stats: "DeviceStats"

    def submit(self, request: "IORequest") -> "Event":
        """Submit a request; the returned event succeeds with the completed
        request."""
        ...  # pragma: no cover - protocol stub

    def describe(self) -> dict:
        """JSON-serialisable configuration + runtime statistics summary."""
        ...  # pragma: no cover - protocol stub

    def preload(self, offset: int = 0, size: Optional[int] = None) -> None:
        """Precondition ``[offset, offset+size)`` for read workloads."""
        ...  # pragma: no cover - protocol stub

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach (or detach, with ``None``) a request-path tracer."""
        ...  # pragma: no cover - protocol stub
