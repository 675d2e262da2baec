"""A minimal constant-latency device.

:class:`LoopbackDevice` completes every request after a fixed service time,
optionally serialised through a bounded number of service slots.  It is the
smallest possible :class:`repro.devices.Device` implementation -- the kernel
microbenchmark uses it to measure request round-trips/sec through the full
submission path with no device-model physics in the way, and protocol tests
use it as a reference implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.host.device import BlockDevice
from repro.host.io import IORequest
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


class LoopbackDevice(BlockDevice):
    """Fixed-service-time device with optional service-slot contention."""

    def __init__(self, sim: "Simulator", capacity_bytes: int = 1 << 30,
                 service_time_us: float = 10.0,
                 service_slots: Optional[int] = None,
                 logical_block_size: int = 4096, name: str = "loopback"):
        super().__init__(sim, capacity_bytes, logical_block_size, name)
        if service_time_us < 0:
            raise ValueError(f"negative service time: {service_time_us}")
        self.service_time_us = float(service_time_us)
        self._slots = Resource(sim, service_slots) if service_slots else None

    def _pipeline(self, request: IORequest):
        # One generator frame for the whole slot -> service -> finish chain.
        slots = self._slots
        tracer = self.tracer
        if slots is not None:
            if tracer is not None:
                tracer.enter(request, "queue")
            yield slots.request()
        try:
            if tracer is not None:
                tracer.enter(request, "service")
            yield self.sim.timeout(self.service_time_us)
        finally:
            if slots is not None:
                slots.release()
        self._finish(request)
        return request

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": "loopback",
            "capacity_bytes": self.capacity_bytes,
            "service_time_us": self.service_time_us,
            "ios_completed": self.stats.ios_completed,
        }
