"""Golden fixtures: simulator behaviour recorded as data.

Two committed files under ``tests/golden/`` pin the exact behaviour of the
kernel and of every device request path:

* ``device_requests.json`` -- for each device family x workload x seed,
  with and without a :class:`~repro.sim.trace.Tracer` attached, a SHA-256
  digest of the per-request ``(id, kind, offset, size, submit_time,
  complete_time)`` sequence in completion order, plus the device's stat
  counters and the kernel's scheduled-event count.  Traced cells also
  digest every retained stage span.
* ``kernel_traces.json`` -- the exact trace of every trace-identity
  workload in ``test_sim_corners.py`` and ``test_sim_wheel.py``.

The fixtures were recorded while three kernels (heap-only, pre-wheel, and
timer wheel) and two request paths per device still existed and agreed on
every entry; they are the oracle those duplicates used to provide.

Re-record only when a change is *meant* to alter simulated behaviour::

    PYTHONPATH=src python tests/golden_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

from repro.devices import create_device
from repro.host.io import IOKind, IORequest, MiB
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.workload.fio import FioJob, run_job

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEVICE_REQUESTS = "device_requests.json"
KERNEL_TRACES = "kernel_traces.json"

DEVICE_FAMILIES = ("SSD", "ESSD-1", "ESSD-2", "LOOP")
#: Fixture label -> (FIO pattern name, write ratio).
WORKLOADS = {
    "randread": ("randread", None),
    "randwrite": ("randwrite", None),
    "seqread": ("read", None),
    "randrw": ("randrw", 0.3),
}
SEEDS = (1, 2)

_CAPACITY = {"SSD": 128 * MiB, "ESSD-1": 256 * MiB, "ESSD-2": 256 * MiB,
             "LOOP": 64 * MiB}
_IO_COUNT = 240


def canonical(value: Any) -> Any:
    """The JSON form of ``value`` (tuples become lists), for comparisons
    against loaded fixtures."""
    return json.loads(json.dumps(value))


def load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


#: The two schedules of the kernel every trace must match on: the default
#: timer wheel, and a zero wheel horizon that sends every delayed event down
#: the heap cascade (the pre-wheel schedule).
SCHEDULES = {"fast": {}, "prewheel": {"wheel_horizon_us": 0.0}}


def assert_trace_matches(module: str, workloads: dict, name: str) -> Any:
    """Run trace workload ``name`` of test module ``module`` on every
    schedule, compare each trace with the recorded one, and return it."""
    workload, kwargs = workloads[name]
    expected = load(KERNEL_TRACES)[f"{module}/{name}"]
    for schedule in SCHEDULES.values():
        trace = workload(Simulator(**{**kwargs, **schedule}))
        assert canonical(trace) == expected, (name, schedule)
    return expected


def _build_device(sim: Simulator, family: str, seed: int):
    if family == "LOOP":
        # Two service slots so requests queue and the slot path is live.
        return create_device(sim, "LOOP", capacity_bytes=_CAPACITY["LOOP"],
                             service_time_us=3.0, service_slots=2)
    return create_device(sim, family, capacity_bytes=_CAPACITY[family],
                         seed=seed)


def _digest_requests(requests: list[IORequest]) -> str:
    base = min(request.request_id for request in requests)
    digest = hashlib.sha256()
    for request in requests:
        digest.update(
            f"{request.request_id - base} {request.kind.value} "
            f"{request.offset} {request.size} "
            f"{request.submit_time.hex()} {request.complete_time.hex()}\n"
            .encode())
    return digest.hexdigest()


def _digest_spans(tracer: Tracer, base: int) -> str:
    digest = hashlib.sha256()
    for record in tracer.spans:
        spans = [(stage, start.hex(), end.hex())
                 for stage, start, end in record["spans"]]
        digest.update(json.dumps(
            [record["request_id"] - base, record["kind"], spans]).encode())
    return digest.hexdigest()


def _cell(sim: Simulator, device, requests: list[IORequest],
          tracer: Tracer | None) -> dict:
    stats = device.stats
    cell = {
        "requests": len(requests),
        "digest": _digest_requests(requests),
        "stats": [stats.reads_completed, stats.writes_completed,
                  stats.flushes_completed, stats.bytes_read,
                  stats.bytes_written],
        "scheduled_events": sim.scheduled_events,
        "now": sim.now.hex(),
    }
    if tracer is not None:
        base = min(request.request_id for request in requests)
        cell["spans"] = _digest_spans(tracer, base)
    return cell


def run_fio_cell(family: str, workload: str, seed: int,
                 traced: bool) -> dict:
    """One FIO job (QD8, 8 KiB) against a preloaded device."""
    sim = Simulator()
    device = _build_device(sim, family, seed)
    device.preload()
    tracer = Tracer(sim, keep_spans=_IO_COUNT) if traced else None
    device.set_tracer(tracer)
    pattern, write_ratio = WORKLOADS[workload]
    requests: list[IORequest] = []
    job = FioJob(pattern=pattern, io_size=8192, queue_depth=8,
                 io_count=_IO_COUNT, write_ratio=write_ratio, seed=seed)
    run_job(sim, device, job,
            on_complete=lambda request, _now: requests.append(request))
    return _cell(sim, device, requests, tracer)


def run_chunked_cell(family: str, traced: bool) -> dict:
    """Writes above the ESSD chunk size (the multi-chunk dispatch path),
    flushes, trims, and reads, racing a small-write stream."""
    sim = Simulator()
    device = _build_device(sim, family, 1)
    device.preload()
    tracer = Tracer(sim, keep_spans=256) if traced else None
    device.set_tracer(tracer)
    requests: list[IORequest] = []
    large = 5 * MiB  # above both ESSD chunk sizes (512 KiB, 2 MiB)

    def submit(request: IORequest):
        done = yield device.submit(request)
        requests.append(done)

    def bulk():
        for index in range(3):
            offset = index * 8 * MiB + 4096
            yield from submit(IORequest(IOKind.WRITE, offset, large))
            yield from submit(IORequest.flush())
            yield from submit(IORequest(IOKind.READ, offset, large))
            yield from submit(IORequest(IOKind.TRIM, offset, 64 * 1024))

    def small(start: int):
        for index in range(24):
            yield from submit(
                IORequest(IOKind.WRITE, start + index * 8192, 8192))
            if index % 8 == 7:
                yield from submit(IORequest.flush())

    sim.process(bulk())
    sim.process(small(40 * MiB))
    sim.process(small(48 * MiB))
    sim.run()
    return _cell(sim, device, requests, tracer)


def device_cells() -> dict[str, Callable[[], dict]]:
    """Every device-fixture cell, keyed by its fixture name."""
    cells: dict[str, Callable[[], dict]] = {}
    for family in DEVICE_FAMILIES:
        for traced in (False, True):
            suffix = "traced" if traced else "plain"
            for workload in WORKLOADS:
                for seed in SEEDS:
                    cells[f"{family}/{workload}/seed{seed}/{suffix}"] = (
                        lambda f=family, w=workload, s=seed, t=traced:
                        run_fio_cell(f, w, s, t))
            cells[f"{family}/chunked-flush/{suffix}"] = (
                lambda f=family, t=traced: run_chunked_cell(f, t))
    return cells


def kernel_trace_workloads() -> dict[str, tuple[Callable, dict]]:
    """``name -> (workload(sim) -> trace, Simulator kwargs)`` from the
    kernel test modules (importable: they sit next to this file)."""
    import test_sim_corners
    import test_sim_wheel
    workloads = {}
    for module in (test_sim_corners, test_sim_wheel):
        for name, entry in module.TRACE_WORKLOADS.items():
            workloads[f"{module.__name__}/{name}"] = entry
    return workloads


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    devices = {name: cell() for name, cell in device_cells().items()}
    (GOLDEN_DIR / DEVICE_REQUESTS).write_text(
        json.dumps(devices, indent=1, sort_keys=True) + "\n")
    traces = {name: canonical(workload(Simulator(**kwargs)))
              for name, (workload, kwargs)
              in kernel_trace_workloads().items()}
    (GOLDEN_DIR / KERNEL_TRACES).write_text(
        json.dumps(traces, sort_keys=True) + "\n")
    print(f"recorded {len(devices)} device cells and {len(traces)} "
          f"kernel traces under {GOLDEN_DIR}")


if __name__ == "__main__":
    record()
