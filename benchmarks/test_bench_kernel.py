"""Kernel microbenchmark: events/sec and request round-trips/sec.

Measures the simulation kernel against the frozen reference loop in
``benchmarks/reference_loop.py`` (a plain heapq + generator scheduler) on
four workloads:

* ``immediate`` -- resource ping-pong plus zero-delay timeouts: pure
  immediately-succeeding bookkeeping events (the zero-delay deque and
  object pools).
* ``mixed`` -- the device-model shape: grants, zero-delay relays, and
  non-zero service timeouts interleaved.
* ``timer`` -- pure non-zero timeouts: the timer wheel's target domain
  (same-deadline timeouts land in O(1) wheel slots instead of paying a
  heap push each).
* ``roundtrip`` -- full ``IORequest`` round trips through a
  :class:`LoopbackDevice` behind the FIO runner: the whole submission path
  (pooled submission processes, the flattened device pipeline, the
  hoisted worker loop), against the reference loop's minimal closed-loop
  roundtrip.

Kernel and reference runs interleave in one process and the best of each
is kept, so the *kernel / reference* ratio cancels host speed.  Results go
to ``BENCH_kernel.json`` at the repository root, and a per-shape table to
``BENCH_kernel_table.md``.  ``benchmarks/compare_bench.py`` gates the
ratios against the committed per-interpreter baselines under
``benchmarks/baselines/`` (>10% regression fails); the in-test floors
below only catch a wholesale regression on any interpreter.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from benchmarks import reference_loop
from repro.devices import LoopbackDevice
from repro.sim import Resource, Simulator
from repro.workload.fio import FioJob, run_job

_REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = _REPO_ROOT / "BENCH_kernel.json"
TABLE = _REPO_ROOT / "BENCH_kernel_table.md"

#: Timing repetitions per (workload, loop); kernel/reference runs
#: interleave and the best of each is recorded, so host-speed drift during
#: the benchmark hits both loops instead of skewing the ratio.
REPEATS = 15

#: Each in-test floor is this fraction of its committed py3.11 baseline
#: ratio -- the fractions the earlier fast/legacy speedup floors kept of
#: their baselines.
FLOOR_FRACTIONS = {"immediate": 2.0 / 2.746, "mixed": 1.5 / 2.66,
                   "timer": 1.5 / 2.651, "roundtrip": 1.7 / 2.106}

#: In-test floors on the kernel / reference ratios (baseline x fraction).
#: They run on every interpreter and only catch a wholesale regression;
#: compare_bench.py holds the 10% band against the committed baselines.
FLOORS = {"immediate": 0.673, "mixed": 0.449, "timer": 0.482, "roundtrip": 0.392}


def _timed(run) -> float:
    """CPU seconds of ``run()`` with the cyclic GC paused: time other
    processes take from this one, and collections triggered by whatever
    ran before, stay out of the ratio."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        run()
        return time.process_time() - started
    finally:
        gc.enable()


def _kernel_rate(build) -> float:
    sim = Simulator()
    build(sim)
    elapsed = _timed(sim.run)
    return sim.scheduled_events / elapsed


def _reference_rate(build) -> float:
    loop = reference_loop.ReferenceLoop()
    build(loop)
    elapsed = _timed(loop.run)
    return loop.events / elapsed


def _events_per_sec(build, reference_build) -> tuple[float, float]:
    """Best (kernel, reference) events/sec over interleaved repetitions."""
    kernel = reference = 0.0
    for _ in range(REPEATS):
        kernel = max(kernel, _kernel_rate(build))
        reference = max(reference, _reference_rate(reference_build))
    return kernel, reference


def _build_immediate(sim: Simulator, pairs: int = 25, iters: int = 800) -> None:
    """Resource handoff ping-pong: every event is immediately succeeding."""
    for _ in range(pairs):
        resource = Resource(sim, capacity=1)

        def player(resource=resource):
            for _ in range(iters):
                yield resource.request()
                resource.release()
                yield sim.timeout(0)

        sim.process(player())
        sim.process(player())


def _build_mixed(sim: Simulator, workers: int = 50, iters: int = 400) -> None:
    """Grants + zero-delay relays + non-zero service timeouts (device shape)."""
    resource = Resource(sim, capacity=4)

    def worker():
        for _ in range(iters):
            yield resource.request()
            yield sim.timeout(0)
            resource.release()
            yield sim.timeout(1.0)

    for _ in range(workers):
        sim.process(worker())


def _build_timer(sim: Simulator, workers: int = 100, iters: int = 300) -> None:
    """Pure timers: non-zero delays on a handful of shared deadlines."""
    def worker(delay):
        for _ in range(iters):
            yield sim.timeout(delay)

    for index in range(workers):
        sim.process(worker(1.0 + (index % 7) * 0.5))


SHAPES = {
    "immediate": (_build_immediate, reference_loop.build_immediate),
    "mixed": (_build_mixed, reference_loop.build_mixed),
    "timer": (_build_timer, reference_loop.build_timer),
}


def _kernel_roundtrip_rate(io_count: int) -> float:
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=1 << 28,
                            service_time_us=2.0, service_slots=4)
    job = FioJob(pattern="randread", io_size=4096, queue_depth=8,
                 io_count=io_count)
    results = []
    elapsed = _timed(lambda: results.append(run_job(sim, device, job)))
    assert results[0].ios_completed == io_count
    return io_count / elapsed


def _reference_roundtrip_rate(io_count: int) -> float:
    loop = reference_loop.ReferenceLoop()
    results = []
    elapsed = _timed(lambda: results.append(
        reference_loop.run_roundtrips(loop, io_count)))
    assert len(results[0]) == io_count
    return io_count / elapsed


def _roundtrips_per_sec(io_count: int = 4000) -> tuple[float, float]:
    kernel = reference = 0.0
    for _ in range(REPEATS):
        kernel = max(kernel, _kernel_roundtrip_rate(io_count))
        reference = max(reference, _reference_roundtrip_rate(io_count))
    return kernel, reference


def _baseline_payload() -> dict:
    """The committed per-interpreter baseline artifact (empty if missing)."""
    from benchmarks import compare_bench
    directory = compare_bench.resolve_baseline_dir(compare_bench.BASELINE_DIR)
    return compare_bench.load_artifact(directory, ARTIFACT.name) or {}


def _render_table(payload: dict, baseline: dict) -> str:
    """Per-shape + roundtrip table (current vs committed baseline), the
    kernel counterpart of ``BENCH_macro_table.md``."""
    def fmt_base(value) -> str:
        return f"{value:.3f}" if isinstance(value, (int, float)) else "-"

    lines = [
        "# Kernel / reference-loop ratios",
        "",
        "The simulation kernel vs the frozen heapq + generator reference",
        "loop (`benchmarks/reference_loop.py`), best-of interleaved runs on",
        "this host.  `baseline` is the committed per-interpreter ratio",
        "`benchmarks/compare_bench.py` gates at the 10% band.",
        "",
        "| workload | kernel /s | reference /s | ratio | baseline |",
        "|---|---|---|---|---|",
    ]
    base_events = baseline.get("events_per_sec", {})
    for name, row in sorted(payload["events_per_sec"].items()):
        lines.append(
            f"| {name} | {row['kernel_events_per_sec']:,} "
            f"| {row['reference_events_per_sec']:,} "
            f"| {row['ratio']:.3f} "
            f"| {fmt_base(base_events.get(name, {}).get('ratio'))} |")
    roundtrip = payload["request_roundtrips_per_sec"]
    base_roundtrip = baseline.get("request_roundtrips_per_sec", {})
    lines.append(
        f"| roundtrip | {roundtrip['kernel_roundtrips_per_sec']:,} "
        f"| {roundtrip['reference_roundtrips_per_sec']:,} "
        f"| {roundtrip['ratio']:.3f} "
        f"| {fmt_base(base_roundtrip.get('ratio'))} |")
    lines += [
        "",
        "Events/sec rows count scheduled events of each loop; the roundtrip",
        "row counts completed requests (kernel: `IORequest`s through the FIO",
        "runner and `LoopbackDevice`).",
        "",
    ]
    return "\n".join(lines)


def test_kernel_reference_ratios_and_artifact():
    events = {}
    for name, (build, reference_build) in SHAPES.items():
        kernel, reference = _events_per_sec(build, reference_build)
        events[name] = {
            "kernel_events_per_sec": round(kernel),
            "reference_events_per_sec": round(reference),
            "ratio": round(kernel / reference, 3),
        }

    roundtrip_kernel, roundtrip_reference = _roundtrips_per_sec()
    roundtrips = {
        "kernel_roundtrips_per_sec": round(roundtrip_kernel),
        "reference_roundtrips_per_sec": round(roundtrip_reference),
        "ratio": round(roundtrip_kernel / roundtrip_reference, 3),
    }

    payload = {
        "benchmark": "kernel",
        "events_per_sec": events,
        "request_roundtrips_per_sec": roundtrips,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    TABLE.write_text(_render_table(payload, _baseline_payload()))
    print(f"\nkernel microbenchmark -> {ARTIFACT.name} / {TABLE.name}")
    print(json.dumps(payload, indent=2, sort_keys=True))

    for name in SHAPES:
        assert events[name]["ratio"] >= FLOORS[name], payload
    assert roundtrips["ratio"] >= FLOORS["roundtrip"], payload
