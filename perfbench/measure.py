"""Measuring process of the benchmark (started by ``run.py``).

``measure.py --setup-only ...`` does the set-up a user's process does before
its first cell -- imports, registries, scenario and topology expansion -- and
prints ``ready``.  Without it, the process runs passes over the workload's
cells back to back until ``--seconds`` have passed, checks every output, and
prints one JSON line of results for ``run.py``.

With ``--trace 0`` every pass runs without instrumentation and gives the
end-to-end metrics, scaled to a nominal host (see ``hostspeed.py``).  With
``--trace 1`` rounds alternate an untraced pass with a traced one (see
``tracing.py``) and give the per-layer metrics; the traced outputs must
equal the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ios_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_p88_s": "s",
    "peak_rss_mb": "MiB",
}

#: Layers whose self time is reported as ``<layer>_share`` of the traced
#: wall time.
SHARE_LAYERS = (
    "sweep.cell_overhead", "sweep.cache", "devices.build", "ssd.preload",
    "ebs.preload", "workload.run_job", "metrics.summary",
    "cluster.partition", "cluster.build", "cluster.advance",
    "cluster.collect", "cluster.merge", "transport.init", "transport.post",
    "transport.wait", "transport.collect", "transport.close",
)

#: Counts that depend only on the workload and seed: they must repeat
#: exactly from pass to pass and, at the default seed, equal the golden.
DETERMINISTIC_UNITS = {
    "sim.events": "count",
    "sim.events_per_io": "event/io",
    "ssd.events_per_io": "event/io",
    "ebs.events_per_io": "event/io",
    "sweep.cache_misses": "count",
    "cluster.epochs": "count",
    "cluster.coordination_tasks": "count",
    "cluster.shed_ios": "count",
    "cluster.rebuild_bytes": "B",
    "transport.round_trips": "count",
    "transport.busy_round_frac": "ratio",
}

PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "other_share": "ratio",
    **{f"{layer}_share": "ratio" for layer in SHARE_LAYERS},
    "sim.ios_per_s": "1/s",
    "ssd.request_share": "ratio",
    "ebs.request_share": "ratio",
    "transport.overhead_share": "ratio",
    **DETERMINISTIC_UNITS,
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Checker:
    """Counts attempted and failed cell executions and keeps the first
    error messages."""

    def __init__(self, golden: dict[str, Any] | None):
        self.golden = golden
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        """Count a failure; its message also goes to standard error at
        once, so a run that ends badly still shows what failed."""
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr, flush=True)
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, records: list[workloads.CellRecord], label: str) -> None:
        """Every execution must succeed and give the cell's one output:
        the golden one at the default seed, the first one seen otherwise."""
        for record in records:
            self.attempted += 1
            if record.error is not None:
                self.fail(f"{label} {record.id}: {record.error}")
                continue
            expected = self.digests.setdefault(record.id, record.digest)
            if self.golden is not None:
                expected = self.golden["digests"].get(record.id)
            if record.digest != expected:
                self.fail(f"{label} {record.id}: output digest "
                          f"{record.digest[:12]} != expected "
                          f"{str(expected)[:12]}")


def _wall(records: list[workloads.CellRecord]) -> float:
    return sum(record.seconds for record in records)


def _pass_counts(plan: workloads.Plan, records, books) -> dict[str, float]:
    """The deterministic counts of one traced pass."""
    counters = books["counters"]
    ios = sum(record.ios for record in records)
    counts = {"sweep.cache_misses": int(counters.get("sweep.cache_misses", 0)),
              "transport.round_trips":
                  int(counters.get("transport.round_trips", 0)),
              "transport.busy_round_frac": _ratio(
                  counters.get("transport.busy_round_trips", 0),
                  counters.get("transport.round_trips", 0))}
    if plan.is_fleet:
        totals: dict[str, int] = defaultdict(int)
        for record in records:
            for key, value in record.counts.items():
                totals[key] += value
        events = totals["events"]
        family = {cell.family for cell in plan.cells}
        family = family.pop() if len(family) == 1 else None
        for name in ("ssd", "ebs"):
            counts[f"{name}.events_per_io"] = \
                _ratio(events, ios) if family == name else 0.0
        counts.update({"cluster.epochs": totals["epochs"],
                       "cluster.coordination_tasks":
                           totals["coordination_tasks"],
                       "cluster.shed_ios": totals["shed_ios"],
                       "cluster.rebuild_bytes": totals["rebuild_bytes"]})
    else:
        events = counters.get("sim.events", 0)
        for name in ("ssd", "ebs"):
            counts[f"{name}.events_per_io"] = _ratio(
                counters.get(f"{name}.events", 0),
                counters.get(f"{name}.ios", 0))
        counts.update({"cluster.epochs": 0, "cluster.coordination_tasks": 0,
                       "cluster.shed_ios": 0, "cluster.rebuild_bytes": 0})
    counts["sim.events"] = events
    counts["sim.events_per_io"] = _ratio(events, ios)
    return counts


def _merge_books(into: dict[str, Any], books: dict[str, Any]) -> None:
    for section in ("self_s", "counters"):
        target = into.setdefault(section, defaultdict(float))
        for key, value in books[section].items():
            target[key] += value


def _layer_metrics(plan, traced, untraced, reference, coordinator,
                   workers) -> dict[str, float]:
    """Per-layer metrics from the traced passes' books."""
    traced_wall = sum(_wall(records) for records in traced)
    own = coordinator.get("self_s", {})
    worker_own = workers.get("self_s", {})

    def self_s(layer: str) -> float:
        return own.get(layer, 0.0) + worker_own.get(layer, 0.0)

    metrics = {
        "trace.wall_s": statistics.median(_wall(r) for r in traced),
        "trace.overhead_s": statistics.median(_wall(r) for r in traced)
        - statistics.median(_wall(r) for r in untraced),
        "other_share": (traced_wall - sum(own.values())) / traced_wall,
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}_share"] = self_s(layer) / traced_wall
    simulating = sum(self_s(layer) for layer in tracing.SIMULATION_LAYERS)
    ios = sum(record.ios for records in traced for record in records)
    metrics["sim.ios_per_s"] = _ratio(ios, simulating)
    counters = coordinator.get("counters", {})
    families = {cell.family for cell in plan.cells}
    for name in ("ssd", "ebs"):
        if plan.is_fleet:
            request_s = self_s("cluster.advance") if families == {name} else 0.0
        else:
            request_s = counters.get(f"{name}.request_s", 0.0)
        metrics[f"{name}.request_share"] = request_s / traced_wall
    metrics["transport.overhead_share"] = 0.0
    if reference:
        local = statistics.median(_wall(records) for records in reference)
        metrics["transport.overhead_share"] = (
            statistics.median(_wall(records) for records in untraced)
            - local) / local
    return metrics


class HostSamples:
    """Reference-loop samples (see ``hostspeed``) taken between cells, at
    most every ``SAMPLE_EVERY_S``, and the end time of every cell."""

    SAMPLE_EVERY_S = 0.5
    #: A cell that ran ``d`` seconds is scaled by the median of the samples
    #: taken while it ran or within ``WINDOW_S + WINDOW_PER_S * d`` seconds
    #: of it (else by the nearest sample): the longer a cell averages the
    #: host's speed, the more samples stand for it.
    WINDOW_S = 1.0
    WINDOW_PER_S = 4.0

    def __init__(self, cores: hostspeed.Cores):
        self.cores = cores
        self.samples: list[tuple[float, float]] = []
        self.cell_ends: list[float] = []

    def __call__(self, done: int) -> None:
        now = time.perf_counter()
        if done:
            self.cell_ends.append(now)
        if not self.samples or now - self.samples[-1][0] >= self.SAMPLE_EVERY_S:
            self.samples.append((now, self.cores.sample()))

    def reference(self, end: float, seconds: float) -> float:
        """Reference-loop seconds for a cell that ran ``seconds`` up to
        ``end``."""
        window = self.WINDOW_S + self.WINDOW_PER_S * seconds
        near = [ref for at, ref in self.samples
                if end - seconds - window <= at <= end + window]
        if near:
            return statistics.median(near)
        return min(self.samples, key=lambda sample: abs(sample[0] - end))[1]


def _end_to_end(untraced, host: HostSamples) -> tuple[dict, dict]:
    """End-to-end metrics scaled to the nominal host (see ``hostspeed``),
    and the same times as measured.  A pass's wall time is built from each
    cell's median over the passes."""
    records = [record for records in untraced for record in records]
    scaled: dict[str, list[float]] = defaultdict(list)
    measured: dict[str, list[float]] = defaultdict(list)
    for record, end in zip(records, host.cell_ends):
        reference = host.reference(end, record.seconds)
        scaled[record.id].append(
            record.seconds * hostspeed.NOMINAL_S / reference)
        measured[record.id].append(record.seconds)
    ios = sum(record.ios for record in untraced[0])

    def timings(per_cell):
        cell_s = [statistics.median(times) for times in per_cell.values()]
        return {"wall_s": sum(cell_s), "sim_ios_per_s": ios / sum(cell_s),
                "cell_p50_s": statistics.median(cell_s),
                "cell_p88_s": percentile(cell_s, 88)}

    metrics = timings(scaled)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (own + children) / 1024.0
    raw = timings(measured)
    raw["host_reference_s"] = statistics.median(
        ref for _at, ref in host.samples)
    return metrics, raw


def _load_golden(path: Path, size: str, workload: str):
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(size, {}).get(workload)


def _record_golden(path: Path, size: str, workload: str,
                   checker: Checker, counts: dict[str, float]) -> None:
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden.setdefault(size, {})[workload] = {
        "digests": dict(sorted(checker.digests.items())),
        "counts": dict(sorted(counts.items()))}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def measure(args) -> dict[str, Any]:
    plan = workloads.build_plan(args.workload, args.seed, args.quick)
    size = "quick" if args.quick else "full"
    workdir = Path(args.workdir)
    golden = None
    if args.seed == workloads.DEFAULT_SEED and not args.record_golden:
        golden = _load_golden(Path(args.golden), size, args.workload)
        if golden is None:
            raise SystemExit(f"no golden outputs for {size} {args.workload} "
                             f"in {args.golden}")
    checker = Checker(golden)
    traced_mode = args.trace or args.record_golden
    tracer = tracing.LayerTracer(workdir) if traced_mode else None
    untraced, traced, reference, pass_counts = [], [], [], []
    # The shard processes of a process transport keep that many cores busy.
    busy = plan.run_config.shards if plan.is_fleet \
        and plan.run_config.resolve_transport() != "local" else 1
    with hostspeed.Cores(busy) as cores:
        host = HostSamples(cores)
        coordinator: dict[str, Any] = {}
        workers: dict[str, Any] = {}
        deadline = time.perf_counter() + args.seconds
        while True:
            untraced.append(workloads.run_pass(plan, workdir, between=host))
            checker.check(untraced[-1], "untraced")
            if traced_mode:
                if plan.reference_config is not None:
                    reference.append(workloads.run_pass(
                        plan, workdir, plan.reference_config))
                    checker.check(reference[-1], "reference")
                tracing.install(tracer)
                try:
                    records = workloads.run_pass(plan, workdir)
                finally:
                    tracer.uninstall()
                books = tracer.take()
                for worker in tracer.worker_books():
                    _merge_books(workers, worker)
                _merge_books(coordinator, books)
                traced.append(records)
                checker.check(records, "traced")
                pass_counts.append(_pass_counts(plan, records, books))
            if time.perf_counter() >= deadline or args.record_golden:
                break
        if plan.reference_config is not None and not traced_mode:
            reference.append(workloads.run_pass(plan, workdir,
                                                plan.reference_config))
            checker.check(reference[-1], "reference")

    if traced_mode:
        expected = golden["counts"] if golden is not None else pass_counts[0]
        for index, counts in enumerate(pass_counts):
            if counts != expected:
                changed = sorted(key for key in counts
                                 if counts[key] != expected.get(key))
                checker.fail(f"traced pass {index}: deterministic counts "
                             f"changed: {', '.join(changed)}")
        metrics = _layer_metrics(plan, traced, untraced, reference,
                                 coordinator, workers)
        metrics.update(pass_counts[0])
        if args.record_golden:
            _record_golden(Path(args.golden), size, args.workload, checker,
                           pass_counts[0])
        raw = {}
    else:
        metrics, raw = _end_to_end(untraced, host)
    units = PER_LAYER_UNITS if traced_mode else END_TO_END_UNITS
    return {"attempted": checker.attempted, "failed": checker.failed,
            "errors": checker.errors, "passes": len(untraced),
            "cells": len(plan.cells), "raw": raw,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _stop_resource_tracker() -> None:
    """The shared-memory transport starts multiprocessing's resource
    tracker; stop it and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--golden", default=str(GOLDEN))
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.build_plan(args.workload, args.seed, args.quick)
        print("ready", flush=True)
        return 0
    if args.record_golden and args.seed != workloads.DEFAULT_SEED:
        parser.error("--record-golden records the default seed only")
    try:
        result = measure(args)
    finally:
        _stop_resource_tracker()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
