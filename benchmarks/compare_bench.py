#!/usr/bin/env python3
"""CI benchmark-regression gate: fresh ``BENCH_*.json`` vs committed baselines.

The benchmark suites (``test_bench_kernel.py``, ``test_bench_fleet.py``)
write their artifacts to the repository root on every run; the blessed
numbers live under ``benchmarks/baselines/``.  This script compares the
tracked metrics and **fails (exit 1) when any of them regresses more than
the tolerance** (default 10%), printing a delta table and appending a
markdown copy to ``--summary`` (pass ``$GITHUB_STEP_SUMMARY`` in CI).

Tracked metrics are deliberately host-independent:

* kernel / reference-loop *rate ratios* -- the simulation kernel and the
  frozen heapq + generator loop in ``benchmarks/reference_loop.py`` run
  interleaved on the same machine, so the ratio survives slow or noisy CI
  hosts;
* fleet *coordination counts* (tasks per simulated second, batching task
  cut) -- fully deterministic.

Raw wall-clock numbers (events/sec, fleet ``speedup_vs_serial``) are
recorded in the artifacts for the trajectory but not gated: a single-core
runner cannot reproduce them.

Baselines are committed per interpreter version (``baselines/py3.11/``,
``baselines/py3.12/``, ...) because the kernel ratios drift across
CPython releases; the matching subdirectory is picked automatically, with
a fallback to the flat layout for repos that predate the split.

Updating a baseline is an explicit act: re-run the benchmark suite on a
quiet machine and copy the artifact into the matching
``benchmarks/baselines/py<major>.<minor>/`` directory in the same PR that
justifies the change.

Usage::

    python benchmarks/compare_bench.py [--tolerance 0.10]
        [--baseline-dir benchmarks/baselines] [--current-dir .]
        [--summary "$GITHUB_STEP_SUMMARY"]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default location of the blessed artifacts.
BASELINE_DIR = _REPO_ROOT / "benchmarks" / "baselines"


def resolve_baseline_dir(directory: Path,
                         python_version: Optional[str] = None) -> Path:
    """Descend into the ``py<major>.<minor>`` subdirectory matching the
    running interpreter when one exists; otherwise keep the flat layout."""
    if python_version is None:
        python_version = f"{sys.version_info[0]}.{sys.version_info[1]}"
    versioned = directory / f"py{python_version}"
    return versioned if versioned.is_dir() else directory

#: (artifact file, dotted metric path, direction).  ``higher`` metrics
#: regress by falling below baseline * (1 - tolerance), ``lower`` metrics
#: by rising above baseline * (1 + tolerance).
TRACKED: tuple[tuple[str, str, str], ...] = (
    ("BENCH_kernel.json", "events_per_sec.immediate.ratio", "higher"),
    ("BENCH_kernel.json", "events_per_sec.mixed.ratio", "higher"),
    ("BENCH_kernel.json", "events_per_sec.timer.ratio", "higher"),
    ("BENCH_kernel.json", "request_roundtrips_per_sec.ratio", "higher"),
    ("BENCH_fleet.json", "coordination.task_cut", "higher"),
    ("BENCH_fleet.json",
     "coordination.variants.batched.tasks_per_sim_second", "lower"),
    # Macro-vs-discrete validation harness: the approximation's error
    # envelope must not widen, and the (saturated) speedup must not
    # collapse back toward per-device cost.
    ("BENCH_macro.json", "validation.max_p50_err", "lower"),
    ("BENCH_macro.json", "validation.max_p95_err", "lower"),
    ("BENCH_macro.json", "validation.max_throughput_err", "lower"),
    ("BENCH_macro.json", "speedup.macro_vs_discrete", "higher"),
)

#: Absolute wall-clock floors: ``(artifact, metric, floor, skip flag)``.
#: Unlike the relative TRACKED gates these compare against a fixed target
#: rather than a committed baseline -- but wall-clock scaling only means
#: anything when the host has the cores, so a truthy value at the *skip
#: flag* path in the current artifact downgrades the row to informational
#: (the 1-2 core tier-1 runners) instead of failing it.  On a >= 4-core
#: runner the flag is false and the floor is a real gate.
FLOORS: tuple[tuple[str, str, float, str], ...] = (
    ("BENCH_fleet.json", "shards.4.by_transport.shm.scaling_efficiency",
     0.7, "shards.4.by_transport.shm.scaling_informational"),
    ("BENCH_fleet.json", "shards.2.by_transport.shm.speedup_vs_serial",
     1.0, "shards.2.by_transport.shm.scaling_informational"),
)


def lookup(payload: Any, dotted: str) -> Optional[float]:
    """Resolve ``a.b.c`` through nested dicts; None when any hop is missing."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def load_artifact(directory: Path, name: str) -> Optional[dict]:
    path = directory / name
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def compare(baseline_dir: Path, current_dir: Path,
            tolerance: float) -> tuple[list[dict[str, Any]], int]:
    """Build one row per tracked metric; return (rows, regression count).

    A missing or unreadable *current* artifact/metric counts as a
    regression (the gate must not pass vacuously); a missing *baseline*
    metric is reported as new and passes (commit the fresh artifact as its
    baseline in the same PR).
    """
    rows: list[dict[str, Any]] = []
    regressions = 0
    for artifact, metric, direction in TRACKED:
        base = lookup(load_artifact(baseline_dir, artifact) or {}, metric)
        current = lookup(load_artifact(current_dir, artifact) or {}, metric)
        if current is None:
            status = "MISSING"
            regressions += 1
            delta = None
        elif base is None:
            status = "new"
            delta = None
        elif base == 0:
            # A zero baseline can never gate anything (every relative
            # delta would be undefined); refuse it rather than pass
            # vacuously -- recommit a real baseline.
            status = "BAD-BASELINE"
            regressions += 1
            delta = None
        else:
            delta = (current - base) / base
            regressed = delta < -tolerance if direction == "higher" \
                else delta > tolerance
            if regressed:
                status = "REGRESSED"
                regressions += 1
            else:
                status = "ok"
        rows.append({
            "artifact": artifact,
            "metric": metric,
            "direction": direction,
            "baseline": base,
            "current": current,
            "delta": delta,
            "status": status,
        })
    for artifact, metric, floor, skip_flag in FLOORS:
        current_payload = load_artifact(current_dir, artifact) or {}
        current = lookup(current_payload, metric)
        informational = bool(lookup(current_payload, skip_flag))
        delta = None
        if current is None:
            status = "MISSING"
            regressions += 1
        elif informational:
            # The artifact itself says this host cannot measure scaling
            # (cpu_count < shards) -- record the number, gate nothing.
            status = "info-only"
        else:
            delta = (current - floor) / floor
            if current < floor:
                status = "BELOW-FLOOR"
                regressions += 1
            else:
                status = "ok"
        rows.append({
            "artifact": artifact,
            "metric": metric,
            "direction": "higher",
            "baseline": floor,
            "current": current,
            "delta": delta,
            "status": status,
        })
    return rows, regressions


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def _fmt_delta(row: dict[str, Any]) -> str:
    if row["delta"] is None:
        return "-"
    arrow = "" if row["direction"] == "higher" else " (lower is better)"
    return f"{row['delta']:+.1%}{arrow}"


def render_table(rows: list[dict[str, Any]], markdown: bool = False) -> str:
    headers = ["metric", "baseline", "current", "delta", "status"]
    body = [[f"{row['artifact']}:{row['metric']}", _fmt(row["baseline"]),
             _fmt(row["current"]), _fmt_delta(row), row["status"]]
            for row in rows]
    if markdown:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines += ["| " + " | ".join(line) + " |" for line in body]
        return "\n".join(lines)
    widths = [max(len(str(line[col])) for line in [headers] + body)
              for col in range(len(headers))]
    lines = ["  ".join(str(cell).ljust(width)
                       for cell, width in zip(line, widths)).rstrip()
             for line in [headers] + body]
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a tracked BENCH_* metric regresses vs the "
                    "committed baselines.")
    parser.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR)
    parser.add_argument("--current-dir", type=Path, default=_REPO_ROOT)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative regression (default 0.10)")
    parser.add_argument("--python-version", default=None,
                        help="pick baselines for this interpreter version "
                             "(e.g. 3.12; default: the running interpreter)")
    parser.add_argument("--summary", default=None,
                        help="append a markdown delta table to this file "
                             "(use $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args(argv)

    baseline_dir = resolve_baseline_dir(args.baseline_dir,
                                        args.python_version)
    rows, regressions = compare(baseline_dir, args.current_dir,
                                args.tolerance)
    print(f"benchmark regression gate: tolerance {args.tolerance:.0%}, "
          f"baselines from {baseline_dir}")
    print(render_table(rows))
    verdict = "PASS" if regressions == 0 else \
        f"FAIL ({regressions} tracked metric(s) regressed or missing)"
    print(verdict)

    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write("## Benchmark regression gate\n\n")
            handle.write(render_table(rows, markdown=True))
            handle.write(f"\n\n**{verdict}** (tolerance "
                         f"{args.tolerance:.0%})\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
