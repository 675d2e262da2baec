"""The simulator's benchmark: one workload, timed end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 0 --seconds 30 --trace 0

It times the set-up of ``SETUP_PROBES`` fresh interpreters, then starts one
measuring process (``measure.py``) that runs the workload's cells back to
back for ``--seconds``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``README.md`` beside this file for the metrics and workloads.

The program is built from ``src/`` of the checkout; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The names of ``workloads.WORKLOADS``; this process imports no simulator
#: code, so it can report a missing ``src/`` cleanly.
WORKLOADS = ("paper-figures", "fleet-smoke", "failover-shm2")

#: Fresh interpreters whose set-up is timed; ``setup_s`` is their median.
SETUP_PROBES = 7

#: The whole run, set-up probes included, must end within this many seconds.
RUN_LIMIT_S = 170.0


def _child(extra: list[str], args) -> list[str]:
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    return command + extra


def _probe_setup(args) -> tuple[float, float]:
    """Seconds from spawning an interpreter to its ``ready`` line, and the
    reference-loop seconds around it (see ``hostspeed``)."""
    before = hostspeed.sample()
    started = time.perf_counter()
    with subprocess.Popen(_child(["--setup-only"], args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        probe.wait(timeout=60)
    if line != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return elapsed, (before + hostspeed.sample()) / 2


def _measure(args, workdir: Path, timeout: float) -> dict:
    command = _child(["--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--golden", args.golden,
                      "--workdir", str(workdir)], args)
    if args.record_golden:
        command.append("--record-golden")
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            output, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise RuntimeError(f"measuring process exceeded {timeout:.0f} s")
    if child.returncode != 0:
        raise RuntimeError(f"measuring process failed (exit "
                           f"{child.returncode})")
    return json.loads(output.strip().splitlines()[-1])


def _report(args, setup: list[tuple[float, float]], result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'quick' if args.quick else 'full'} size  trace {args.trace}")
    print(f"passes {result['passes']} x {result['cells']} cells; "
          f"{attempted} cell runs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    print("setup probes (s, reference s): "
          + " ".join(f"{probe:.4f}/{host:.4f}" for probe, host in setup))
    for error in result["errors"]:
        print(f"FAILED {error}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for name, value in sorted(result["raw"].items()):
        print(f"  as measured: {name:18s} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the scenarios' own seeds; any other "
                             "value re-derives every cell and topology seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the passes run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every cell (the CLI's --quick)")
    parser.add_argument("--golden", default=str(HERE / "golden.json"),
                        help="golden output digests and counts")
    parser.add_argument("--record-golden", action="store_true",
                        help="write the default seed's outputs and counts "
                             "to --golden instead of checking them")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    # A fresh directory per run, even when runs share a checkout and a pid.
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-",
                                    dir=ROOT / ".perfbench-work"))
    try:
        setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        result = _measure(args, workdir, remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = result["metrics"]
    if not args.trace:
        raw = statistics.median(probe for probe, _host in setup)
        reference = statistics.median(host for _probe, host in setup)
        metrics["setup_s"] = {"value": raw * hostspeed.NOMINAL_S / reference,
                              "unit": "s"}
        result["raw"]["setup_s"] = raw
    _report(args, setup, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
