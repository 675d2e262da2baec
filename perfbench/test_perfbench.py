"""Tests of the benchmark itself, on reduced-size (``--quick``) cells.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def declared_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_of(run_bench("--workload", workload, "--quick",
                                     "--trace", trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert printed == declared_units(section)
    shares = [metric["value"] for name, metric in result["metrics"].items()
              if name.endswith("_share") and name != "transport.overhead_share"
              and not name.endswith(".request_share")]
    assert result["metrics"]["other_share"]["value"] >= 0
    if workload != "failover-shm2":
        # One process: the layers' self times plus the residual account
        # for the traced wall time.  (Shard-worker time on failover-shm2
        # overlaps the coordinator's and is not part of the identity.)
        assert sum(shares) == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced_off_the_default_seed(workload):
    # Off the default seed there is no golden: every traced (and reference)
    # output is checked against the untraced pass of the same run, and the
    # deterministic counts against the first traced pass.
    result = result_of(run_bench("--workload", workload, "--quick",
                                 "--trace", "1", "--seed", "7"))
    assert result["correct"] is True and result["failed"] == 0


def test_corrupted_golden_digest_counts_as_failed(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    digests = golden["quick"]["failover-shm2"]["digests"]
    digests["failover-storm/1"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    completed = run_bench("--workload", "failover-shm2", "--quick",
                          "--golden", str(path))
    result = result_of(completed)
    assert result["correct"] is False
    # Every run of the corrupted cell fails -- in each untraced pass and in
    # the two-shard in-process reference pass -- and the other two of the
    # three cells pass.
    assert result["failed"] >= 2 and result["attempted"] == 3 * result["failed"]
    assert "failed_frac 0.3333" in completed.stdout


def test_changed_deterministic_count_fails_the_run(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["quick"]["failover-shm2"]["counts"]["cluster.epochs"] += 1
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    result = result_of(run_bench("--workload", "failover-shm2", "--quick",
                                 "--trace", "1", "--golden", str(path)))
    assert result["correct"] is False and result["failed"] == 1


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "fleet-smoke", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
