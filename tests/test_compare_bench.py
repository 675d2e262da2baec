"""Unit tests for the CI benchmark-regression gate (compare_bench.py)."""

import json

import pytest

from benchmarks import compare_bench


def write_artifacts(directory, kernel_ratios, batched_tasks=40.0,
                    task_cut=11.0, macro_errs=(0.01, 0.03, 0.04),
                    macro_speedup=50.0, shm_speedup_2=1.5,
                    shm_efficiency_4=0.8, scaling_informational=False):
    immediate, mixed, timer, roundtrip = kernel_ratios
    (directory / "BENCH_kernel.json").write_text(json.dumps({
        "events_per_sec": {
            "immediate": {"ratio": immediate},
            "mixed": {"ratio": mixed},
            "timer": {"ratio": timer},
        },
        "request_roundtrips_per_sec": {"ratio": roundtrip},
    }))
    (directory / "BENCH_fleet.json").write_text(json.dumps({
        "coordination": {
            "task_cut": task_cut,
            "variants": {"batched": {"tasks_per_sim_second": batched_tasks}},
        },
        "shards": {
            "2": {"by_transport": {"shm": {
                "speedup_vs_serial": shm_speedup_2,
                "scaling_informational": scaling_informational,
            }}},
            "4": {"by_transport": {"shm": {
                "scaling_efficiency": shm_efficiency_4,
                "scaling_informational": scaling_informational,
            }}},
        },
    }))
    p50_err, p95_err, throughput_err = macro_errs
    (directory / "BENCH_macro.json").write_text(json.dumps({
        "validation": {
            "max_p50_err": p50_err,
            "max_p95_err": p95_err,
            "max_throughput_err": throughput_err,
        },
        "speedup": {"macro_vs_discrete": macro_speedup},
    }))


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baselines"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    return baseline, current


def test_identical_artifacts_pass(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4))
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current)]) == 0


def test_within_tolerance_passes_and_improvement_passes(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    # 5% lower ratios, slightly fewer tasks: all inside the 10% band.
    write_artifacts(current, (2.85, 2.47, 2.57, 1.33),
                    batched_tasks=43.0, task_cut=10.5)
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current)]) == 0


def test_higher_is_better_regression_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    write_artifacts(current, (3.0, 2.0, 2.7, 1.4))  # mixed -23%
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert len(bad) == 1 and "mixed" in bad[0]["metric"]
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current)]) == 1


def test_lower_is_better_regression_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    # Coordination traffic ballooned 50%: a batching regression.
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4), batched_tasks=60.0)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert bad[0]["metric"].endswith("tasks_per_sim_second")


def test_macro_error_envelope_widening_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    # The macro approximation drifted: p50 error doubled past the band.
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4),
                    macro_errs=(0.02, 0.03, 0.04))
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("max_p50_err")


def test_macro_speedup_collapse_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4), macro_speedup=4.0)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("macro_vs_discrete")


def test_missing_current_artifact_fails_loudly(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == len(compare_bench.TRACKED) + \
        len(compare_bench.FLOORS)
    assert all(row["status"] == "MISSING" for row in rows)


def test_zero_baseline_fails_instead_of_passing_vacuously(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4), task_cut=0.0)
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4), task_cut=0.0)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "BAD-BASELINE"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("task_cut")


def test_missing_baseline_metric_reports_new_and_passes(dirs):
    baseline, current = dirs
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4))
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 0
    # Relative gates report "new"; the absolute floors need no baseline
    # and gate (or pass) on the fixed target regardless.
    tracked = rows[:len(compare_bench.TRACKED)]
    floors = rows[len(compare_bench.TRACKED):]
    assert all(row["status"] == "new" for row in tracked)
    assert all(row["status"] == "ok" for row in floors)


def test_scaling_floor_gates_capable_hosts(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    # A multi-core host (informational flag off) that lost its scaling:
    # efficiency 0.4 is below the 0.7 floor.
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4), shm_efficiency_4=0.4)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "BELOW-FLOOR"]
    assert len(bad) == 1
    assert bad[0]["metric"].endswith("shm.scaling_efficiency")


def test_scaling_floor_is_informational_on_small_hosts(dirs):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    # The same terrible numbers, but the artifact says cpu_count < shards:
    # the floor reports info-only instead of failing the 1-core runner.
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4), shm_efficiency_4=0.1,
                    shm_speedup_2=0.3, scaling_informational=True)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 0
    info = [row for row in rows if row["status"] == "info-only"]
    assert len(info) == len(compare_bench.FLOORS)


def test_summary_markdown_is_appended(dirs, tmp_path):
    baseline, current = dirs
    write_artifacts(baseline, (3.0, 2.6, 2.7, 1.4))
    write_artifacts(current, (3.0, 1.9, 2.7, 1.4))
    summary = tmp_path / "summary.md"
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current),
                               "--summary", str(summary)]) == 1
    text = summary.read_text()
    assert "| metric |" in text and "REGRESSED" in text and "FAIL" in text


def test_baseline_dir_resolves_to_interpreter_version(tmp_path):
    flat = tmp_path / "baselines"
    flat.mkdir()
    # No versioned subdirectory: the flat layout is kept.
    assert compare_bench.resolve_baseline_dir(flat) == flat
    versioned = flat / "py3.12"
    versioned.mkdir()
    assert compare_bench.resolve_baseline_dir(flat, "3.12") == versioned
    # A version without a committed directory falls back to flat.
    assert compare_bench.resolve_baseline_dir(flat, "3.99") == flat


def test_main_honors_python_version_flag(dirs):
    baseline, current = dirs
    versioned = baseline / "py3.12"
    versioned.mkdir()
    write_artifacts(versioned, (3.0, 2.6, 2.7, 1.4))
    write_artifacts(current, (3.0, 2.6, 2.7, 1.4))
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current),
                               "--python-version", "3.12"]) == 0
    # Without versioned artifacts for 3.99 the flat (empty) dir gates:
    # every current metric is "new" and passes.
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current),
                               "--python-version", "3.99"]) == 0


@pytest.mark.parametrize("version", ["3.11", "3.12"])
def test_committed_baselines_cover_every_tracked_metric(version):
    """The real benchmarks/baselines/ artifacts must expose every tracked
    metric for every CI matrix interpreter -- otherwise the gate silently
    loses coverage."""
    directory = compare_bench.resolve_baseline_dir(
        compare_bench.BASELINE_DIR, version)
    assert directory != compare_bench.BASELINE_DIR, \
        f"missing baselines/py{version}/ directory"
    for artifact, metric, _direction in compare_bench.TRACKED:
        payload = compare_bench.load_artifact(directory, artifact)
        assert payload is not None, f"missing baseline {artifact}"
        assert compare_bench.lookup(payload, metric) is not None, \
            f"{artifact} baseline lacks {metric}"


def test_tracked_kernel_baseline_holds_the_paper_trajectory():
    """The committed py3.11 kernel baseline must sit above the in-test
    floors of the kernel benchmark by the margin the floors were sized
    with, so a baseline re-recorded on a regressed kernel cannot slip
    under the gate unnoticed."""
    from benchmarks.test_bench_kernel import FLOORS, FLOOR_FRACTIONS
    payload = compare_bench.load_artifact(
        compare_bench.resolve_baseline_dir(compare_bench.BASELINE_DIR,
                                           "3.11"),
        "BENCH_kernel.json")
    assert payload is not None
    for name, floor in FLOORS.items():
        metric = ("request_roundtrips_per_sec.ratio" if name == "roundtrip"
                  else f"events_per_sec.{name}.ratio")
        baseline = compare_bench.lookup(payload, metric)
        assert baseline is not None, metric
        assert floor == pytest.approx(baseline * FLOOR_FRACTIONS[name],
                                      abs=0.001), name
