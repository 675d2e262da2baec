"""Error paths of the ``fleet`` CLI verb, and approximate-flag plumbing
through sweep results and ``diff_results``.

Every malformed input must fail with exit code 2 and a single ``error:``
line on stderr -- never a traceback.  The diff half covers the macro
contract: ``approximate=True`` survives cache round-trips, save/load, and
result diffs, and a macro-vs-macro diff reports zero change (no false
regressions from the approximation itself).
"""

import json

import pytest

from repro.cluster import fleet, group, tenant
from repro.config import ConfigError, scenario_for_document
from repro.experiments.cli import main as cli_main
from repro.experiments.scenarios import register, scenario
from repro.experiments.sweep import SweepResult, SweepRunner, diff_results

MINI_CAPACITY = 1 << 24


def error_fleet():
    return fleet(
        "cli-errors-under-test",
        groups=[group("web", "LOOP", 3, capacity_bytes=MINI_CAPACITY)],
        tenants=[tenant("t", "web", pattern="randwrite", io_size=4096,
                        queue_depth=1, io_count=10)],
        epoch_us=200.0,
        seed=3,
    )


@pytest.fixture()
def error_scenario():
    spec = scenario(
        "cli-errors-under-test", "test-only error-path fleet",
        devices=("fleet",),
        fleet=error_fleet(),
    )
    register(spec, replace=True)
    return spec


def run_cli(args):
    return cli_main(["fleet", "cli-errors-under-test",
                     "--no-cache", *args])


def assert_cli_error(capsys, args, needle):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert needle in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# --faults error paths
# ---------------------------------------------------------------------------

def test_faults_file_missing_is_a_clean_error(error_scenario, tmp_path,
                                              capsys):
    missing = tmp_path / "nope.json"
    assert_cli_error(capsys, ["--faults", f"@{missing}"],
                     "cannot read --faults file")


def test_faults_malformed_json_is_a_clean_error(error_scenario, tmp_path,
                                                capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_cli_error(capsys, ["--faults", f"@{bad}"], "bad --faults spec")
    # Inline specs hit the same parser.
    assert_cli_error(capsys, ["--faults", "{not json"], "bad --faults spec")


def test_faults_unknown_group_is_a_clean_error(error_scenario, capsys):
    spec = json.dumps([{"kind": "fail", "group": "nosuch", "at_us": 100.0}])
    assert_cli_error(capsys, ["--faults", spec], "nosuch")


def test_faults_unknown_device_index_is_a_clean_error(error_scenario, capsys):
    spec = json.dumps([{"kind": "fail", "group": "web", "device": 99,
                        "at_us": 100.0}])
    assert_cli_error(capsys, ["--faults", spec], "99")


def test_faults_wrong_spec_shape_is_a_clean_error(error_scenario, capsys):
    assert_cli_error(capsys, ["--faults", json.dumps({"events": 42})],
                     "bad --faults spec")


# ---------------------------------------------------------------------------
# --macro error paths
# ---------------------------------------------------------------------------

def test_macro_unknown_group_is_a_clean_error(error_scenario, capsys):
    assert_cli_error(capsys, ["--macro", "nosuch"],
                     "unknown group 'nosuch'")


def test_macro_unknown_mode_is_a_clean_error(error_scenario, capsys):
    assert_cli_error(capsys, ["--macro", "web=quantum"],
                     "unknown group mode 'quantum'")


def test_macro_valid_override_still_succeeds(error_scenario, capsys):
    assert run_cli(["--macro", "web"]) == 0
    assert "error:" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Unknown-scenario and document-path error paths on every verb
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("verb", ["run", "fleet"])
def test_unknown_scenario_lists_known_choices(verb, capsys):
    assert cli_main([verb, "definitely-not-registered"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "unknown scenario" in captured.err
    assert "known:" in captured.err
    assert "fleet-smoke" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verb", ["run", "fleet"])
def test_invalid_document_path_is_a_clean_error(verb, tmp_path, capsys):
    bad = tmp_path / "bad-fleet.json"
    bad.write_text(json.dumps({"kind": "fleet", "name": "bad",
                               "groups": [{"name": "g", "device": "LOOP",
                                           "count": -1}]}))
    assert cli_main([verb, str(bad)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "groups[0].count: expected positive int" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# Fleet execution flags vs a document's run: block
# ---------------------------------------------------------------------------

def test_execution_flags_override_run_block_the_same_way_on_every_verb(
        tmp_path, capsys):
    """``--transport`` beats the document's ``run.transport`` on both
    ``run`` and ``fleet``, and the field no flag sets (``shards``) keeps
    the document's value (regression: ``run`` let the document win)."""
    document = error_fleet().to_document()
    document["run"] = {"transport": "shm", "shards": 2}
    path = tmp_path / "precedence.json"
    path.write_text(json.dumps(document))

    sweep_out = tmp_path / "sweep.json"
    assert cli_main(["run", str(path), "--serial", "--no-cache",
                     "--transport", "local", "--out", str(sweep_out)]) == 0
    cell = SweepResult.load(sweep_out).outcomes[0].cell
    assert dict(cell.fleet_run) == {"shards": 2, "transport": "local"}

    fleet_out = tmp_path / "fleet.json"
    assert cli_main(["fleet", str(path), "--no-cache", "--transport",
                     "local", "--out", str(fleet_out)]) == 0
    runtime = json.loads(fleet_out.read_text())[0]["result"]["runtime"]
    assert (runtime["shards"], runtime["transport"]) == (2, "local")
    capsys.readouterr()


#: The process-pool transport that older sweeps may still name in their
#: saved ``fleet_run``; it no longer exists.
RETIRED_TRANSPORT = 'executor'


def test_retired_executor_transport_is_rejected_but_old_sweeps_still_load(
        error_scenario, tmp_path, capsys):
    """``executor`` is no longer a transport: documents and flags naming
    it fail cleanly, while sweeps saved with it (``fleet_run`` is an
    execution detail outside the cache key) stay loadable and diffable."""
    document = error_fleet().to_document()
    document["run"] = {"transport": RETIRED_TRANSPORT}
    with pytest.raises(ConfigError) as excinfo:
        scenario_for_document(document)
    assert excinfo.value.path == "document.run.transport"
    assert "expected one of auto, local, shm" in str(excinfo.value)

    with pytest.raises(SystemExit) as exited:
        cli_main(["fleet", "cli-errors-under-test", "--transport",
                  RETIRED_TRANSPORT])
    assert exited.value.code == 2
    assert f"invalid choice: {RETIRED_TRANSPORT!r}" in \
        capsys.readouterr().err

    current = tmp_path / "current.json"
    assert cli_main(["run", "cli-errors-under-test", "--serial",
                     "--no-cache", "--out", str(current)]) == 0
    saved = json.loads(current.read_text())
    for outcome in saved["cells"]:
        outcome["cell"]["fleet_run"] = [["shards", 2],
                                        ["transport", RETIRED_TRANSPORT]]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(saved))
    cell = SweepResult.load(old).outcomes[0].cell
    assert dict(cell.fleet_run)["transport"] == RETIRED_TRANSPORT
    assert cli_main(["diff", str(old), str(current),
                     "--fail-on-change"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# serve/submit endpoint validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("verb", ["serve", "submit"])
@pytest.mark.parametrize("endpoint", [
    [],                                     # neither transport
    ["--socket", "/tmp/x.sock", "--port", "1"],  # both transports
])
def test_endpoint_must_be_exactly_one_transport(verb, endpoint, capsys):
    args = [verb] if verb == "serve" else [verb, "fleet-smoke"]
    assert cli_main([*args, *endpoint]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "exactly one of --socket" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# approximate=True through sweep results and diff_results
# ---------------------------------------------------------------------------

def _macro_sweep(tmp_path, name, macro):
    topology = error_fleet()
    if macro:
        topology = topology.with_macro("web")
    spec = scenario(name, "test-only diff fleet", devices=("fleet",),
                    fleet=topology)
    register(spec, replace=True)
    runner = SweepRunner(cache_dir=tmp_path / name)
    return runner.run_cells(spec.name, spec.cells())


def test_approximate_flag_survives_cache_save_load_and_diff(tmp_path):
    macro = _macro_sweep(tmp_path, "diff-macro-under-test", macro=True)
    exact = _macro_sweep(tmp_path, "diff-exact-under-test", macro=False)

    flagged = macro.outcomes[0].metrics
    assert flagged["approximate"] is True
    assert flagged["fleet"]["fleet"]["approximate"] is True
    assert "approximate" not in exact.outcomes[0].metrics

    # Save/load round-trip keeps the flag bit-exact.
    path = tmp_path / "macro-result.json"
    macro.save(path)
    reloaded = SweepResult.load(path)
    assert reloaded.outcomes[0].metrics == flagged

    # A macro run diffed against itself reports zero change everywhere:
    # the approximation flag must not read as a regression.
    rows = diff_results(macro, reloaded, metric="throughput_gbps")
    assert rows and all(row["relative_change"] == 0.0 for row in rows)

    # Macro vs discrete is a *different* cell (mode is part of the
    # topology, hence the cache key), so the diff reports both sides as
    # unmatched rather than inventing a regression.
    rows = diff_results(exact, macro, metric="throughput_gbps")
    assert all(row["relative_change"] is None for row in rows)


def test_cached_macro_rerun_is_a_cache_hit_with_flag_intact(tmp_path):
    first = _macro_sweep(tmp_path, "diff-cache-under-test", macro=True)
    second = _macro_sweep(tmp_path, "diff-cache-under-test", macro=True)
    assert first.cache_hits == 0
    assert second.cache_hits == len(second.outcomes)
    assert second.outcomes[0].metrics["approximate"] is True
    assert second.outcomes[0].metrics == first.outcomes[0].metrics
