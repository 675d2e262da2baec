"""The benchmark's workloads: seeded cell plans and one timed pass over them.

Every workload drives the simulator through the entry points a user calls:

* ``paper-figures`` -- every cell of the ``figure2`` .. ``figure5`` scenarios
  through ``SweepRunner(parallel=False)`` into an empty cache directory;
* ``fleet-smoke`` -- both ``fleet-smoke`` topologies through
  ``FleetCoordinator(config=FleetRunConfig(shards=1, transport="local"))``;
* ``failover-shm2`` -- the three ``failover-storm`` topologies on two shards
  over the shared-memory transport.  Its reference runs the same cells on two
  in-process shards; the two payloads must be identical.

A cell's deterministic output is its metrics dict (sweep cells) or its
coordinator payload without the ``runtime`` section (fleet cells); its digest
is the SHA-256 of the canonical JSON.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro.cluster import FleetCoordinator, FleetRunConfig, FleetTopology
from repro.determinism import canonical_json, derive_seed
from repro.experiments import SweepRunner, get_scenario
from repro.experiments.sweep import quick_cells

#: ``--seed`` value that keeps every scenario's registered seeds, so the
#: default run computes exactly what a user of the scenarios gets.
DEFAULT_SEED = 0

FIGURES = ("figure2", "figure3", "figure4", "figure5")

#: workload -> (scenarios, run config, reference run config).  ``None`` run
#: config means the cells are sweep cells.
WORKLOADS: dict[str, tuple[tuple[str, ...], Optional[FleetRunConfig],
                           Optional[FleetRunConfig]]] = {
    "paper-figures": (FIGURES, None, None),
    "fleet-smoke": (("fleet-smoke",),
                    FleetRunConfig(shards=1, transport="local"), None),
    "failover-shm2": (("failover-storm",),
                      FleetRunConfig(shards=2, transport="shm"),
                      FleetRunConfig(shards=2, transport="local")),
}

_FAMILIES = {"SSD": "ssd", "ESSD-1": "ebs", "ESSD-2": "ebs"}


@dataclass(frozen=True)
class Cell:
    """One unit of work: a sweep cell or a fleet topology."""

    id: str
    scenario: str
    #: A :class:`CellSpec` (sweep) or a :class:`FleetTopology` (fleet).
    spec: Any
    #: Foreground I/Os the cell must complete (``None``: not count-bounded).
    expected_ios: Optional[int]
    #: ``"ssd"`` / ``"ebs"`` when every device of the cell is of one family.
    family: Optional[str]


@dataclass
class CellRecord:
    """What one execution of a cell produced."""

    id: str
    seconds: float
    digest: Optional[str] = None
    ios: int = 0
    error: Optional[str] = None
    #: Coordinator counts of a fleet cell (``runtime`` section + faults).
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Plan:
    cells: list[Cell]
    run_config: Optional[FleetRunConfig]
    reference_config: Optional[FleetRunConfig]

    @property
    def is_fleet(self) -> bool:
        return self.run_config is not None


def _sweep_expected_ios(cell) -> Optional[int]:
    """I/Os a sweep cell reports: its issue limit minus the ramp I/Os,
    which run but are not counted."""
    limit = cell.io_count
    if cell.total_bytes is not None:
        by_bytes = cell.total_bytes // cell.io_size
        limit = by_bytes if limit is None else min(limit, by_bytes)
    return None if limit is None else limit - cell.ramp_ios


def _fleet_expected_ios(topology: FleetTopology) -> Optional[int]:
    total = 0
    for tenant in topology.tenants:
        io_count = dict(tenant.workload).get("io_count")
        if io_count is None:
            return None
        total += io_count * topology.group(tenant.group).count
    return total


def _fleet_family(topology: FleetTopology) -> Optional[str]:
    families = {_FAMILIES.get(group.device) for group in topology.groups}
    return families.pop() if len(families) == 1 else None


def build_plan(workload: str, seed: int = DEFAULT_SEED,
               quick: bool = False) -> Plan:
    """Expand a workload into its cells.

    Off :data:`DEFAULT_SEED` every cell seed (sweep cells) and topology seed
    (fleet cells) is re-derived from ``seed`` and the cell's identity.
    ``quick`` shrinks every cell the way the CLI's ``--quick`` does.
    """
    scenarios, run_config, reference_config = WORKLOADS[workload]
    cells: list[Cell] = []
    for name in scenarios:
        specs = get_scenario(name).cells()
        if quick:
            specs = quick_cells(specs)
        for index, spec in enumerate(specs):
            identity = {"scenario": name, "cell": index}
            if spec.fleet is None:
                if seed != DEFAULT_SEED:
                    spec = replace(spec, seed=derive_seed(
                        seed, {**identity, "seed": spec.seed}))
                cells.append(Cell(f"{name}/{index}", name, spec,
                                  _sweep_expected_ios(spec),
                                  _FAMILIES.get(spec.device)))
                continue
            topology = FleetTopology.from_json(spec.fleet)
            if seed != DEFAULT_SEED:
                topology = topology.scaled(seed=derive_seed(
                    seed, {**identity, "seed": topology.seed}))
            cells.append(Cell(f"{name}/{index}", name, topology,
                              _fleet_expected_ios(topology),
                              _fleet_family(topology)))
    return Plan(cells, run_config, reference_config)


def digest(output: Any) -> str:
    return hashlib.sha256(canonical_json(output).encode()).hexdigest()


def _sanity_error(cell: Cell, ios: int, summary: dict) -> Optional[str]:
    """The invariants every seed must satisfy (``None`` when they hold)."""
    if cell.expected_ios is not None and ios != cell.expected_ios:
        return f"completed {ios} I/Os, expected {cell.expected_ios}"
    if not summary["p50_us"] <= summary["p99_us"] <= summary["max_us"]:
        return (f"latency order broken: p50 {summary['p50_us']} p99 "
                f"{summary['p99_us']} max {summary['max_us']}")
    return None


def _fleet_counts(payload: dict) -> dict[str, int]:
    runtime = payload["runtime"]
    faults = payload.get("faults") or {}
    return {"events": runtime["scheduled_events"],
            "epochs": runtime["epochs"],
            "coordination_tasks": runtime["coordination_tasks"],
            "shed_ios": faults.get("shed_ios", 0),
            "rebuild_bytes": faults.get("rebuild_bytes", 0)}


def _run_fleet_cell(cell: Cell, config: FleetRunConfig) -> CellRecord:
    started = time.perf_counter()
    try:
        payload = FleetCoordinator(config=config).run(cell.spec)
    except Exception as exc:  # a failed cell is counted, not fatal
        return CellRecord(cell.id, time.perf_counter() - started,
                          error=repr(exc))
    seconds = time.perf_counter() - started
    output = {key: value for key, value in payload.items()
              if key != "runtime"}
    ios = payload["fleet"]["ios_completed"]
    return CellRecord(cell.id, seconds, digest(output), ios,
                      _sanity_error(cell, ios, payload["fleet"]),
                      _fleet_counts(payload))


def _run_sweep_cell(cell: Cell, runner: SweepRunner) -> CellRecord:
    started = time.perf_counter()
    try:
        outcome = runner.run_cells(cell.scenario, [cell.spec]).outcomes[0]
    except Exception as exc:  # a failed cell is counted, not fatal
        return CellRecord(cell.id, time.perf_counter() - started,
                          error=repr(exc))
    seconds = time.perf_counter() - started
    metrics = outcome.metrics
    ios = metrics["ios_completed"]
    error = "served from cache" if outcome.cached \
        else _sanity_error(cell, ios, metrics)
    return CellRecord(cell.id, seconds, digest(metrics), ios, error)


def run_pass(plan: Plan, workdir: Path,
             config: Optional[FleetRunConfig] = None,
             between: Optional[Callable[[int], None]] = None,
             ) -> list[CellRecord]:
    """Run every cell once, back to back, and time each one.

    Sweep cells run into a fresh, empty cache directory under ``workdir``
    that is removed after the pass.  Fleet cells run on ``config`` (default:
    the plan's run config).  A cell that raises or breaks a sanity invariant
    is recorded with an ``error``; the pass goes on.  ``between(done)`` is
    called before the first cell and after each one, outside the timings.
    """
    records: list[CellRecord] = []
    cache_dir = Path(tempfile.mkdtemp(prefix="sweep-cache-", dir=workdir))
    try:
        runner = SweepRunner(parallel=False, cache_dir=cache_dir)
        config = config or plan.run_config
        if between is not None:
            between(0)
        for cell in plan.cells:
            records.append(_run_fleet_cell(cell, config) if plan.is_fleet
                           else _run_sweep_cell(cell, runner))
            if between is not None:
                between(len(records))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return records
