"""Partition a fleet topology into shards and drive them over epochs.

Partitioning (:func:`partition_topology`) is **device-affinity** based:
replication edges connect groups into clusters (union-find), whole clusters
are placed onto the least-loaded shard first (so edges stay intra-shard
whenever the cluster count allows), and only when shards would otherwise
sit empty is a shard's device list split at device granularity.  A shard
that still owns nothing (a macro group is one unsplittable atom) is
dropped, so a run may end up with fewer shards than requested.

Execution (:class:`FleetCoordinator`) is the conservative synchronisation
of Chandy & Misra (1979) over **coupling components**
(:func:`~repro.cluster.transport.coupling_components`): shard pairs joined
by a cross-shard replication edge (or a fault group/spare pair) may
exchange messages and must synchronise; shards no split edge touches can
never see cross-shard traffic.  Every shard runs the same stepper
(:meth:`~repro.cluster.shard.ShardWorker.advance`): it steps barrier to
barrier inside a granted window, holding each message -- its own or one
the coordinator forwarded -- until its ``delivery_epoch`` barrier and
injecting every barrier's batch sorted by the layout-independent key
``(delivery_us, origin_index, origin_seq)``.  The coordinator keeps one
window cursor per group of shards, and the lookahead is the window width:

* all singleton components (every edge/fault that touches the shard is
  intra-shard -- the common case: device-affinity placement glues edge
  clusters together) share one cursor with ``run_ahead``-epoch windows,
  so coordination drops from one task per shard per busy epoch to one
  per shard per window;
* each multi-shard component has its own cursor with one-epoch windows,
  so a split edge only holds back the shards it actually couples;
* a fleet with no edges and no faults gets one unbounded window.

The coordinator only routes each emitted message to the shard owning its
target device, with that shard's next grant.  Because seeds, replica
delivery times, and injection order all derive from logical identities
(never from the shard layout, the granted windows, or the transport),
``shards=1`` is bit-identical to any ``shards=N`` run -- and ``shards=1``
in-process *is* the serial path.

How grants and responses physically move between coordinator and shards
is the :class:`~repro.cluster.transport.ShardTransport` contract
(in-process calls or shared-memory rings to one worker process per shard
-- see :mod:`repro.cluster.transport`); every knob
lives on :class:`~repro.cluster.transport.FleetRunConfig`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Optional

from repro.cluster.metrics import merge_shard_payloads
from repro.cluster.shard import ReplicaMessage, ShardPlan
from repro.cluster.topology import FleetTopology
from repro.cluster.transport import (
    DEFAULT_RUN_AHEAD,
    MAX_EPOCHS,
    FleetRunConfig,
    coupling_components,
    create_transport,
    usable_cpus,
)

__all__ = ["partition_topology", "FleetCoordinator", "FleetRunConfig",
           "run_fleet", "run_fleet_serial", "MAX_EPOCHS",
           "DEFAULT_RUN_AHEAD"]

# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_topology(topology: FleetTopology, shards: int) -> list[ShardPlan]:
    """Split the fleet's devices into at most ``shards`` non-empty
    device-affinity slices, numbered ``0..k-1``."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, topology.total_devices)
    group_names = [group.name for group in topology.groups]
    position = {name: index for index, name in enumerate(group_names)}

    # Union-find over groups: replication edges glue groups into clusters.
    parent = {name: name for name in group_names}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    couplings = [(edge.source, edge.target) for edge in topology.edges]
    # A hot-spare promotion couples the failed group to its spare group the
    # same way a replication edge couples source to target: rebuild traffic
    # flows between them, so affinity placement keeps them on one shard.
    couplings.extend((fault.group, fault.spare) for fault in topology.faults
                     if fault.spare is not None)
    for source, target in couplings:
        root_a, root_b = find(source), find(target)
        if root_a != root_b:
            # Deterministic union: the earlier-declared group wins.
            if position[root_a] > position[root_b]:
                root_a, root_b = root_b, root_a
            parent[root_b] = root_a

    clusters: dict[str, list[str]] = {}
    for name in group_names:
        clusters.setdefault(find(name), []).append(name)

    sizes = {root: sum(topology.group(name).count for name in members)
             for root, members in clusters.items()}
    # Largest clusters first; ties resolved by declaration order.
    order = sorted(clusters, key=lambda root: (-sizes[root], position[root]))

    assignments: list[list[int]] = [[] for _ in range(shards)]
    for root in order:
        target = min(range(shards), key=lambda sid: (len(assignments[sid]), sid))
        for name in clusters[root]:
            assignments[target].extend(topology.group_indices(name))

    # Fill empty shards (more shards than clusters) by halving the heaviest
    # slice at device granularity -- this may break an edge across shards,
    # which the message-passing loop handles.  A macro group, however, is
    # one indivisible aggregate: splits shift to the nearest atom boundary,
    # and a slice that is one single macro atom simply cannot donate.
    macro_atom: dict[int, int] = {}
    for macro_group in topology.macro_groups():
        indices = topology.group_indices(macro_group.name)
        for index in indices:
            macro_atom[index] = indices[0]

    def _valid_split(devices: list[int], keep: int) -> bool:
        if keep < 1 or keep >= len(devices):
            return False
        left, right = devices[keep - 1], devices[keep]
        return macro_atom.get(left, -1) != macro_atom.get(right, -2)

    while any(not plan for plan in assignments):
        empty = next(sid for sid in range(shards) if not assignments[sid])
        split = None
        for donor in sorted(range(shards),
                            key=lambda sid: (-len(assignments[sid]), sid)):
            devices = assignments[donor]
            if len(devices) < 2:
                break  # heaviest slice already minimal: nothing can donate
            half = len(devices) // 2
            for offset in range(half + 1):
                for keep in (half - offset, half + offset):
                    if _valid_split(devices, keep):
                        split = (donor, keep)
                        break
                if split:
                    break
            if split:
                break
        if split is None:
            break
        donor, keep = split
        assignments[empty] = assignments[donor][keep:]
        assignments[donor] = assignments[donor][:keep]

    return [ShardPlan(shard_id=sid, device_indices=tuple(sorted(indices)))
            for sid, indices in enumerate(filter(None, assignments))]


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class FleetCoordinator:
    """Runs a :class:`FleetTopology` over shard simulators.

    Every execution knob -- shard count, run-ahead window, transport --
    lives on the :class:`~repro.cluster.transport.FleetRunConfig` passed
    as ``config`` (default: one in-process shard).  In-process and
    worker-process shards run the same ShardWorker code, so every
    transport produces byte-identical payloads.
    """

    def __init__(self, config: Optional[FleetRunConfig] = None):
        self.config = config if config is not None else FleetRunConfig()

    def run(self, topology: FleetTopology) -> dict[str, Any]:
        """Execute the fleet and return the merged metrics payload.

        The payload's ``fleet`` / ``tenants`` / ``groups`` sections are
        bit-identical across shard counts, transports, and run-ahead
        windows; wall-clock and coordination data live under ``runtime``.
        """
        config = self.config
        plans = partition_topology(topology, config.shards)
        owner = {index: plan.shard_id for plan in plans
                 for index in plan.device_indices}
        started = time.perf_counter()
        transport_kind = config.merged(shards=len(plans)).resolve_transport()
        transport = create_transport(transport_kind, topology, plans)
        components = coupling_components(topology, owner, len(plans))
        lockstep = [component for component in components
                    if len(component) > 1]
        batched = bool(topology.edges or topology.faults) and not lockstep
        try:
            epochs, rounds, tasks = self._run_windows(
                topology, len(plans), owner, transport, components)
            payloads = transport.collect_all()
            events = transport.scheduled_events()
        finally:
            transport.close()
        wall_s = time.perf_counter() - started
        result = merge_shard_payloads(topology, payloads)
        result["runtime"] = {
            "shards": len(plans),
            "transport": transport_kind,
            "epochs": epochs,
            "batched": batched,
            "run_ahead": config.run_ahead,
            "components": len(components),
            "lockstep_shards": sum(len(component)
                                   for component in lockstep),
            "coordinator_rounds": rounds,
            "coordination_tasks": tasks,
            "wall_s": wall_s,
            "scheduled_events": events,
            "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
            "cpu_count": usable_cpus(),
            "partition": [list(plan.device_indices) for plan in plans],
        }
        return result

    def _run_windows(self, topology: FleetTopology, shards: int, owner,
                     transport, components) -> tuple[int, int, int]:
        """Grant windows until every shard is drained; return ``(epochs,
        rounds, tasks)``.

        A window ends at ``max(cursor, floor(earliest / epoch_us)) +
        width``, where ``earliest`` is the minimum of the members' peeks
        and of the delivery times of messages routed to them but not yet
        posted: idle epochs are skipped, and nothing emitted inside the
        window can be due before its closing barrier.  Singletons are
        granted only while live (``peek < inf``; nothing can revive one);
        every member of a coupled component is granted each round, so
        routed messages always ride the next round.  Every round posts
        all grants before waiting on any, so shards advance concurrently
        on process transports."""
        epoch_us = topology.epoch_us
        bounded = bool(topology.edges or topology.faults)
        singles = [component[0] for component in components
                   if len(component) == 1]
        #: (members, window width in epochs, coupled), one cursor each.
        windows = [(singles, self.config.run_ahead, False)] if singles else []
        windows.extend((component, 1, True) for component in components
                       if len(component) > 1)
        cursors = [0] * len(windows)
        peeks = [0.0] * shards
        executed = [0] * shards
        routed: list[list[ReplicaMessage]] = [[] for _ in range(shards)]
        rounds = 0
        tasks = 0
        while True:
            grants: dict[int, Optional[float]] = {}
            for slot, (members, width, coupled) in enumerate(windows):
                earliest = min([peeks[sid] for sid in members]
                               + [message.delivery_us for sid in members
                                  for message in routed[sid]])
                if earliest == math.inf:
                    continue
                until_us = None
                if bounded:
                    cursors[slot] = width + max(
                        cursors[slot], math.floor(earliest / epoch_us))
                    until_us = cursors[slot] * epoch_us
                for sid in members:
                    if coupled or peeks[sid] != math.inf:
                        grants[sid] = until_us
            if not grants:
                return max(executed), rounds, tasks
            rounds += 1
            tasks += len(grants)
            for sid in sorted(grants):
                transport.post(sid, grants[sid], routed[sid])
                routed[sid] = []
            for sid in sorted(grants):
                outbound, peek, ran = transport.wait(sid)
                peeks[sid] = peek
                executed[sid] += ran
                for message in outbound:
                    routed[owner[message.target_index]].append(message)
            if max(executed) > MAX_EPOCHS:
                raise RuntimeError(
                    f"fleet {topology.name!r} exceeded {MAX_EPOCHS} "
                    f"epochs (epoch_us={epoch_us}); raise fleet.epoch_us")


def run_fleet(topology: FleetTopology,
              config: Optional[FleetRunConfig] = None) -> dict[str, Any]:
    """Run ``topology`` under ``config`` and return the merged metrics
    payload -- the one-call entry point."""
    return FleetCoordinator(config=config).run(topology)


def run_fleet_serial(topology: FleetTopology) -> dict[str, Any]:
    """The serial reference path: the whole fleet in one in-process shard."""
    return run_fleet(topology, FleetRunConfig(transport="local"))
