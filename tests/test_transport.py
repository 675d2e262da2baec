"""Tests for the shard transport layer (repro.cluster.transport).

Three layers of coverage:

* The ``MessageRing`` wire format in isolation: wraparound, overflow
  spill accounting, torn/missing-write detection, and a hypothesis
  property that any interleaving of batched sends drains in the exact
  send order regardless of ring size.
* ``SharedMemoryTransport`` process machinery: forced overflow spills
  (one-slot rings), crashed-worker detection, and clean teardown.
* The cross-transport contract: serial, executor, and shared-memory
  runs of the same topology -- including faults, spares, and macro
  groups -- must produce bit-identical metrics payloads.
"""

import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FleetCoordinator,
    FleetRunConfig,
    SharedMemoryTransport,
    edge,
    fault,
    fleet,
    group,
    partition_topology,
    run_fleet,
    run_fleet_serial,
    tenant,
)
from repro.cluster.shard import ReplicaMessage
from repro.cluster.transport import (
    MessageRing,
    coupling_components,
    create_transport,
    decode_message,
    encode_message,
)

MINI_CAPACITY = 1 << 24


def mini_fleet(**changes):
    topology = fleet(
        "transport-under-test",
        groups=[
            group("web", "LOOP", 4, capacity_bytes=MINI_CAPACITY),
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=12),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=10),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        epoch_us=200.0,
        seed=7,
    )
    return topology.scaled(**changes) if changes else topology


def faulted_fleet():
    return fleet(
        "transport-faults-under-test",
        groups=[
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("spare", "LOOP", 2, capacity_bytes=MINI_CAPACITY,
                  preload=False),
        ],
        tenants=[
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=12),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        faults=[fault("fail", "db", at_us=150.0, device=0,
                      repair_after_us=600.0, spare="spare")],
        epoch_us=200.0,
        seed=11,
    )


def macro_fleet():
    return fleet(
        "transport-macro-under-test",
        groups=[
            group("web", "LOOP", 4, capacity_bytes=MINI_CAPACITY,
                  mode="macro"),
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=12),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=10),
        ],
        epoch_us=200.0,
        seed=13,
    )


def strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


def message(seq: int, kind: str = "replica") -> ReplicaMessage:
    return ReplicaMessage(
        delivery_us=200.0 * (seq // 3 + 1), target_index=seq % 7,
        offset=seq * 4096, size=4096, origin_index=seq % 3, origin_seq=seq,
        delivery_epoch=seq // 3 + 1, kind=kind)


# ---------------------------------------------------------------------------
# Slot encoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["replica", "rebuild", "rebuild-read"])
def test_encode_decode_roundtrip(kind):
    original = message(41, kind=kind)
    assert decode_message(bytearray(encode_message(original))) == original


def test_encode_rejects_unknown_kind():
    with pytest.raises(KeyError):
        encode_message(message(0)._replace(kind="gossip"))


# ---------------------------------------------------------------------------
# MessageRing
# ---------------------------------------------------------------------------

def make_ring(slots: int) -> MessageRing:
    return MessageRing(bytearray(MessageRing.size_for(slots)), slots)


def test_ring_fifo_across_wraparound():
    ring = make_ring(4)
    sent = []
    received = []
    seq = 0
    # 4-slot ring, 3-message batches: the write pointer wraps every other
    # batch, exercising every slot alignment.
    for _ in range(10):
        batch = [message(seq + i) for i in range(3)]
        seq += 3
        assert ring.push(batch) == 3
        sent.extend(batch)
        received.extend(ring.drain(3))
    assert received == sent
    # head/tail are monotonic message counters, not wrapped offsets.
    assert ring.head == ring.tail == 30


def test_ring_overflow_reports_accepted_count():
    ring = make_ring(4)
    batch = [message(i) for i in range(7)]
    accepted = ring.push(batch)
    assert accepted == 4
    assert len(ring) == 4
    assert ring.drain(4) == batch[:4]
    # The spilled remainder re-enters on the next push, in order.
    assert ring.push(batch[accepted:]) == 3
    assert ring.drain(3) == batch[4:]


def test_ring_full_accepts_nothing():
    ring = make_ring(2)
    assert ring.push([message(0), message(1)]) == 2
    assert ring.push([message(2)]) == 0
    assert len(ring) == 2


def test_ring_drain_beyond_published_raises():
    ring = make_ring(4)
    ring.push([message(0)])
    with pytest.raises(RuntimeError, match="only 1 published"):
        ring.drain(2)
    # The failed drain consumed nothing.
    assert ring.drain(1) == [message(0)]


def test_ring_needs_a_slot():
    with pytest.raises(ValueError):
        make_ring(0)


@settings(max_examples=60, deadline=None)
@given(
    batch_sizes=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                         max_size=12),
    slots=st.integers(min_value=1, max_value=8),
)
def test_ring_plus_spill_preserves_send_order(batch_sizes, slots):
    """The transport discipline -- push what fits, spill the rest, reader
    drains the ring part then appends the spill -- must hand every batch
    to the reader in exact send order for *any* ring size."""
    ring = make_ring(slots)
    seq = 0
    for size in batch_sizes:
        batch = [message(seq + i) for i in range(size)]
        seq += size
        pushed = ring.push(batch)
        spill = batch[pushed:]
        received = ring.drain(len(batch) - len(spill)) + spill
        assert received == batch


def _rewrite_ring_counters(shm_name: str, slots: int) -> None:
    """Child process: push and drain one message at a time until the last
    byte of the segment turns non-zero, so ``head`` and ``tail`` are
    rewritten (never to 0) as fast as the ring allows."""
    segment = shared_memory.SharedMemory(name=shm_name)
    ring = MessageRing(segment.buf, slots)
    stop = MessageRing.size_for(slots)
    batch = [message(1)]
    try:
        while not segment.buf[stop]:
            ring.push(batch)
            ring.drain(1)
    finally:
        del ring  # frees its view of the segment before close()
        segment.close()


def test_ring_counters_are_never_read_torn_across_processes():
    """A reader polling a counter the other process keeps rewriting must
    only ever see whole values.  ``struct.pack_into`` zero-fills a field
    before writing it, so a poller could read a transient 0 -- the shard
    worker then re-ran a command and the coordinator failed with "ring
    drain of N messages but only 0 published"."""
    slots = 4
    segment = shared_memory.SharedMemory(
        create=True, size=MessageRing.size_for(slots) + 8)
    segment.buf[:] = bytes(segment.size)
    ring = MessageRing(segment.buf, slots)
    ring.push([message(0)])
    ring.drain(1)  # head == tail == 1 before the writer starts
    writer = multiprocessing.Process(
        target=_rewrite_ring_counters, args=(segment.name, slots))
    writer.start()
    torn = reads = 0
    try:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            for _ in range(1000):
                if ring.head == 0 or ring.tail == 0:
                    torn += 1
            reads += 1000
    finally:
        segment.buf[MessageRing.size_for(slots)] = 1
        writer.join(timeout=10)
        if writer.is_alive():
            writer.terminate()
        del ring  # frees its view of the segment before close()
        segment.close()
        segment.unlink()
    assert writer.exitcode == 0
    assert torn == 0, f"{torn} torn counter reads out of {reads}"


# ---------------------------------------------------------------------------
# FleetRunConfig
# ---------------------------------------------------------------------------

def test_run_config_validation():
    for bad in (dict(shards=0), dict(run_ahead=0), dict(epoch_us=0.0),
                dict(transport="carrier-pigeon"), dict(spin_budget=-1),
                dict(max_epochs=0)):
        with pytest.raises(ValueError):
            FleetRunConfig(**bad)


def test_run_config_merged_skips_none():
    config = FleetRunConfig(shards=4, run_ahead=8)
    assert config.merged(shards=None, transport=None) is config
    merged = config.merged(transport="shm", run_ahead=2)
    assert (merged.shards, merged.run_ahead, merged.transport) == (4, 2, "shm")


def test_run_config_transport_resolution():
    assert FleetRunConfig(shards=1).resolve_transport() == "local"
    assert FleetRunConfig(shards=4, processes=False) \
        .resolve_transport() == "local"
    # An explicit transport always wins over the processes alias.
    assert FleetRunConfig(shards=4, processes=False, transport="shm") \
        .resolve_transport() == "shm"
    resolved = FleetRunConfig(shards=4).resolve_transport()
    assert resolved == ("shm" if (os.cpu_count() or 1) > 1 else "executor")


def test_run_config_pairs_roundtrip():
    config = FleetRunConfig(shards=3, transport="executor", run_ahead=4)
    pairs = config.to_pairs()
    assert dict(pairs) == {"shards": 3, "transport": "executor",
                           "run_ahead": 4}
    assert FleetRunConfig.from_pairs(pairs) == config
    assert FleetRunConfig().to_pairs() == ()


def test_coordinator_kwargs_are_aliases_for_config():
    via_kwargs = FleetCoordinator(shards=2, processes=False, run_ahead=4)
    via_config = FleetCoordinator(
        config=FleetRunConfig(shards=2, processes=False, run_ahead=4))
    assert via_kwargs.config == via_config.config
    # Kwargs override the config they ride along with.
    assert FleetCoordinator(config=FleetRunConfig(shards=2),
                            shards=5).config.shards == 5


# ---------------------------------------------------------------------------
# Coupling components
# ---------------------------------------------------------------------------

def test_components_are_singletons_without_edges_or_faults():
    topology = mini_fleet().scaled(edges=())
    plans = partition_topology(topology, 3)
    owner = {i: p.shard_id for p in plans for i in p.device_indices}
    components = coupling_components(topology, owner, len(plans))
    assert components == [[0], [1], [2]]


def test_edge_couples_its_shards_only():
    topology = mini_fleet()
    plans = partition_topology(topology, 3)
    owner = {i: p.shard_id for p in plans for i in p.device_indices}
    components = coupling_components(topology, owner, len(plans))
    db_shards = {owner[i] for i in topology.group_indices("db")}
    mirror_shards = {owner[i] for i in topology.group_indices("mirror")}
    web_shards = {owner[i] for i in topology.group_indices("web")}
    coupled = db_shards | mirror_shards
    assert sorted(coupled) in components
    for sid in web_shards - coupled:
        assert [sid] in components


def test_fault_spare_pair_is_coupled():
    topology = faulted_fleet()
    plans = partition_topology(topology, len(topology.groups))
    owner = {i: p.shard_id for p in plans for i in p.device_indices}
    components = coupling_components(topology, owner, len(plans))
    touched = {owner[i] for i in topology.group_indices("db")}
    touched |= {owner[i] for i in topology.group_indices("spare")}
    component = next(c for c in components if touched <= set(c))
    assert len(component) >= len(touched)


# ---------------------------------------------------------------------------
# Cross-transport bit-identity (the non-negotiable contract)
# ---------------------------------------------------------------------------

#: Process transports spin-wait; on oversubscribed CI hosts a tiny spin
#: budget keeps workers sleeping instead of stealing the peer's core.
_TEST_SPIN = 50


@pytest.mark.parametrize("transport", ["local", "executor", "shm"])
@pytest.mark.parametrize("shards", [2, 3])
def test_transports_are_bit_identical_to_serial(transport, shards):
    reference = strip_runtime(run_fleet_serial(mini_fleet()))
    payload = run_fleet(mini_fleet(), shards=shards, transport=transport,
                        spin_budget=_TEST_SPIN)
    assert payload["runtime"]["transport"] == transport
    assert strip_runtime(payload) == reference


@pytest.mark.parametrize("transport", ["executor", "shm"])
def test_faulted_fleet_identical_across_transports(transport):
    reference = strip_runtime(run_fleet_serial(faulted_fleet()))
    payload = run_fleet(faulted_fleet(), shards=2, transport=transport,
                        spin_budget=_TEST_SPIN)
    assert strip_runtime(payload) == reference


def test_macro_fleet_identical_across_transports():
    reference = strip_runtime(run_fleet_serial(macro_fleet()))
    for transport in ("local", "shm"):
        payload = run_fleet(macro_fleet(), shards=2, transport=transport,
                            spin_budget=_TEST_SPIN)
        assert strip_runtime(payload) == reference


@pytest.mark.parametrize("run_ahead", [1, 4, 64])
def test_mixed_gear_run_ahead_is_bit_identical(run_ahead):
    """mini_fleet at 3 shards splits into one lockstep pair (db+mirror,
    coupled by the replication edge) and singleton web shards that keep
    batched run-ahead windows -- both gears in one run."""
    reference = strip_runtime(run_fleet_serial(mini_fleet()))
    payload = run_fleet(mini_fleet(), shards=3, transport="local",
                        run_ahead=run_ahead)
    runtime = payload["runtime"]
    assert runtime["components"] == 2
    assert runtime["lockstep_shards"] == 2
    assert strip_runtime(payload) == reference


# ---------------------------------------------------------------------------
# SharedMemoryTransport machinery
# ---------------------------------------------------------------------------

def test_shm_overflow_spills_to_side_channel(monkeypatch):
    """One-slot rings force every multi-message batch through the pipe
    side channel; the run must still be bit-identical to serial."""
    import repro.cluster.coordinator as coordinator_module

    def tiny_rings(kind, topology, plans, spin_budget):
        return create_transport(kind, topology, plans,
                                spin_budget=spin_budget, ring_slots=1)

    monkeypatch.setattr(coordinator_module, "create_transport", tiny_rings)
    reference = strip_runtime(run_fleet_serial(mini_fleet()))
    payload = run_fleet(mini_fleet(), shards=2, transport="shm",
                        spin_budget=_TEST_SPIN)
    assert strip_runtime(payload) == reference


def test_shm_crashed_worker_raises_cleanly():
    topology = mini_fleet()
    plans = partition_topology(topology, 2)
    transport = SharedMemoryTransport(topology, plans,
                                      spin_budget=_TEST_SPIN)
    try:
        victim = transport._shards[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        transport.post(0, topology.epoch_us, [])
        with pytest.raises(RuntimeError, match="died.*no torn data"):
            transport.wait(0)
    finally:
        transport.close()


def test_shm_worker_init_error_raises_cleanly():
    topology = mini_fleet()
    plans = partition_topology(topology, 2)
    bad = plans[1].to_payload()
    bad["device_indices"] = [10 ** 9]
    from repro.cluster.shard import ShardPlan

    with pytest.raises(RuntimeError, match="shard 1 worker failed"):
        SharedMemoryTransport(
            topology, [plans[0], ShardPlan.from_payload(bad)],
            spin_budget=_TEST_SPIN)


def test_shm_close_is_idempotent():
    topology = mini_fleet()
    plans = partition_topology(topology, 2)
    transport = SharedMemoryTransport(topology, plans,
                                      spin_budget=_TEST_SPIN)
    transport.close()
    transport.close()
    assert transport._shards == []
