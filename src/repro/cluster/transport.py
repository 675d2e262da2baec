"""Shard transports: how the coordinator exchanges batches with shards.

The conservative window loop in :mod:`repro.cluster.coordinator` is
transport-agnostic: it *posts* an advance grant to each shard (a closing
barrier time plus the :class:`ReplicaMessage` batch routed to it), *waits*
for the ``(outbound, peek, ran)`` response, and finally *collects* each
shard's metrics payload.  :class:`ShardTransport` is that contract; two
implementations ship:

* :class:`InProcessTransport` -- every shard is a plain in-process
  :class:`ShardWorker`.  The serial reference path and the test default;
  what ``auto`` picks for one shard or one usable CPU.
* :class:`SharedMemoryTransport` -- one worker process per shard, talking
  over ``multiprocessing.shared_memory`` ring buffers plus a lock-free
  barrier word per shard.  Workers spin-then-sleep on their command word;
  messages travel as fixed 64-byte struct-encoded slots; batches that
  outgrow the ring spill to a pipe side channel, so **correctness never
  depends on buffer size**.  What ``auto`` picks when the fleet has more
  than one shard and more than one CPU is usable.

The three execution knobs -- shard count, run-ahead window, transport --
live on one :class:`FleetRunConfig` dataclass, the only way to set them.

Safety notes for the shared-memory path:

* **Publish-after-write.**  A ring writer copies every slot byte first and
  only then advances the ``head`` counter; command/response words follow
  the same discipline (payload words first, sequence word last).  A reader
  polling the counter can therefore never observe a torn record.
* **Whole-word counters.**  Control words and ring counters are read and
  written as items of ``memoryview.cast("Q")``/``cast("d")`` views: one
  aligned 8-byte copy each.  ``struct.pack_into`` zero-fills a field
  before writing it, so a peer polling a word it rewrites could read a
  transient 0 (and re-run a command, or drain an empty ring).
* **Crash detection.**  The coordinator's wait loop checks worker
  liveness and an explicit error word while sleeping; a worker that dies
  mid-grant (or raises) surfaces as a clean ``RuntimeError`` naming the
  shard instead of a hang or a half-read batch.  Symmetrically, an idle
  worker whose coordinator died (even by ``SIGKILL``) notices it was
  reparented and exits, unlinking its segment.
"""

from __future__ import annotations

import os
import struct
import time
import traceback
from dataclasses import dataclass, fields, replace
from multiprocessing import Pipe, Process, shared_memory
from typing import Any, Optional, Sequence

from repro.cluster.shard import ReplicaMessage, ShardPlan, ShardWorker
from repro.cluster.topology import FleetTopology

__all__ = [
    "FleetRunConfig",
    "ShardTransport",
    "InProcessTransport",
    "SharedMemoryTransport",
    "MessageRing",
    "create_transport",
    "encode_message",
    "decode_message",
    "DEFAULT_RUN_AHEAD",
    "DEFAULT_SPIN_BUDGET",
    "DEFAULT_RING_SLOTS",
    "MAX_EPOCHS",
    "TRANSPORTS",
    "usable_cpus",
]

#: Safety bound on executed (non-skipped) epochs per run.
MAX_EPOCHS = 200_000

#: Default run-ahead window (epochs granted per task) for self-contained
#: shards.
DEFAULT_RUN_AHEAD = 16

#: Hot-spin iterations before a waiter starts sleeping (shared-memory
#: transport only).  Spinning wins when the peer answers in microseconds;
#: the sleep escalation (10us doubling to 1ms) keeps oversubscribed hosts
#: -- e.g. 4 shards on 1 core -- from burning the core the peer needs.
DEFAULT_SPIN_BUDGET = 2_000

#: Message slots per ring direction.  Purely a performance knob: batches
#: larger than the ring spill to the pipe side channel.
DEFAULT_RING_SLOTS = 1_024

#: Accepted ``FleetRunConfig.transport`` values.  ``auto`` resolves to
#: ``shm`` when there is more than one shard and more than one usable CPU,
#: and to ``local`` otherwise.
TRANSPORTS = ("auto", "local", "shm")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    exposes one (``taskset -c 0`` counts as 1), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# FleetRunConfig: every fleet-execution knob in one place
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetRunConfig:
    """Execution knobs for one fleet run, accepted uniformly by
    ``FleetCoordinator``, ``run_fleet``, ``SweepRunner``, the ``fleet`` /
    ``run`` / ``serve`` verbs, and ``kind: fleet`` config documents (as a
    ``run:`` block).

    None of these fields may change simulation *results*: bit-identity of
    the metrics payload across every combination is gated by the
    determinism tests.  They only trade coordination cost for parallelism.
    The synchronization window is physics, not an execution knob: it lives
    on the topology (``FleetTopology.epoch_us``).
    """

    #: Number of shard simulators (clamped to the device count).
    shards: int = 1
    #: Epochs granted per coordinator task to self-contained shards.
    #: ``run_ahead=1`` restores one-task-per-busy-epoch coordination.
    run_ahead: int = DEFAULT_RUN_AHEAD
    #: One of :data:`TRANSPORTS`.  ``auto`` picks ``shm`` for more than
    #: one shard on more than one usable CPU, else ``local``.
    transport: str = "auto"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.run_ahead < 1:
            raise ValueError("run_ahead must be >= 1")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(choose from {', '.join(TRANSPORTS)})")

    def merged(self, **overrides: Any) -> "FleetRunConfig":
        """A copy with every non-``None`` override applied, field by
        field (how runner-level settings land on a document's ``run:``
        block)."""
        changes = {key: value for key, value in overrides.items()
                   if value is not None}
        return replace(self, **changes) if changes else self

    def resolve_transport(self) -> str:
        """The concrete transport this config runs on *this* host."""
        if self.transport != "auto":
            return self.transport
        return "shm" if self.shards > 1 and usable_cpus() > 1 else "local"

    # -- pairs form: hashable non-default fields, used by CellSpec --------

    def to_pairs(self) -> tuple[tuple[str, Any], ...]:
        """Sorted ``(field, value)`` pairs for every non-default field --
        the hashable spelling stored on ``CellSpec.fleet_run``."""
        defaults = FleetRunConfig()
        return tuple(sorted(
            (f.name, getattr(self, f.name)) for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, Any]]) -> "FleetRunConfig":
        return cls(**dict(pairs))

    # -- document form: the ``run:`` block of ``kind: fleet`` documents ---

    def to_document(self) -> dict[str, Any]:
        """The ``run:`` block for config documents (non-default fields
        only, so the document round-trips losslessly)."""
        from repro.config import run_config_to_document
        return run_config_to_document(self)

    @classmethod
    def from_document(cls, document: Any, path: str = "run",
                      ) -> "FleetRunConfig":
        from repro.config import run_config_from_document
        return run_config_from_document(document, path=path)


# ---------------------------------------------------------------------------
# Compact struct encoding for ReplicaMessage ring slots
# ---------------------------------------------------------------------------

#: delivery_us f64, then six i64s (target_index, offset, size,
#: origin_index, origin_seq, delivery_epoch), then the kind byte.
_RECORD = struct.Struct("<dqqqqqqB")

#: Fixed slot width: the 57-byte record padded to a 64-byte boundary.
SLOT_SIZE = 64

_KIND_CODES = {"replica": 0, "rebuild": 1, "rebuild-read": 2}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


def encode_message(message: ReplicaMessage) -> bytes:
    """Pack one message into its fixed-width slot encoding."""
    return _RECORD.pack(message.delivery_us, message.target_index,
                        message.offset, message.size, message.origin_index,
                        message.origin_seq, message.delivery_epoch,
                        _KIND_CODES[message.kind])


def decode_message(buffer: Any, offset: int = 0) -> ReplicaMessage:
    """Unpack one message from its slot encoding."""
    (delivery_us, target_index, data_offset, size, origin_index,
     origin_seq, delivery_epoch, kind) = _RECORD.unpack_from(buffer, offset)
    return ReplicaMessage(delivery_us, target_index, data_offset, size,
                          origin_index, origin_seq, delivery_epoch,
                          _KIND_NAMES[kind])


# ---------------------------------------------------------------------------
# MessageRing: an SPSC ring of fixed-width slots over any writable buffer
# ---------------------------------------------------------------------------

class MessageRing:
    """Single-producer single-consumer ring of ``ReplicaMessage`` slots.

    ``head`` and ``tail`` are monotonically increasing *message counters*
    (not byte offsets) stored as native u64 words at the front of the
    buffer (the segment never leaves the host); slot ``n`` lives at
    ``(n % slots)``.  The writer copies every record byte **before**
    bumping ``head`` (publish-after-write), so a reader polling ``head``
    can never decode a torn record: a crash mid-copy leaves ``head``
    untouched and the partial slot invisible.

    :meth:`push` accepts as many messages as currently fit and reports the
    count -- the caller spills the remainder to its side channel.  The
    protocol is strictly request/response per shard, so producer and
    consumer never race on the same batch.
    """

    HEADER = 16  # head u64 + tail u64

    def __init__(self, buffer: Any, slots: int, offset: int = 0):
        if slots < 1:
            raise ValueError("ring needs at least one slot")
        self._buf = buffer
        self._slots = slots
        self._data = offset + self.HEADER
        #: ``[head, tail]`` as whole 8-byte words (see the module notes).
        self._counters = memoryview(buffer)[offset:self._data].cast("Q")

    @classmethod
    def size_for(cls, slots: int) -> int:
        return cls.HEADER + slots * SLOT_SIZE

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def head(self) -> int:
        return self._counters[0]

    @property
    def tail(self) -> int:
        return self._counters[1]

    def __len__(self) -> int:
        return self.head - self.tail

    def push(self, messages: Sequence[ReplicaMessage]) -> int:
        """Write as many messages as fit; returns the accepted count.

        The head counter is published only after every accepted slot is
        fully written.
        """
        head = self.head
        free = self._slots - (head - self.tail)
        accepted = min(free, len(messages))
        for index in range(accepted):
            slot = (head + index) % self._slots
            message = messages[index]
            _RECORD.pack_into(
                self._buf, self._data + slot * SLOT_SIZE,
                message.delivery_us, message.target_index, message.offset,
                message.size, message.origin_index, message.origin_seq,
                message.delivery_epoch, _KIND_CODES[message.kind])
        if accepted:
            self._counters[0] = head + accepted
        return accepted

    def drain(self, count: int) -> list[ReplicaMessage]:
        """Read exactly ``count`` published records, advancing ``tail``."""
        tail = self.tail
        available = self.head - tail
        if count > available:
            raise RuntimeError(
                f"ring drain of {count} messages but only {available} "
                "published (torn or missing write)")
        out = []
        for index in range(count):
            slot = (tail + index) % self._slots
            out.append(decode_message(self._buf,
                                      self._data + slot * SLOT_SIZE))
        if count:
            self._counters[1] = tail + count
        return out

    def release(self) -> None:
        """Drop the counter view so the underlying segment can close."""
        self._counters.release()


# ---------------------------------------------------------------------------
# The ShardTransport contract
# ---------------------------------------------------------------------------

class ShardTransport:
    """How the coordinator talks to its shards.

    The coordinator *posts* one advance grant per shard per round --
    ``(until_us, inbound batch)`` -- then *waits* for each
    ``(outbound, peek, ran)`` response; posting everything before waiting
    is what lets process transports run shards concurrently.  At the end
    of a run :meth:`collect_all` publishes every shard's metrics payload
    and :meth:`close` tears the transport down (idempotent; always called,
    even on error paths).  Batch order carries no meaning: the shard holds
    each message until its delivery barrier and sorts every barrier's
    batch by :func:`~repro.cluster.shard.inbox_order`.
    """

    #: Short name recorded in ``runtime["transport"]`` and bench entries.
    name = "abstract"

    def post(self, shard_id: int, until_us: Optional[float],
             inbound: Sequence[ReplicaMessage]) -> None:
        raise NotImplementedError

    def wait(self, shard_id: int,
             ) -> tuple[list[ReplicaMessage], float, int]:
        raise NotImplementedError

    def collect_all(self) -> list[dict[str, Any]]:
        raise NotImplementedError

    def scheduled_events(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class InProcessTransport(ShardTransport):
    """All shards as in-process objects (the serial / test path)."""

    name = "local"

    def __init__(self, topology: FleetTopology, plans: Sequence[ShardPlan]):
        self.workers = [ShardWorker(topology, plan) for plan in plans]
        self._results: dict[int, tuple] = {}

    def post(self, shard_id, until_us, inbound):
        self._results[shard_id] = self.workers[shard_id].advance(
            until_us, inbound)

    def wait(self, shard_id):
        return self._results.pop(shard_id)

    def collect_all(self):
        return [worker.collect() for worker in self.workers]

    def scheduled_events(self):
        return sum(worker.sim.scheduled_events for worker in self.workers)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# SharedMemoryTransport
# ---------------------------------------------------------------------------

# Control-block word indices (8-byte words; one block per shard).
_CTRL_COMMAND_SEQ = 0    # u64: coordinator bumps to post a command
_CTRL_ACK_SEQ = 1        # u64: worker sets == command_seq when done
_CTRL_OPCODE = 2         # u64: _OP_*
_CTRL_UNTIL = 3          # f64: barrier time (valid when _FLAG_UNTIL)
_CTRL_FLAGS = 4          # u64: _FLAG_*
_CTRL_IN_COUNT = 5       # u64: inbound batch size (ring + spill)
_CTRL_IN_SPILL = 6       # u64: inbound messages sent via the pipe
_CTRL_PEEK = 7           # f64: response peek (may be +inf)
_CTRL_RAN = 8            # u64: response executed-epoch count
_CTRL_OUT_COUNT = 9      # u64: response outbound size (ring + spill)
_CTRL_OUT_SPILL = 10     # u64: outbound messages sent via the pipe
_CTRL_STATE = 11         # u64: _STATE_*
_CTRL_SIZE = 12 * 8

_OP_ADVANCE = 1
_OP_COLLECT = 2
_OP_STOP = 3

_FLAG_UNTIL = 1          # until_us is set (else drain-to-completion)

_STATE_STARTING = 0
_STATE_READY = 1
_STATE_ERROR = 2

#: Sleep escalation for spin-then-sleep waiters: first sleep 10us,
#: doubling to a 1ms ceiling.
_SLEEP_FLOOR_S = 1e-5
_SLEEP_CEIL_S = 1e-3


def _control_words(buf) -> tuple[memoryview, memoryview]:
    """The control block at the front of ``buf`` as ``(u64, f64)`` word
    views; index them with the ``_CTRL_*`` constants."""
    block = memoryview(buf)[:_CTRL_SIZE]
    return block.cast("Q"), block.cast("d")


def _shm_worker_main(shm_name: str, ring_slots: int, spin_budget: int,
                     topology_json: str, plan_payload: dict,
                     conn) -> None:
    """Entry point of one shared-memory shard worker process."""
    parent = os.getppid()
    orphaned = False
    segment = shared_memory.SharedMemory(name=shm_name)
    buf = segment.buf
    words, reals = _control_words(buf)
    inbound = MessageRing(buf, ring_slots, offset=_CTRL_SIZE)
    outbound = MessageRing(buf, ring_slots,
                           offset=_CTRL_SIZE + MessageRing.size_for(ring_slots))
    try:
        try:
            worker = ShardWorker(FleetTopology.from_json(topology_json),
                                 ShardPlan.from_payload(plan_payload))
        except Exception:
            conn.send(("error", traceback.format_exc()))
            words[_CTRL_STATE] = _STATE_ERROR
            return
        words[_CTRL_STATE] = _STATE_READY
        last_seq = 0
        while True:
            # Spin-then-sleep on the command word.
            spins = 0
            delay = _SLEEP_FLOOR_S
            while words[_CTRL_COMMAND_SEQ] == last_seq:
                spins += 1
                if spins > spin_budget:
                    if os.getppid() != parent:
                        # The coordinator died without stopping us (e.g.
                        # SIGKILL): nobody will ever post again.
                        orphaned = True
                        return
                    time.sleep(delay)
                    delay = min(delay * 2, _SLEEP_CEIL_S)
            seq = words[_CTRL_COMMAND_SEQ]
            opcode = words[_CTRL_OPCODE]
            if opcode == _OP_STOP:
                words[_CTRL_ACK_SEQ] = seq
                return
            try:
                if opcode == _OP_COLLECT:
                    conn.send(("collect", worker.collect()))
                else:
                    total = words[_CTRL_IN_COUNT]
                    spill = words[_CTRL_IN_SPILL]
                    batch = inbound.drain(total - spill)
                    if spill:
                        tag, spilled = conn.recv()
                        assert tag == "spill", tag
                        batch.extend(spilled)
                    flags = words[_CTRL_FLAGS]
                    until = reals[_CTRL_UNTIL] if flags & _FLAG_UNTIL \
                        else None
                    out, peek, ran = worker.advance(until, batch)
                    pushed = outbound.push(out)
                    if pushed < len(out):
                        conn.send(("spill", out[pushed:]))
                    reals[_CTRL_PEEK] = peek
                    words[_CTRL_RAN] = ran
                    words[_CTRL_OUT_COUNT] = len(out)
                    words[_CTRL_OUT_SPILL] = len(out) - pushed
            except Exception:
                conn.send(("error", traceback.format_exc()))
                words[_CTRL_STATE] = _STATE_ERROR
                words[_CTRL_ACK_SEQ] = seq
                return
            # Publish-after-write: the response words above land before
            # the ack the coordinator polls on.
            words[_CTRL_ACK_SEQ] = seq
            last_seq = seq
    finally:
        inbound.release()
        outbound.release()
        words.release()
        reals.release()
        del inbound, outbound, words, reals, buf
        segment.close()
        if orphaned:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


class _ShmShard:
    """Coordinator-side handle for one shared-memory shard worker."""

    def __init__(self, shard_id: int, ring_slots: int, topology_json: str,
                 plan: ShardPlan, spin_budget: int):
        size = _CTRL_SIZE + 2 * MessageRing.size_for(ring_slots)
        self.segment = shared_memory.SharedMemory(create=True, size=size)
        self.segment.buf[:_CTRL_SIZE] = bytes(_CTRL_SIZE)
        self.words, self.reals = _control_words(self.segment.buf)
        self.shard_id = shard_id
        self.inbound = MessageRing(self.segment.buf, ring_slots,
                                   offset=_CTRL_SIZE)
        self.outbound = MessageRing(
            self.segment.buf, ring_slots,
            offset=_CTRL_SIZE + MessageRing.size_for(ring_slots))
        self.conn, child_conn = Pipe()
        self.process = Process(
            target=_shm_worker_main,
            args=(self.segment.name, ring_slots, spin_budget, topology_json,
                  plan.to_payload(), child_conn),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.seq = 0
        self.spin_budget = spin_budget

    def fail(self, doing: str) -> RuntimeError:
        """Turn a worker-side failure into a clean coordinator error."""
        state = self.words[_CTRL_STATE]
        detail = ""
        if state == _STATE_ERROR:
            try:
                while True:
                    tag, payload = self.conn.recv()
                    if tag == "error":
                        detail = f":\n{payload}"
                        break
            except (EOFError, OSError):
                pass
            return RuntimeError(
                f"shard {self.shard_id} worker failed while "
                f"{doing}{detail}")
        return RuntimeError(
            f"shard {self.shard_id} worker process died while {doing} "
            "(exitcode "
            f"{self.process.exitcode}); partial batches are never "
            "published, so no torn data was consumed")

    def wait_word(self, index: int, value: int, doing: str) -> None:
        """Spin-then-sleep until control word ``index`` equals ``value``;
        raise cleanly if the worker errored or died instead of answering."""
        words = self.words
        spins = 0
        delay = _SLEEP_FLOOR_S
        while words[index] != value:
            if words[_CTRL_STATE] == _STATE_ERROR:
                raise self.fail(doing)
            spins += 1
            if spins > self.spin_budget:
                if not self.process.is_alive():
                    raise self.fail(doing)
                time.sleep(delay)
                delay = min(delay * 2, _SLEEP_CEIL_S)

    def recv(self, expected_tag: str):
        tag, payload = self.conn.recv()
        if tag == "error":
            raise RuntimeError(
                f"shard {self.shard_id} worker failed:\n{payload}")
        assert tag == expected_tag, (tag, expected_tag)
        return payload

    def release(self) -> None:
        """Drop ring views and the segment mapping (idempotent)."""
        for view in (self.inbound, self.outbound, self.words, self.reals):
            if view is not None:
                view.release()
        self.inbound = self.outbound = self.words = self.reals = None
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            self.segment.close()
            self.segment.unlink()
        except FileNotFoundError:
            pass


class SharedMemoryTransport(ShardTransport):
    """Shared-memory ring transport: one segment per shard holding the
    barrier/control words plus an inbound and an outbound message ring;
    a duplex pipe per shard carries init errors, metric payloads, and
    ring-overflow spills.  See the module docstring for the safety
    discipline."""

    name = "shm"

    def __init__(self, topology: FleetTopology, plans: Sequence[ShardPlan],
                 spin_budget: int = DEFAULT_SPIN_BUDGET,
                 ring_slots: int = DEFAULT_RING_SLOTS):
        topology_json = topology.canonical()
        self._shards: list[_ShmShard] = []
        self._events = 0
        try:
            for plan in plans:
                self._shards.append(_ShmShard(
                    plan.shard_id, ring_slots, topology_json, plan,
                    spin_budget))
            for shard in self._shards:
                shard.wait_word(_CTRL_STATE, _STATE_READY, "initialising")
        except BaseException:
            self.close()
            raise

    def post(self, shard_id, until_us, inbound):
        shard = self._shards[shard_id]
        inbound = list(inbound)
        if until_us is not None:
            shard.reals[_CTRL_UNTIL] = until_us
        shard.words[_CTRL_FLAGS] = 0 if until_us is None else _FLAG_UNTIL
        shard.words[_CTRL_OPCODE] = _OP_ADVANCE
        pushed = shard.inbound.push(inbound)
        shard.words[_CTRL_IN_COUNT] = len(inbound)
        shard.words[_CTRL_IN_SPILL] = len(inbound) - pushed
        if pushed < len(inbound):
            shard.conn.send(("spill", inbound[pushed:]))
        shard.seq += 1
        # Publish-after-write: every command word above is in place
        # before the sequence bump the worker polls on.
        shard.words[_CTRL_COMMAND_SEQ] = shard.seq

    def wait(self, shard_id):
        shard = self._shards[shard_id]
        shard.wait_word(_CTRL_ACK_SEQ, shard.seq, "advancing")
        peek = shard.reals[_CTRL_PEEK]
        ran = shard.words[_CTRL_RAN]
        total = shard.words[_CTRL_OUT_COUNT]
        spill = shard.words[_CTRL_OUT_SPILL]
        outbound = shard.outbound.drain(total - spill)
        if spill:
            outbound.extend(shard.recv("spill"))
        return outbound, peek, ran

    def collect_all(self):
        for shard in self._shards:
            shard.words[_CTRL_OPCODE] = _OP_COLLECT
            shard.seq += 1
            shard.words[_CTRL_COMMAND_SEQ] = shard.seq
        payloads = []
        for shard in self._shards:
            payload = shard.recv("collect")
            shard.wait_word(_CTRL_ACK_SEQ, shard.seq, "collecting")
            payloads.append(payload)
        self._events = sum(payload["scheduled_events"] for payload in payloads)
        return payloads

    def scheduled_events(self):
        return self._events

    def close(self):
        for shard in self._shards:
            try:
                if shard.process.is_alive():
                    shard.words[_CTRL_OPCODE] = _OP_STOP
                    shard.seq += 1
                    shard.words[_CTRL_COMMAND_SEQ] = shard.seq
            except (ValueError, OSError):
                pass  # segment already gone
            shard.process.join(timeout=2.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2.0)
            shard.release()
        self._shards = []


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

def create_transport(kind: str, topology: FleetTopology,
                     plans: Sequence[ShardPlan]) -> ShardTransport:
    """Build a concrete transport; ``kind`` must already be resolved
    (``local`` / ``shm`` -- see :meth:`FleetRunConfig.resolve_transport`)."""
    if kind == "local":
        return InProcessTransport(topology, plans)
    if kind == "shm":
        return SharedMemoryTransport(topology, plans)
    raise ValueError(f"unknown transport {kind!r} (choose from local, shm)")


def coupling_components(topology: FleetTopology,
                        owner: dict[int, int],
                        shards: int) -> list[list[int]]:
    """Partition shard ids into coupling components: shards joined by a
    cross-shard replication edge (or a fault group/spare pair -- see
    :meth:`~repro.cluster.topology.FleetTopology.coupling_spans`) may
    exchange messages and share one-epoch windows; a singleton component
    can never see cross-shard traffic and gets ``run_ahead``-epoch
    windows.  Union-find over shard ids, deterministic order."""
    parent = list(range(shards))

    def find(sid: int) -> int:
        while parent[sid] != sid:
            parent[sid] = parent[parent[sid]]
            sid = parent[sid]
        return sid

    def union(members: set[int]) -> None:
        roots = sorted(find(sid) for sid in members)
        for root in roots[1:]:
            parent[root] = roots[0]

    for span in topology.coupling_spans():
        union({owner[index] for index in span})

    components: dict[int, list[int]] = {}
    for sid in range(shards):
        components.setdefault(find(sid), []).append(sid)
    return [components[root] for root in sorted(components)]
