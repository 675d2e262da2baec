"""Timer-wheel edge cases.

The wheel buckets near-future deadlines in exact-deadline slots and moves
a whole slot onto the immediate deque when the clock reaches it; far-future
deadlines cascade straight to the heap.  These tests pin the corners of
that design: timeouts cancelled (interrupted) while they sit on the wheel,
the slot-vs-heap cascade at the horizon boundary, interleaving with
zero-delay FIFO events, and the schedule-introspection helpers.  The
trace workloads (``TRACE_WORKLOADS``) must reproduce the traces recorded
in ``tests/golden/kernel_traces.json`` on both the wheel and the heap-only
(zero horizon) schedule.
"""

import pytest
from golden_fixtures import assert_trace_matches

from repro.sim import Interrupt, Simulator
from repro.sim.engine import DEFAULT_WHEEL_HORIZON_US, EmptySchedule


def golden_trace(name):
    """Check workload ``name`` against its recorded trace on every
    schedule; return the recorded trace."""
    return assert_trace_matches("test_sim_wheel", TRACE_WORKLOADS, name)


# ---------------------------------------------------------------------------
# Cancellation while on the wheel
# ---------------------------------------------------------------------------

def _trace_cancelled_on_wheel(sim):
    log = []

    def sleeper(label):
        try:
            yield sim.timeout(10.0)
            log.append((sim.now, label, "woke"))
        except Interrupt as interrupt:
            log.append((sim.now, label, f"interrupted:{interrupt.cause}"))
            yield sim.timeout(10.0)
            log.append((sim.now, label, "woke-late"))

    victims = [sim.process(sleeper(label)) for label in "abc"]

    def canceller():
        yield sim.timeout(4.0)
        victims[1].interrupt("cancel")

    sim.process(canceller())
    sim.run()
    return log


def test_timeout_cancelled_while_on_the_wheel_fires_harmlessly():
    """Interrupting a process detaches it from the timeout it waits on; the
    timeout stays scheduled in its wheel slot and must fire as a no-op
    without perturbing the ordering of its slot neighbours."""
    wheel = golden_trace("cancelled_on_wheel")
    assert [4.0, "b", "interrupted:cancel"] in wheel
    assert [14.0, "b", "woke-late"] in wheel
    # The uncancelled slot neighbours still fire at the original deadline.
    assert [entry for entry in wheel if entry[0] == 10.0] == \
        [[10.0, "a", "woke"], [10.0, "c", "woke"]]


def test_cancelled_slot_timeout_does_not_block_run_completion():
    """A wheel slot whose only entry lost its callbacks must still drain."""
    sim = Simulator()

    def sleeper():
        yield sim.timeout(5.0)

    process = sim.process(sleeper())
    sim.run(until=1.0)
    process.interrupt()
    with pytest.raises(Interrupt):  # uncaught interrupt surfaces from run()
        sim.run()
    # The orphaned timeout still sits in its slot; a follow-up run drains
    # it as a harmless no-op instead of wedging the schedule.
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0 and sim.now == 5.0


# ---------------------------------------------------------------------------
# Horizon boundary: wheel slots vs heap cascade
# ---------------------------------------------------------------------------

def test_delays_beyond_the_horizon_cascade_to_the_heap():
    sim = Simulator(wheel_horizon_us=100.0)
    sim.timeout(100.0)   # at the horizon: wheel slot
    sim.timeout(100.0)   # same deadline: same slot, no new slot time
    sim.timeout(100.1)   # beyond: straight to the heap
    assert len(sim._wheel_times) == 1
    assert len(sim._wheel_buckets[100.0]) == 2
    assert len(sim._queue) == 1
    assert sim.pending_events == 3
    assert sim.peek() == 100.0


def _trace_same_deadline_merge(sim):
    log = []

    def waiter(label, start, delay):
        yield sim.timeout(start)
        yield sim.timeout(delay)
        log.append((sim.now, label))
        yield sim.timeout(0)
        log.append((sim.now, label + "-relay"))

    # Both reach t=200: "far" schedules 200 out at t=0 (heap), "near"
    # schedules 50 out at t=150 (wheel slot).
    sim.process(waiter("far", 0.0, 200.0))
    sim.process(waiter("near", 150.0, 50.0))
    sim.run()
    return log


def test_wheel_and_heap_entries_at_the_same_deadline_merge_by_sequence():
    """The same absolute deadline can be reached from the heap (scheduled
    when it was beyond the horizon) and from a wheel slot (scheduled
    closer in); processing must follow scheduling order exactly."""
    log = golden_trace("same_deadline_merge")
    assert [label for _, label in log] == \
        ["far", "near", "far-relay", "near-relay"]


def test_default_horizon_is_generous_but_finite():
    sim = Simulator()
    sim.timeout(DEFAULT_WHEEL_HORIZON_US)
    sim.timeout(DEFAULT_WHEEL_HORIZON_US * 2)
    assert len(sim._wheel_times) == 1 and len(sim._queue) == 1


# ---------------------------------------------------------------------------
# Zero-delay FIFO interleaving
# ---------------------------------------------------------------------------

def _trace_slot_batch_fifo(sim):
    log = []

    def ticker(label, delay):
        yield sim.timeout(delay)
        log.append((sim.now, label))
        yield sim.timeout(0)
        log.append((sim.now, label + "-echo"))

    for index in range(4):
        sim.process(ticker(f"t{index}", 7.0))
    sim.run()
    return log


def test_slot_batch_preserves_fifo_against_zero_delay_events():
    """When a slot's deadline arrives, its entries must run before any
    zero-delay event scheduled *by* them, but after zero-delay events of a
    same-time heap dispatch that preceded the slot by sequence number."""
    log = golden_trace("slot_batch_fifo")
    # All four timeouts share one slot and fire in creation order, then the
    # zero-delay echoes follow in the same order.
    assert [label for _, label in log] == \
        ["t0", "t1", "t2", "t3", "t0-echo", "t1-echo", "t2-echo", "t3-echo"]


def _trace_sub_resolution(sim):
    order = []

    def proc():
        tiny = sim.timeout(1e-9, value="tiny")   # 2**40 + 1e-9 == 2**40
        zero = sim.timeout(0.0, value="zero")
        for event in (tiny, zero):
            event.callbacks.append(
                lambda ev: order.append(ev.value))
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    return order


def test_sub_resolution_delay_at_large_clock_keeps_sequence_order():
    """A positive delay below the clock's float resolution rounds to
    ``now``; it must still fire before later-scheduled zero-delay events
    (regression: the wheel parked it in a slot keyed at the current time,
    which the deque fast path overtook)."""
    assert golden_trace("sub_resolution") == ["tiny", "zero"]


def test_run_until_time_stops_between_wheel_slots():
    sim = Simulator()
    hits = []

    def ticker():
        for _ in range(5):
            yield sim.timeout(3.0)
            hits.append(sim.now)

    sim.process(ticker())
    sim.run(until=7.5)
    assert hits == [3.0, 6.0]
    assert sim.now == 7.5
    assert sim.peek() == 9.0
    sim.run()
    assert hits == [3.0, 6.0, 9.0, 12.0, 15.0]


def test_run_until_event_sitting_on_the_wheel():
    sim = Simulator()
    marker = sim.timeout(5.0, value="ding")
    sim.timeout(5.0)
    sim.timeout(9.0)
    assert sim.run(until=marker) == "ding"
    assert sim.now == 5.0


def test_step_through_wheel_slots_matches_run():
    def workload(sim, step):
        log = []

        def ticker(label, delay):
            for i in range(3):
                yield sim.timeout(delay)
                log.append((sim.now, label, i))

        for label, delay in (("a", 2.0), ("b", 2.0), ("c", 3.0)):
            sim.process(ticker(label, delay))
        if step:
            while True:
                try:
                    sim.step()
                except EmptySchedule:
                    break
        else:
            sim.run()
        return log

    assert workload(Simulator(), step=True) == \
        workload(Simulator(), step=False)


#: Trace workloads: ``name -> (workload(sim) -> trace, Simulator kwargs)``.
#: ``tests/golden_fixtures.py`` records them.
TRACE_WORKLOADS = {
    "cancelled_on_wheel": (_trace_cancelled_on_wheel, {}),
    "same_deadline_merge": (_trace_same_deadline_merge,
                            {"wheel_horizon_us": 100.0}),
    "slot_batch_fifo": (_trace_slot_batch_fifo, {}),
    "sub_resolution": (_trace_sub_resolution,
                       {"start_time": float(2 ** 40)}),
}
