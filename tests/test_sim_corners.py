"""Corner-case semantics of the simulation kernel.

These tests lock the exact observable behavior of the scheduler --
interleaving of same-time events, interrupt-during-wait, composite events
with already-triggered children, ``run(until=event)`` failure handling --
and the trace-identity workloads at the bottom compare whole traces against
the golden fixture recorded when the heap-only, pre-wheel and timer-wheel
kernels still existed side by side (``tests/golden/kernel_traces.json``).

Every test runs on two schedules of the one kernel: ``fast`` (the default
timer wheel) and ``prewheel`` (a zero wheel horizon, which sends every
delayed event down the heap cascade -- the pre-wheel schedule).
"""

import pytest
from golden_fixtures import SCHEDULES, assert_trace_matches

from repro.sim import Interrupt, Resource, Simulator
from repro.sim.events import SimulationError


@pytest.fixture(params=sorted(SCHEDULES))
def make_sim(request):
    """Simulator factory for each schedule: the timer wheel and the
    heap-only (zero horizon) routing of delayed events."""
    def factory():
        return Simulator(**SCHEDULES[request.param])
    return factory


# ---------------------------------------------------------------------------
# Same-time interleaving: zero-delay events vs heap events
# ---------------------------------------------------------------------------

def test_zero_delay_events_interleave_with_heap_events_in_seq_order(make_sim):
    """Events scheduled earlier for time T run before zero-delay events
    scheduled *at* time T (FIFO by global sequence number)."""
    sim = make_sim()
    order = []

    def early(label):
        yield sim.timeout(5)
        order.append(label)

    def trigger():
        yield sim.timeout(5)
        order.append("trigger")
        gate.succeed()

    def waiter():
        yield gate
        order.append("gate")

    gate = sim.event()
    # a's timeout is scheduled before trigger's, both land at t=5; the gate
    # fires with zero delay *while* t=5 events are still pending.
    sim.process(trigger())
    sim.process(early("a"))
    sim.process(early("b"))
    sim.process(waiter())
    sim.run()
    assert order == ["trigger", "a", "b", "gate"]


def test_process_resumed_by_processed_event_keeps_fifo_position(make_sim):
    """Yielding an already-processed event resumes on the next same-time
    turn, after events that were already scheduled."""
    sim = make_sim()
    order = []
    done = sim.event()
    done.succeed("early")

    def sibling():
        yield sim.timeout(0)
        order.append("sibling")

    def late_yielder():
        yield sim.timeout(0)
        value = yield done  # already processed by now
        order.append(("late", value))

    sim.process(late_yielder())
    sim.process(sibling())
    sim.run()
    assert order == ["sibling", ("late", "early")]


def test_immediate_resource_grants_preserve_fifo(make_sim):
    sim = make_sim()
    resource = Resource(sim, capacity=1)
    order = []

    def user(label, hold):
        yield resource.request()
        order.append(("got", label, sim.now))
        yield sim.timeout(hold)
        resource.release()

    for label, hold in (("a", 3), ("b", 2), ("c", 1)):
        sim.process(user(label, hold))
    sim.run()
    assert order == [("got", "a", 0.0), ("got", "b", 3.0), ("got", "c", 5.0)]


# ---------------------------------------------------------------------------
# Interrupt during a resource wait
# ---------------------------------------------------------------------------

def test_interrupt_during_resource_wait_detaches_from_grant(make_sim):
    """An interrupted waiter gets the Interrupt at the current time.  Its
    orphaned grant event still receives the slot on release (the historical
    semantics this suite locks): a third requester must wait for another
    release."""
    sim = make_sim()
    resource = Resource(sim, capacity=1)
    log = []

    def holder():
        yield resource.request()
        yield sim.timeout(50)
        resource.release()

    def waiter():
        try:
            yield resource.request()
            log.append("granted")
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def interrupter(target):
        yield sim.timeout(10)
        target.interrupt("cancelled")

    def third():
        yield sim.timeout(20)
        yield resource.request()
        log.append(("third", sim.now))
        resource.release()

    sim.process(holder())
    target = sim.process(waiter())
    sim.process(interrupter(target))
    sim.process(third())
    sim.run(until=200)
    assert ("interrupted", 10.0, "cancelled") in log
    assert "granted" not in log
    # The slot released at t=50 goes to the orphaned event of the interrupted
    # waiter, so the third requester never acquires it.
    assert not any(entry[0] == "third" for entry in log)
    assert resource.users == 1


def test_interrupt_during_store_get_keeps_item_for_others(make_sim):
    from repro.sim import Store
    sim = make_sim()
    store = Store(sim)
    log = []

    def consumer(label):
        item = yield store.get()
        log.append((label, item))

    def impatient():
        try:
            yield store.get()
        except Interrupt:
            log.append("gave up")

    def producer():
        yield sim.timeout(5)
        target.interrupt()
        yield store.put("x")

    target = sim.process(impatient())
    sim.process(producer())
    sim.process(consumer("late"))
    sim.run()
    assert "gave up" in log
    # Historical semantics: the orphaned getter still swallows the first put.
    assert ("late", "x") not in log


# ---------------------------------------------------------------------------
# Conditions with already-triggered / already-processed children
# ---------------------------------------------------------------------------

def test_all_of_with_already_processed_children_triggers_immediately(make_sim):
    sim = make_sim()
    first = sim.timeout(1, value="a")
    second = sim.timeout(2, value="b")
    sim.run()
    assert first.processed and second.processed

    seen = []

    def proc():
        values = yield sim.all_of([first, second])
        seen.append((sim.now, sorted(values.values())))

    sim.process(proc())
    sim.run()
    assert seen == [(2.0, ["a", "b"])]


def test_any_of_with_one_processed_child_collects_only_processed(make_sim):
    sim = make_sim()
    done = sim.timeout(1, value="ready")
    sim.run()
    pending = sim.event()

    seen = []

    def proc():
        values = yield sim.any_of([pending, done])
        seen.append(list(values.values()))

    sim.process(proc())
    sim.run()
    assert seen == [["ready"]]
    assert not pending.triggered


def test_all_of_mixed_processed_and_pending_children(make_sim):
    sim = make_sim()
    done = sim.timeout(1, value="first")
    sim.run()

    seen = []

    def proc():
        late = sim.timeout(10, value="second")
        values = yield sim.all_of([done, late])
        seen.append((sim.now, sorted(values.values())))

    sim.process(proc())
    sim.run()
    assert seen == [(11.0, ["first", "second"])]


def test_condition_value_supports_mapping_protocol(make_sim):
    sim = make_sim()
    results = []

    def proc():
        a = sim.timeout(1, value="a")
        b = sim.timeout(2, value="b")
        values = yield sim.all_of([a, b])
        results.append((values[a], values[b], len(values), dict(values)))

    sim.process(proc())
    sim.run()
    a_value, b_value, length, as_dict = results[0]
    assert (a_value, b_value, length) == ("a", "b", 2)
    assert sorted(as_dict.values()) == ["a", "b"]


# ---------------------------------------------------------------------------
# run(until=event) failure semantics
# ---------------------------------------------------------------------------

def test_run_until_failed_event_raises_when_unhandled(make_sim):
    sim = make_sim()
    event = sim.event()

    def failer():
        yield sim.timeout(3)
        event.fail(RuntimeError("exploded"))

    sim.process(failer())
    with pytest.raises(RuntimeError, match="exploded"):
        sim.run(until=event)


def test_run_until_failed_event_returns_exception_when_defused(make_sim):
    sim = make_sim()
    event = sim.event()

    def failer():
        yield sim.timeout(3)
        event.defuse()
        event.fail(RuntimeError("handled"))

    sim.process(failer())
    value = sim.run(until=event)
    assert isinstance(value, RuntimeError)
    assert str(value) == "handled"


def test_run_until_event_never_triggered_raises(make_sim):
    sim = make_sim()
    event = sim.event()
    sim.process(iter_timeout(sim, 5))
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=event)


def test_run_until_failed_process_propagates_exception(make_sim):
    sim = make_sim()

    def bad():
        yield sim.timeout(1)
        raise ValueError("process died")

    process = sim.process(bad())
    with pytest.raises(ValueError, match="process died"):
        sim.run(until=process)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


# ---------------------------------------------------------------------------
# Pooling discipline: recycled objects never corrupt retained references
# ---------------------------------------------------------------------------

def test_condition_children_survive_heavy_timeout_churn(make_sim):
    """Timeouts held by a condition must not be recycled while the condition
    is still pending, even under heavy timeout traffic."""
    sim = make_sim()
    seen = []

    def churn():
        for _ in range(200):
            yield sim.timeout(0.25)

    def proc():
        early = sim.timeout(1, value="early")
        late = sim.timeout(40, value="late")
        values = yield sim.all_of([early, late])
        seen.append(sorted(values.values()))

    sim.process(churn())
    sim.process(proc())
    sim.run()
    assert seen == [["early", "late"]]


# ---------------------------------------------------------------------------
# Trace identity against the golden fixture: resources, stores, conditions,
# zero-delay churn, inline grants, batched token buckets, pooled submissions
# ---------------------------------------------------------------------------

def _trace_mixed_workers(sim):
    """Resources, zero-delay events and timeouts across four workers."""
    resource = Resource(sim, capacity=2)
    trace = []

    def worker(label, delay):
        for i in range(5):
            yield resource.request()
            trace.append((sim.now, label, i))
            yield sim.timeout(delay)
            resource.release()
            yield sim.timeout(0)

    for label, delay in (("a", 3.0), ("b", 2.0), ("c", 0.0), ("d", 1.5)):
        sim.process(worker(label, delay))
    sim.run()
    return trace


def _trace_horizon_ties(sim):
    """Delays straddling a 50us wheel horizon (slots vs heap cascade),
    colliding deadlines, and zero-delay events -- including exact time
    ties between a heap entry and a wheel slot for the same deadline."""
    import random
    out = []

    def worker(wid):
        rng = random.Random(wid)
        for i in range(40):
            delay = rng.choice(
                [0.0, 0.5, 1.0, 1.0, 7.25, 49.9, 50.0, 50.1, 200.0])
            yield sim.timeout(delay)
            out.append((sim.now, wid, i))

    for wid in range(16):
        sim.process(worker(wid))
    sim.run()
    return out


def _trace_resource_grants(sim):
    """Inline uncontended grants and queued contended grants: phases of a
    single worker (always uncontended) alternate with phases of four
    workers fighting over two slots."""
    resource = Resource(sim, capacity=2)
    trace = []

    def solo():
        for i in range(6):
            yield resource.request()
            trace.append(("solo", sim.now, i, resource.users,
                          resource.queue_length))
            yield sim.timeout(1.0)
            resource.release()
            yield sim.timeout(9.0)  # drain: next acquire is uncontended

    def crowd(label):
        yield sim.timeout(20.0)  # overlap the middle solo phases
        for i in range(4):
            yield resource.request()
            trace.append((label, sim.now, i, resource.users,
                          resource.queue_length))
            yield sim.timeout(2.5)
            resource.release()

    sim.process(solo())
    for label in ("w0", "w1", "w2", "w3"):
        sim.process(crowd(label))
    sim.run()
    return trace


def _trace_token_bucket(sim):
    """Covered amounts (batched single grant), amounts above capacity
    (forced multi-slice), and FIFO contention between consumers."""
    from repro.sim.resources import TokenBucket
    bucket = TokenBucket(sim, rate=4.0, capacity=64.0)
    trace = []

    def consumer(label, amounts, start):
        yield sim.timeout(start)
        for i, amount in enumerate(amounts):
            if amount > 16.0:
                yield from bucket.consume_sliced(amount)
            else:
                yield bucket.consume(amount)
            trace.append((label, sim.now, i, round(bucket.tokens, 9)))

    # a: uncontended covered grants; b/c: contended, straddling
    # capacity (sliced) and sub-slice amounts interleaved FIFO.
    sim.process(consumer("a", [8.0, 8.0, 8.0], 0.0))
    sim.process(consumer("b", [48.0, 96.0], 5.0))
    sim.process(consumer("c", [4.0, 4.0, 120.0], 5.0))
    sim.run()
    return trace


def _trace_interrupted_waiter(sim):
    """Cancel-while-waiting, including the slot that passes through the
    interrupted waiter's orphaned grant event."""
    resource = Resource(sim, capacity=1)
    trace = []

    def holder():
        yield resource.request()
        trace.append(("holder", sim.now))
        yield sim.timeout(30.0)
        resource.release()

    def waiter(label):
        try:
            yield resource.request()
            trace.append((label, sim.now))
            yield sim.timeout(5.0)
            resource.release()
        except Interrupt as interrupt:
            trace.append((label, "interrupted", sim.now, interrupt.cause))

    def interrupter(target):
        yield sim.timeout(10.0)
        target.interrupt("cancelled")

    sim.process(holder())
    target = sim.process(waiter("victim"))
    sim.process(waiter("survivor"))
    sim.process(interrupter(target))
    sim.run()
    return trace


def _trace_pooled_submissions(sim):
    """Pooled device submissions surrounded by heavy zero-delay churn."""
    from repro.devices.loopback import LoopbackDevice
    device = LoopbackDevice(sim, capacity_bytes=1 << 20,
                            service_time_us=2.0, service_slots=2)
    trace = []

    def churn():
        for _ in range(64):
            yield sim.timeout(0)

    def issuer(label, offset):
        for i in range(8):
            request = yield device.read(offset + i * 4096, 4096)
            trace.append((label, sim.now, i,
                          request.complete_time - request.submit_time))
            yield sim.timeout(0)

    sim.process(churn())
    sim.process(issuer("x", 0))
    sim.process(issuer("y", 1 << 19))
    sim.process(churn())
    sim.run()
    return (trace, device.stats.reads_completed, device.stats.bytes_read)


#: Trace-identity workloads: ``name -> (workload(sim) -> trace, Simulator
#: kwargs)``.  ``tests/golden_fixtures.py`` records them.
TRACE_WORKLOADS = {
    "mixed_workers": (_trace_mixed_workers, {}),
    "horizon_ties": (_trace_horizon_ties, {"wheel_horizon_us": 50.0}),
    "resource_grants": (_trace_resource_grants, {}),
    "token_bucket": (_trace_token_bucket, {}),
    "interrupted_waiter": (_trace_interrupted_waiter, {}),
    "pooled_submissions": (_trace_pooled_submissions, {}),
}


def _check(name):
    assert_trace_matches("test_sim_corners", TRACE_WORKLOADS, name)


def test_mixed_workload_trace_matches_golden():
    """End-to-end determinism: resources, zero-delay events and timeouts."""
    _check("mixed_workers")


def test_kernel_variants_identical_across_horizon_and_time_ties():
    _check("horizon_ties")


def test_resource_grants_trace_identically_contended_and_uncontended():
    _check("resource_grants")


def test_token_bucket_batched_grants_trace_identically():
    """`consume_sliced` collapses a fully-covered transfer into one grant
    and `consume` grants inline when uncontended; both keep the grant
    times of the generic queued path."""
    _check("token_bucket")


def test_interrupted_resource_waiter_traces_identically():
    _check("interrupted_waiter")


def test_pooled_device_submissions_trace_identically_with_zero_delay_churn():
    """Submissions ride pooled processes (``spawn_process``); zero-delay
    churn around them must not perturb completion order or timestamps."""
    _check("pooled_submissions")
