"""The discrete-event simulation loop.

:class:`Simulator` processes events in ``(time, priority, sequence)``
order.  Simulation time is a float in **microseconds** by convention
throughout the repository.

Schedule
--------
Device models spend most of their event budget on *immediately-succeeding*
events (free ``Resource.request`` grants, zero-delay token-bucket grants,
relays for already-processed events, process bootstraps) and on timeouts
that share deadlines.  The schedule is a three-level hierarchy:

1. zero-delay, normal-priority events -- a FIFO deque (O(1)), interleaved
   with the other levels by global sequence number;
2. near-future deadlines (``delay <= wheel_horizon_us``) -- a **timer
   wheel** with one slot per *distinct* deadline.  Same-deadline timeouts
   append to their slot in O(1) (device fleets synchronize on shared
   service times and epoch grids, so slots run fat); only the first event
   at a new deadline pays a push onto the small heap of distinct slot
   times, and a whole slot moves onto the deque when the clock reaches it;
3. far-future deadlines and urgent-priority events -- a binary heap.

The run loop pops the minimum of the three by ``(time, priority,
sequence)``: slot entries are appended in sequence order and all carry
normal priority, so the merged order is exactly the order of a single
heap keyed on ``(time, priority, sequence)``, whatever the horizon (a zero
horizon sends every delayed event to the heap).

The kernel also pools :class:`Timeout` and kernel-created grant
:class:`Event` objects, recycling them (callback list included) once their
callbacks have run, provided every callback was a plain process resumption
-- events held by conditions or user code are never recycled (see the
pooling discipline note in :mod:`repro.sim.events`) -- and runs
:meth:`Simulator.run` as one inlined loop.  The kernel microbenchmark
(``benchmarks/test_bench_kernel.py``) measures it against a frozen
reference loop and records the ratios in ``BENCH_kernel.json``.

The kernel relies on one invariant user code must keep (it always has):
callbacks are never appended to an event that is already being processed.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import MethodType
from typing import Any, Deque, Generator, Iterable, Optional

from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Timeout,
)

__all__ = ["EmptySchedule", "Simulator", "PRIORITY_NORMAL", "PRIORITY_URGENT"]

#: Upper bound on each object pool (events / timeouts) so a burst of traffic
#: cannot pin an unbounded amount of memory.
_POOL_LIMIT = 512

#: Default wheel horizon (microseconds).  Deadlines further out than this
#: skip the wheel and go straight to the heap: far-future timers are rare,
#: rarely share deadlines, and would only bloat the heap of slot times.
DEFAULT_WHEEL_HORIZON_US = 65536.0

_PROCESS_RESUME = Process._resume


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (microseconds).
    wheel_horizon_us:
        Deadlines more than this far in the future bypass the timer wheel
        and land on the heap directly.

    Examples
    --------
    >>> sim = Simulator()
    >>> results = []
    >>> def producer():
    ...     yield sim.timeout(5)
    ...     results.append(sim.now)
    >>> _ = sim.process(producer())
    >>> sim.run()
    >>> results
    [5.0]
    """

    def __init__(self, start_time: float = 0.0,
                 wheel_horizon_us: float = DEFAULT_WHEEL_HORIZON_US):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Zero-delay, normal-priority events at the *current* time, FIFO by
        #: sequence number (stored on the event as ``_seq`` to avoid a tuple
        #: per entry).  Invariant: while non-empty, every entry was scheduled
        #: at ``self._now`` (time never regresses and the run loop drains
        #: this deque before advancing the clock).
        self._immediate: Deque[Event] = deque()
        self._sequence = 0
        self._active_process: Optional[Process] = None
        #: Wheel slots: exact deadline -> events at that deadline, appended
        #: in sequence order (so a slot is already internally sorted).  All
        #: slot entries are normal priority and every slot time is strictly
        #: in the future: the moment the clock reaches the minimum slot,
        #: the run loop moves the whole slot onto the immediate deque --
        #: the slot *is* a batch of "events at the current time, FIFO by
        #: sequence", so the deque invariant carries over and per-event
        #: processing rides the deque fast path.
        self._wheel_buckets: dict[float, list[Event]] = {}
        #: Min-heap of the distinct slot times (one entry per live slot).
        self._wheel_times: list[float] = []
        #: Scheduling gate: delays in (0, _wheel_gate] go to the wheel.
        self._wheel_gate = float(wheel_horizon_us)
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        self._process_pool: list[Process] = []

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def pending_events(self) -> int:
        """Number of events still sitting in the schedule."""
        return len(self._queue) + len(self._immediate) + \
            sum(len(bucket) for bucket in self._wheel_buckets.values())

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled (the microbenchmark's event count)."""
        return self._sequence

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        pool = self._timeout_pool
        if pool and delay >= 0:
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            timeout._processed = False
            timeout._defused = False
            # _triggered/_ok stay True; the callback list was cleared when
            # the object was pooled.  The scheduling cascade below mirrors
            # _schedule's cascade (deque -> wheel slot -> heap).
            self._sequence = seq = self._sequence + 1
            timeout._seq = seq
            if delay == 0.0:
                self._immediate.append(timeout)
            elif delay <= self._wheel_gate:
                time = self._now + delay
                if time <= self._now:
                    # Sub-resolution delay: already due (see _schedule).
                    self._immediate.append(timeout)
                else:
                    bucket = self._wheel_buckets.get(time)
                    if bucket is None:
                        self._wheel_buckets[time] = [timeout]
                        heapq.heappush(self._wheel_times, time)
                    else:
                        bucket.append(timeout)
            else:
                heapq.heappush(self._queue, (self._now + delay, PRIORITY_NORMAL,
                                             seq, timeout))
            return timeout
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    def _fresh_event(self) -> Event:
        """A kernel-owned (recyclable) event for grants/bootstraps/relays."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._value = None
            event._ok = True
            event._triggered = False
            event._processed = False
            event._defused = False
            return event
        event = Event(self)
        event._pool_ok = True
        return event

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self._sequence = seq = self._sequence + 1
        if priority == PRIORITY_NORMAL:
            if delay == 0.0:
                event._seq = seq
                self._immediate.append(event)
                return
            if delay <= self._wheel_gate:
                event._seq = seq
                time = self._now + delay
                if time <= self._now:
                    # A positive delay below the clock's float resolution
                    # rounds to "already due": the deque keeps it in exact
                    # sequence order (a slot keyed at the current time
                    # would be overtaken by zero-delay events).
                    self._immediate.append(event)
                    return
                bucket = self._wheel_buckets.get(time)
                if bucket is None:
                    self._wheel_buckets[time] = [event]
                    heapq.heappush(self._wheel_times, time)
                else:
                    bucket.append(event)
                return
        heapq.heappush(self._queue, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if self._immediate:
            return self._now
        next_time = float("inf")
        if self._wheel_times:
            next_time = self._wheel_times[0]
        if self._queue and self._queue[0][0] < next_time:
            next_time = self._queue[0][0]
        return next_time

    def _activate_wheel_slot(self) -> None:
        """Advance the clock to the minimum wheel slot and move the whole
        slot onto the immediate deque: the slot is exactly a batch of
        events at the new current time, FIFO by sequence number, so the
        deque invariant carries over verbatim."""
        wheel_time = heapq.heappop(self._wheel_times)
        self._immediate.extend(self._wheel_buckets.pop(wheel_time))
        self._now = wheel_time

    def _next_event(self) -> Event:
        """Pop the next event in (time, priority, sequence) order."""
        immediate = self._immediate
        queue = self._queue
        if not immediate and self._wheel_times:
            # The minimum wheel slot becomes current unless a heap entry
            # precedes its head by (time, priority, sequence).  At an exact
            # time tie the slot is parked on the deque either way (losing
            # slots must not stay behind a dispatch that may append
            # zero-delay events with larger sequence numbers); the deque
            # branch below then re-merges against the heap.
            wheel_time = self._wheel_times[0]
            if not queue or queue[0][0] >= wheel_time:
                self._activate_wheel_slot()
        if immediate:
            if queue:
                entry = queue[0]
                # The 3-tuple on the right is always decisive before the
                # comparison could reach entry[3] (sequence numbers are
                # unique), so the event object is never compared.
                if entry < (self._now, PRIORITY_NORMAL, immediate[0]._seq):
                    heapq.heappop(queue)
                    self._now = entry[0]
                    return entry[3]
            return immediate.popleft()
        if not queue:
            raise EmptySchedule()
        event_time, _priority, _seq, event = heapq.heappop(queue)
        self._now = event_time
        return event

    def _maybe_recycle(self, event: Event) -> None:
        cls = event.__class__
        if cls is Timeout:
            if event._ok and len(self._timeout_pool) < _POOL_LIMIT:
                self._timeout_pool.append(event)
        elif event._pool_ok and event._ok:
            if cls is Event:
                if len(self._event_pool) < _POOL_LIMIT:
                    self._event_pool.append(event)
            elif cls is Process:
                if len(self._process_pool) < _POOL_LIMIT:
                    event.generator = None
                    event._waiting_on = None
                    self._process_pool.append(event)

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        self._dispatch_checked(self._next_event())

    def _dispatch_checked(self, event: Event) -> None:
        """Dispatch with the pooling-safety audit (see :meth:`_run_loop`)."""
        event._processed = True
        callbacks = event.callbacks
        recyclable = True
        for callback in callbacks:
            if type(callback) is not MethodType or callback.__func__ is not _PROCESS_RESUME:
                recyclable = False
            callback(event)
        callbacks.clear()
        if not event._ok and not event._defused:
            raise event._value
        if recyclable and callbacks.__len__() == 0:
            self._maybe_recycle(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` -- run until the schedule is exhausted.
            * a float -- run until simulation time reaches that value.
            * an :class:`Event` -- run until that event has been processed and
              return its value.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})")

        return self._run_loop(stop_event, stop_time)

    def _run_loop(self, stop_event: Optional[Event],
                  stop_time: Optional[float]) -> Any:
        """Inlined run loop: deque-first pop, in-place callback run, object
        recycling -- the event order of :meth:`step`.

        Per-event overhead is kept minimal: the stop-event test runs *after*
        each dispatch (equivalent to a top-of-loop test, since the event
        only flips to processed inside a dispatch), and the stop-time
        test runs only when the clock would advance (heap pops) -- immediate
        events never move the clock.  A heap entry can only preempt the
        deque when its time has already been reached, so the common case
        costs one float comparison.
        """
        queue = self._queue
        immediate = self._immediate
        wheel_times = self._wheel_times
        wheel_buckets = self._wheel_buckets
        heappop = heapq.heappop
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        process_pool = self._process_pool
        event_cls = Event
        timeout_cls = Timeout
        process_cls = Process
        method_type = MethodType
        resume = _PROCESS_RESUME
        if stop_event is not None and stop_event._processed:
            return stop_event._value
        now = self._now  # local clock mirror; every write updates both
        while True:
            # -- pop next (deque vs wheel vs heap by (time, prio, seq)) ----
            # Wheel slot times are strictly in the future while the deque is
            # non-empty (a slot moves wholesale onto the deque the moment
            # the clock reaches it), so the deque branch only ever has to
            # merge against the heap.
            if immediate:
                event = None
                if queue:
                    entry = queue[0]
                    # Invariant: self._now <= stop_time whenever stop_time is
                    # set, so a same-time heap entry needs no stop check.
                    if entry[0] <= now and \
                            entry < (now, PRIORITY_NORMAL, immediate[0]._seq):
                        heappop(queue)
                        event = entry[3]
                if event is None:
                    event = immediate.popleft()
            elif wheel_times:
                wheel_time = wheel_times[0]
                entry = None
                if queue:
                    entry = queue[0]
                    if entry[0] > wheel_time or (
                            entry[0] == wheel_time and (
                                wheel_time, PRIORITY_NORMAL,
                                wheel_buckets[wheel_time][0]._seq) < entry):
                        entry = None
                if entry is not None:
                    if stop_time is not None and entry[0] > stop_time:
                        self._now = stop_time
                        return None
                    heappop(queue)
                    if entry[0] == wheel_time:
                        # The slot shares the heap entry's time: park it on
                        # the deque *before* dispatching, so zero-delay
                        # events scheduled by the dispatch (larger seq)
                        # cannot overtake the slot's entries.
                        heappop(wheel_times)
                        immediate.extend(wheel_buckets.pop(wheel_time))
                    self._now = now = entry[0]
                    event = entry[3]
                else:
                    if stop_time is not None and wheel_time > stop_time:
                        self._now = stop_time
                        return None
                    # Activate the slot: the clock advances to its time and
                    # the whole batch continues on the deque fast path.
                    heappop(wheel_times)
                    bucket = wheel_buckets.pop(wheel_time)
                    self._now = now = wheel_time
                    if len(bucket) == 1:
                        event = bucket[0]
                    else:
                        immediate.extend(bucket)
                        event = immediate.popleft()
            elif queue:
                entry = queue[0]
                if stop_time is not None and entry[0] > stop_time:
                    self._now = stop_time
                    return None
                heappop(queue)
                self._now = now = entry[0]
                event = entry[3]
            else:
                break
            # -- dispatch (inline _dispatch_checked) -----------------------
            event._processed = True
            callbacks = event.callbacks
            if len(callbacks) == 1:
                # The overwhelmingly common case: one process resumption.
                callback = callbacks[0]
                callback(event)
                callbacks.clear()
                if not event._ok and not event._defused:
                    raise event._value
                if not callbacks and type(callback) is method_type \
                        and callback.__func__ is resume:
                    cls = event.__class__
                    if cls is timeout_cls:
                        if event._ok and len(timeout_pool) < _POOL_LIMIT:
                            timeout_pool.append(event)
                    elif cls is event_cls and event._pool_ok and event._ok:
                        if len(event_pool) < _POOL_LIMIT:
                            event_pool.append(event)
                    elif cls is process_cls and event._pool_ok and event._ok:
                        if len(process_pool) < _POOL_LIMIT:
                            event.generator = None
                            event._waiting_on = None
                            process_pool.append(event)
            elif callbacks:
                recyclable = True
                for callback in callbacks:
                    if type(callback) is not method_type or callback.__func__ is not resume:
                        recyclable = False
                    callback(event)
                callbacks.clear()
                if not event._ok and not event._defused:
                    raise event._value
                if recyclable and not callbacks:
                    cls = event.__class__
                    if cls is timeout_cls:
                        if event._ok and len(timeout_pool) < _POOL_LIMIT:
                            timeout_pool.append(event)
                    elif cls is event_cls and event._pool_ok and event._ok:
                        if len(event_pool) < _POOL_LIMIT:
                            event_pool.append(event)
                    elif cls is process_cls and event._pool_ok and event._ok:
                        if len(process_pool) < _POOL_LIMIT:
                            event.generator = None
                            event._waiting_on = None
                            process_pool.append(event)
            elif not event._ok and not event._defused:
                raise event._value
            if stop_event is not None and stop_event._processed:
                return stop_event._value
        return self._finish(stop_event, stop_time)

    def _finish(self, stop_event: Optional[Event],
                stop_time: Optional[float]) -> Any:
        """Common run() epilogue once the schedule has drained."""
        if stop_event is not None:
            if stop_event._processed:
                return stop_event._value
            raise SimulationError(
                "run() ran out of events before the 'until' event triggered")
        if stop_time is not None:
            self._now = max(self._now, stop_time)
        return None

    def run_all(self, max_events: Optional[int] = None) -> int:
        """Run until the schedule is empty; return the number of events processed.

        ``max_events`` acts as a safety valve against runaway simulations.
        """
        processed = 0
        while self._queue or self._immediate or self._wheel_times:
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.step()
            processed += 1
        return processed
