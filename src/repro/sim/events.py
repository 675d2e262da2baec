"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  An
event starts *untriggered*; calling :meth:`Event.succeed` (or
:meth:`Event.fail`) schedules it on the simulator's event heap, and once the
simulator pops it the event becomes *processed* and all registered callbacks
run.  A :class:`Process` wraps a Python generator: the generator yields
events, and the process resumes each time the yielded event is processed.

Object pooling
--------------
The kernel recycles kernel-created
:class:`Timeout` and grant :class:`Event` objects whose only consumers were
the processes that yielded them.  The discipline this imposes on user code:
an event obtained from ``sim.timeout(...)`` or ``resource.request()`` must
not be inspected (``.value``, ``.processed``) after the process that yielded
it has resumed past a *different* event.  Yielding inline -- by far the
common pattern -- is always safe, as is passing such events to
``AllOf``/``AnyOf`` (condition-held events are never recycled).

:class:`Process` objects themselves are pooled too, but only the ones
created through :func:`spawn_process` (the ``device.submit`` path):
those are marked pool-eligible at birth and recycled once their completion
has been consumed by the submitting worker.  Processes created with
``sim.process(...)`` are never recycled -- user code may hold them, join
them in conditions, or interrupt them long after completion.  The same
inspect-after-resume rule applies to submission events: read the request
object (which the completion event returns), not the event, once the
worker has moved on.
"""

from __future__ import annotations

from types import GeneratorType as _GENERATOR_TYPE
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: Priority used for ordinary events (re-exported by repro.sim.engine).
PRIORITY_NORMAL = 1
#: Priority used for "urgent" bookkeeping events processed before normal ones.
PRIORITY_URGENT = 0


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (double trigger, etc.)."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted by another process.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes may wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed",
                 "_defused", "_pool_ok", "_seq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered: bool = False
        self._processed: bool = False
        self._defused: bool = False
        #: Set only by the kernel for events it created itself (bootstrap,
        #: resource grants); such events may be recycled after processing.
        self._pool_ok: bool = False
        #: Scheduling sequence number (set when queued on the immediate deque).
        self._seq: int = 0

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (succeeded or failed)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the simulator has already run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or the exception it failed with)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # Zero-delay success is the kernel's hottest operation (resource
        # grants, token grants, relays); schedule it inline.
        sim = self.sim
        if delay == 0.0:
            sim._sequence = seq = sim._sequence + 1
            self._seq = seq
            sim._immediate.append(self)
        else:
            sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator does not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event: it triggers when the generator returns
    (successfully, carrying the return value) or raises (failed, carrying the
    exception).  Other processes can therefore ``yield`` a process to join it.
    """

    __slots__ = ("generator", "_waiting_on", "_resume_bound")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any]):
        # Inline of Event.__init__ (one process is created per device
        # submission; the super() call is measurable on the hot path).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._pool_ok = False
        self._seq = 0
        if type(generator) is not _GENERATOR_TYPE and \
                not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method reused for every wait this process ever registers
        # (a fresh ``self._resume`` would allocate per yield).
        self._resume_bound = self._resume
        # Kick off the process at the current simulation time.  The
        # bootstrap is scheduled inline (pooled event + direct deque append)
        # -- process creation is the first step of every device submission,
        # so the ``succeed()`` bookkeeping is worth skipping.
        pool = sim._event_pool
        if pool:
            bootstrap = pool.pop()
            bootstrap._value = None
            bootstrap._triggered = True
            bootstrap._processed = False
            bootstrap._defused = False
            # _ok is still True: only successful events are pooled.
        else:
            bootstrap = Event(sim)
            bootstrap._pool_ok = True
            bootstrap._triggered = True
        bootstrap.callbacks.append(self._resume_bound)
        sim._sequence = seq = sim._sequence + 1
        bootstrap._seq = seq
        sim._immediate.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        waiting_on = self._waiting_on
        if waiting_on is not None:
            try:
                waiting_on.callbacks.remove(self._resume_bound)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._waiting_on = None
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._resume_with_interrupt(cause))
        interrupt_event.succeed()

    def _resume_with_interrupt(self, cause: Any) -> Callable[[Event], None]:
        def callback(_event: Event) -> None:
            self._step(throw=Interrupt(cause))

        return callback

    def _resume(self, event: Event) -> None:
        # The kernel's hottest callback: an inline of _step(send/throw) minus
        # two frames.  Keep the inline in sync with _step.
        sim = self.sim
        self._waiting_on = None
        if self._triggered:
            return
        sim._active_process = self
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                event._defused = True
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            # Inline of succeed(stop.value): fires once per process, so the
            # completion of every device submission passes through here.
            self._triggered = True
            self._value = stop.value
            sim._sequence = seq = sim._sequence + 1
            self._seq = seq
            sim._immediate.append(self)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through the event
            self.fail(exc)
            return
        finally:
            sim._active_process = None
        # Inline of _wait_on's hot branch (pending event): one frame less.
        if isinstance(target, Event) and not target._processed:
            self._waiting_on = target
            target.callbacks.append(self._resume_bound)
            return
        self._wait_on(target)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._triggered:
            return
        self.sim._active_process = self
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through the event
            self.fail(exc)
            return
        finally:
            self.sim._active_process = None
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Register the process on the event its generator just yielded."""
        if isinstance(target, Event) and not target._processed:
            self._waiting_on = target
            target.callbacks.append(self._resume_bound)
            return
        if not isinstance(target, Event):
            self._step(throw=SimulationError(
                f"process yielded a non-event value: {target!r}"))
            return
        # The event already ran its callbacks; resume immediately with
        # its value on the next simulator step.
        relay = self.sim._fresh_event()
        relay.callbacks.append(self._resume_bound)
        if target.ok:
            relay.succeed(target.value)
        else:
            target.defuse()
            relay.fail(target.value)
            relay.defuse()


def spawn_process(sim: "Simulator", generator: Generator[Event, Any, Any]) -> Process:
    """Pooled :class:`Process` factory for the submission hot path.

    The kernel recycles completed submission processes whose only waiters
    were inline ``yield``\\ s (the same discipline as pooled grant/timeout
    events -- see the module docstring); this factory reuses them, skipping
    the per-submission object allocation.
    """
    pool = sim._process_pool
    if pool:
        process = pool.pop()
        process._value = None
        process._triggered = False
        process._processed = False
        process._defused = False
        process.generator = generator
        # _ok stays True, _waiting_on is None, _pool_ok stays True, and the
        # callback list was cleared when the kernel pooled it.
        epool = sim._event_pool
        if epool:
            bootstrap = epool.pop()
            bootstrap._value = None
            bootstrap._triggered = True
            bootstrap._processed = False
            bootstrap._defused = False
        else:
            bootstrap = Event(sim)
            bootstrap._pool_ok = True
            bootstrap._triggered = True
        bootstrap.callbacks.append(process._resume_bound)
        sim._sequence = seq = sim._sequence + 1
        bootstrap._seq = seq
        sim._immediate.append(bootstrap)
        return process
    process = Process(sim, generator)
    process._pool_ok = True
    return process


class ConditionValue(dict):
    """The result mapping (event -> value) an :class:`AllOf`/:class:`AnyOf`
    succeeds with.

    A plain ``dict`` subclass: values are snapshotted when the condition
    triggers (so later recycling of constituent events cannot corrupt them)
    while keeping the familiar mapping protocol for callers.
    """

    __slots__ = ()

    def todict(self) -> dict["Event", Any]:
        """A plain-``dict`` copy of the results."""
        return dict(self)


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if not isinstance(event, Event):
                raise TypeError(f"condition requires events, got {event!r}")
        # One bound-method object is shared by every child subscription, so a
        # wide fan-in does not allocate a callback per child.
        observe = self._observe
        pending = 0
        for event in self.events:
            if not event._processed:
                pending += 1
                event.callbacks.append(observe)
        self._pending = pending
        self._check_initial()

    def _check_initial(self) -> None:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _collect_values(self) -> ConditionValue:
        values = ConditionValue()
        for event in self.events:
            if event._processed and event._ok:
                values[event] = event._value
        return values


class AllOf(_Condition):
    """Triggers when *all* constituent events have triggered successfully."""

    __slots__ = ()

    def _check_initial(self) -> None:
        if not self._triggered and self._pending == 0:
            self.succeed(self._collect_values())

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending <= 0:
            remaining = [e for e in self.events if not e.processed]
            if not remaining:
                self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Triggers as soon as *any* constituent event triggers successfully."""

    __slots__ = ()

    def _check_initial(self) -> None:
        if not self._triggered:
            for event in self.events:
                if event.processed and event.ok:
                    self.succeed(self._collect_values())
                    return
            if not self.events:
                self.succeed({})

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self.succeed(self._collect_values())
