"""Shared resources for simulation processes.

Three primitives cover everything the device models need:

* :class:`Resource` -- a counted resource with FIFO queuing (flash dies,
  per-node service slots, NVMe submission slots, ...).
* :class:`Store` -- a FIFO buffer of items with optional capacity
  (request queues, write-buffer entries, ...).
* :class:`TokenBucket` -- a classic token-bucket rate limiter (provider-side
  throughput and IOPS budgets, network links).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim.events import PRIORITY_NORMAL, Event  # noqa: F401 (re-export)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Resource:
    """A resource with ``capacity`` concurrent slots and a FIFO wait queue."""

    __slots__ = ("sim", "capacity", "_users", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users = 0
        self._waiters: Deque[Event] = deque()

    @property
    def users(self) -> int:
        """Number of slots currently held."""
        return self._users

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds once a slot is acquired.

        The event is kernel-owned (recyclable): yield it inline and do not
        inspect it after resuming -- see the pooling note in
        :mod:`repro.sim.events`.
        """
        # Pooled event + inline zero-delay grant (this pair of operations
        # dominates device hot loops).
        sim = self.sim
        pool = sim._event_pool
        if pool:
            event = pool.pop()
            event._value = None
            event._triggered = False
            event._processed = False
            event._defused = False
            # _ok is still True: only successful events are pooled.
        else:
            event = Event(sim)
            event._pool_ok = True
        if self._users < self.capacity:
            self._users += 1
            event._triggered = True
            event._value = self
            sim._sequence = seq = sim._sequence + 1
            event._seq = seq
            sim._immediate.append(event)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one previously acquired slot."""
        if self._users <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; _users stays the same.
            waiter = self._waiters.popleft()
            sim = self.sim
            # Inline zero-delay succeed (waiters are always untriggered).
            waiter._triggered = True
            waiter._value = self
            sim._sequence = seq = sim._sequence + 1
            waiter._seq = seq
            sim._immediate.append(waiter)
        else:
            self._users -= 1

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()`` acquires a slot."""
        yield self.request()


class Store:
    """A FIFO store of items.

    ``put`` blocks (returns a pending event) when the store is full,
    ``get`` blocks when it is empty.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: "Simulator", capacity: float = math.inf):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """A snapshot of the items currently buffered (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that succeeds once ``item`` has been accepted."""
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to a waiting consumer.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        event = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            event.succeed(item)
            self._admit_waiting_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_waiting_putter(self) -> None:
        if self._putters and len(self._items) < self.capacity:
            put_event, item = self._putters.popleft()
            self._items.append(item)
            put_event.succeed(None)


class TokenBucket:
    """Token-bucket rate limiter.

    Tokens accumulate at ``rate`` tokens per microsecond up to ``capacity``.
    :meth:`consume` returns an event that succeeds once the requested amount
    of tokens has been granted; grants are strictly FIFO so a large request
    cannot be starved by a stream of small ones.

    A ``rate`` of ``math.inf`` disables limiting entirely, which the ESSD
    model uses for the "unlimited" baseline in ablation benchmarks.

    The **uncontended fast path** (no waiter queue, tokens available) grants
    inline with a single refill computation -- no wait-queue traffic and no
    wakeup scheduling -- and :meth:`consume_sliced` collapses a fully-covered
    multi-slice transfer into one grant event.  Both produce the same grant
    times and the same per-grant event scheduling as the generic path.
    """

    __slots__ = ("sim", "rate", "capacity", "_tokens", "_last_update",
                 "_waiters", "_wakeup_scheduled")

    def __init__(self, sim: "Simulator", rate: float,
                 capacity: Optional[float] = None, initial: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else float("inf")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._tokens = self.capacity if initial is None else float(initial)
        self._tokens = min(self._tokens, self.capacity)
        self._last_update = sim.now
        self._waiters: Deque[tuple[float, Event]] = deque()
        self._wakeup_scheduled = False

    # -- introspection ----------------------------------------------------
    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill accounting)."""
        self._refill()
        return self._tokens

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for tokens."""
        return len(self._waiters)

    def set_rate(self, rate: float) -> None:
        """Change the refill rate (used to model provider flow limiting)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._refill()
        self.rate = float(rate)
        self._schedule_wakeup()

    # -- consumption ------------------------------------------------------
    def consume_sliced(self, amount: float):
        """Generator: consume ``amount`` tokens in capacity-sized slices.

        ``consume`` rejects requests above the bucket capacity; this helper
        paces an arbitrarily large transfer at the sustained rate instead.
        ``yield from bucket.consume_sliced(n)`` from a simulation process.

        **Batched grants**: when the bucket already holds enough tokens for
        the *whole* transfer (and nothing is queued), every slice would be
        granted at the same instant anyway -- the slices collapse into a
        single grant event, one refill computation instead of per-slice
        bucket arithmetic.  An unlimited bucket (``rate=inf``) likewise
        grants in one event.  Transfers the bucket cannot cover right now
        keep the per-slice pacing loop unchanged.
        """
        remaining = amount
        burst = self.capacity
        if remaining > burst and not self._waiters:
            if math.isinf(self.rate):
                event = self.sim._fresh_event()
                event.succeed(None)
                yield event
                return
            self._refill()
            if self._tokens + 1e-9 * remaining + 1e-12 >= remaining:
                self._tokens -= remaining
                event = self.sim._fresh_event()
                event.succeed(None)
                yield event
                return
        while remaining > 0:
            take = min(remaining, burst)
            yield self.consume(take)
            remaining -= take

    def consume(self, amount: float) -> Event:
        """Return an event that succeeds once ``amount`` tokens are granted."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        sim = self.sim
        event = sim._fresh_event()
        if amount == 0:
            event.succeed(None)
            return event
        rate = self.rate
        if math.isinf(rate):
            event.succeed(None)
            return event
        if amount > self.capacity:
            raise ValueError(
                f"cannot consume {amount} tokens from a bucket of capacity {self.capacity}")
        if not self._waiters:
            # Uncontended fast path: one inline refill + grant.  Identical
            # arithmetic and event scheduling to the generic path below --
            # just without the wait-queue round trip through _service().
            now = sim._now
            elapsed = now - self._last_update
            tokens = self._tokens
            if elapsed > 0:
                tokens = tokens + elapsed * rate
                capacity = self.capacity
                if tokens > capacity:
                    tokens = capacity
                self._tokens = tokens
                self._last_update = now
            if tokens + 1e-9 * amount + 1e-12 >= amount:
                self._tokens = tokens - amount
                event.succeed(None)
                return event
        self._waiters.append((amount, event))
        self._service()
        return event

    # -- internals --------------------------------------------------------
    def _refill(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            if not math.isinf(self.rate):
                self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            else:
                self._tokens = self.capacity
            self._last_update = now

    def _service(self) -> None:
        self._refill()
        while self._waiters:
            amount, event = self._waiters[0]
            # The grant tolerance must scale with ``amount``: refills accumulate
            # relative floating-point error, and an absolute epsilon can leave a
            # residual deficit whose wakeup delay is below the resolution of
            # ``sim.now`` -- the clock then never advances and the wakeup loop
            # spins forever.
            if self._tokens + 1e-9 * amount + 1e-12 >= amount:
                self._tokens -= amount
                self._waiters.popleft()
                event.succeed(None)
            else:
                break
        if self._waiters:
            self._schedule_wakeup()

    def _schedule_wakeup(self) -> None:
        if self._wakeup_scheduled or not self._waiters:
            return
        amount, _event = self._waiters[0]
        deficit = max(0.0, amount - self._tokens)
        delay = deficit / self.rate if not math.isinf(self.rate) else 0.0
        self._wakeup_scheduled = True
        wakeup = Event(self.sim)
        wakeup.callbacks.append(self._on_wakeup)
        wakeup.succeed(None, delay=delay)

    def _on_wakeup(self, _event: Event) -> None:
        self._wakeup_scheduled = False
        self._service()
