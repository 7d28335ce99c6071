"""Shared-resource primitives built on the event engine.

Three primitives cover everything the simulator needs:

* :class:`Resource` — a counted semaphore with FIFO queuing (SM slots,
  DMA engines).
* :class:`Store` — an unbounded/bounded FIFO of Python objects with
  blocking ``get`` (work queues between producers and transfer agents).
* :class:`Counter` — a numeric level with the ability to wait until the
  level reaches a threshold (models PROACT's atomic readiness counters at
  the simulation level).
"""

from __future__ import annotations

import typing
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """A counted, FIFO-fair resource (semaphore).

    ``request()`` returns an event that fires once a unit is granted;
    ``release()`` returns the unit and wakes the next waiter.
    """

    def __init__(self, engine: "Engine", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-granted units."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for one unit; the returned event fires when granted."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(self)
        else:
            self._queue.append(req)
        return req

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._queue:
            # Hand the unit directly to the next waiter; _in_use unchanged.
            nxt = self._queue.popleft()
            nxt.succeed(self)
        else:
            self._in_use -= 1

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()``."""
        yield self.request()


class Store:
    """A FIFO of items with blocking ``get`` and optional capacity."""

    def __init__(self, engine: "Engine", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Add an item; the returned event fires once accepted."""
        done = Event(self.engine)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            done.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with the item."""
        got = Event(self.engine)
        if self._items:
            got.succeed(self._items.popleft())
            if self._putters:
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed()
        else:
            self._getters.append(got)
        return got

    def try_get(self) -> Optional[Any]:
        """Non-blocking take; returns ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            putter, queued = self._putters.popleft()
            self._items.append(queued)
            putter.succeed()
        return item


class Counter:
    """A numeric level that processes can wait on.

    This is the simulation-level analogue of PROACT's in-memory atomic
    counters: producers ``add``/``sub``; a transfer agent can wait until the
    level reaches a target.
    """

    def __init__(self, engine: "Engine", initial: int = 0) -> None:
        self.engine = engine
        self._level = initial
        # (threshold, direction, event): direction +1 waits for >=, -1 for <=
        self._waiters: List[Tuple[int, int, Event]] = []

    @property
    def level(self) -> int:
        return self._level

    def add(self, amount: int = 1) -> int:
        """Increase the level and wake satisfied waiters."""
        self._level += amount
        self._wake()
        return self._level

    def sub(self, amount: int = 1) -> int:
        """Decrease the level and wake satisfied waiters."""
        self._level -= amount
        self._wake()
        return self._level

    def wait_at_least(self, threshold: int) -> Event:
        """Event firing when the level is ``>= threshold``."""
        event = Event(self.engine)
        if self._level >= threshold:
            event.succeed(self._level)
        else:
            self._waiters.append((threshold, +1, event))
        return event

    def wait_at_most(self, threshold: int) -> Event:
        """Event firing when the level is ``<= threshold``."""
        event = Event(self.engine)
        if self._level <= threshold:
            event.succeed(self._level)
        else:
            self._waiters.append((threshold, -1, event))
        return event

    def _wake(self) -> None:
        if not self._waiters:
            return
        still_waiting: List[Tuple[int, int, Event]] = []
        for threshold, direction, event in self._waiters:
            satisfied = (self._level >= threshold if direction > 0
                         else self._level <= threshold)
            if satisfied:
                event.succeed(self._level)
            else:
                still_waiting.append((threshold, direction, event))
        self._waiters = still_waiting
