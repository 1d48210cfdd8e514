"""Synchronization primitives built on :class:`~repro.sim.events.Event`.

* :class:`Store` — FIFO queue with waitable ``put``/``get`` (the task queues
  between application thread and progress-engine workers).
* :class:`Resource` — counting semaphore (e.g., DMA engine channels).
* :class:`Barrier` — reusable n-party barrier (the RNR synchronization step
  of the Broadcast protocol).
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Any, Deque, List, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Store", "Resource", "Barrier"]


class Store:
    """An unbounded-or-bounded FIFO of items with waitable endpoints.

    ``put(item)`` returns an event that succeeds once the item is accepted
    (immediately unless the store is full).  ``get()`` returns an event that
    succeeds with the oldest item (immediately if one is available).
    Fairness is strict FIFO on both sides.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = collections.deque()
        self._getters: Deque[Event] = collections.deque()
        self._putters: Deque[tuple] = collections.deque()  # (event, item)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    @property
    def idle(self) -> bool:
        """Nothing queued and nobody waiting on either endpoint."""
        return not (self.items or self._getters or self._putters)

    def put(self, item: Any) -> Event:
        """Enqueue *item*; the returned event succeeds when it is accepted."""
        ev = Event(self.sim)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif not self.full:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-waitable put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.full:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        """Dequeue; the returned event succeeds with the item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-waitable get; returns ``(ok, item)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class Resource:
    """A counting semaphore with FIFO waiters.

    >>> def worker(sim, res):
    ...     yield res.acquire()
    ...     try:
    ...         yield sim.timeout(1.0)
    ...     finally:
    ...         res.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        #: FIFO of blocked acquirers; allocated by the first one that blocks
        self._waiters: Optional[Deque[Event]] = None

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        elif self._waiters is None:
            self._waiters = collections.deque((ev,))
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            # Hand the slot directly to the next waiter; in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Barrier:
    """A reusable n-party barrier.

    Each party calls :meth:`wait` and yields the returned event; when the
    ``parties``-th waiter of the current generation arrives, all waiters are
    released (with the generation index as value) and the barrier resets.
    """

    def __init__(self, sim: "Simulator", parties: int) -> None:
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.sim = sim
        self.parties = parties
        self.generation = 0
        self._waiting: List[Event] = []

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiting.append(ev)
        if len(self._waiting) >= self.parties:
            gen = self.generation
            waiters, self._waiting = self._waiting, []
            self.generation += 1
            for w in waiters:
                w.succeed(gen)
        return ev
