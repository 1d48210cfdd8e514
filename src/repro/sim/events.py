"""Waitable events for the discrete-event engine.

An :class:`Event` is the unit of synchronization: model processes ``yield``
events to suspend until they *fire*.  An event goes through three states:

``untriggered``
    Created but no outcome decided yet.
``triggered``
    :meth:`Event.succeed` or :meth:`Event.fail` was called; the outcome
    (value or exception) is fixed and the event sits in the simulator's
    queue waiting for its instant.
``processed``
    The simulator popped the event and ran its callbacks.

:class:`Timeout` is an event that succeeds a fixed delay after creation.
:class:`AnyOf` / :class:`AllOf` compose several events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "PASSIVE_WAIT",
    "any_of",
    "all_of",
]


class _PassiveWait:
    """Sentinel a process yields to suspend without subscribing anywhere.

    The normal wait path allocates an :class:`Event` (or an ``AnyOf`` over
    several) and appends a callback per wait — measurable churn on edges
    that fire once per simulated packet.  Yielding :data:`PASSIVE_WAIT`
    instead parks the process with **zero** allocations; it resumes only
    when some external party calls :meth:`repro.sim.process.Process.wake`
    (e.g. a completion queue's notify callback).  The waker is responsible
    for ensuring a wake-up actually arrives — there is no timeout.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PASSIVE_WAIT>"


#: The one shared passive-wait sentinel (identity-compared by Process).
PASSIVE_WAIT = _PassiveWait()

_AT_ONCE = 2  #: ``Event._fired`` of an event fired by :meth:`Event.succeed_now`


class Interrupt(Exception):
    """Thrown into a process by :meth:`repro.sim.process.Process.interrupt`.

    ``cause`` carries arbitrary context from the interrupting party.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable with a success value or failure exception."""

    __slots__ = ("sim", "callbacks", "_triggered", "_fired", "_ok", "_value", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked (with the event) when the event fires.  ``None``
        #: once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._fired = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._defused = False

    # ----------------------------------------------------------------- state

    @property
    def triggered(self) -> bool:
        """Outcome decided (value/exception fixed)?"""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Callbacks already executed?"""
        return bool(self._fired)

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # ------------------------------------------------------------- triggering

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Fix a successful outcome and schedule the event ``delay`` from now."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim.schedule(self, delay)
        return self

    def succeed_now(self, value: Any = None) -> None:
        """:meth:`succeed` and fire inside the caller — a queue entry at this
        instant with nothing left that the callbacks could see out of order
        — instead of from a zero-delay entry; so does an :class:`AnyOf` it
        decides, and a process waiting on either resumes here."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks, self.callbacks, self._fired = self.callbacks, None, _AT_ONCE
        for cb in callbacks:
            cb(self)

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Fix a failure outcome and schedule the event ``delay`` from now."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim.schedule(self, delay)
        return self

    def defuse(self) -> "Event":
        """Mark a failure as handled so it does not crash the simulation."""
        self._defused = True
        return self

    # -------------------------------------------------------------- internals

    def _fire(self) -> None:
        """Run callbacks; called by the simulator when the instant arrives."""
        self._fired = True
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event fired twice"
        for cb in callbacks:
            cb(self)
        if self._ok is False and not callbacks and not self._defused:
            # A failure nobody is waiting for would vanish silently; make it
            # loud instead, mirroring simpy's untended-exception behaviour.
            raise self._value

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Invoke *callback* when this event fires (immediately via a
        zero-delay bounce if it has already fired)."""
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            self.sim.post_later(0.0, callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._fired else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after construction.

    >>> def proc(sim):
    ...     yield Timeout(sim, 2.5)
    ...     return sim.now
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        self.delay = float(delay)
        self._triggered = True
        self._ok = True
        self._value = value
        sim.schedule(self, self.delay)


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events: List[Event] = list(events)
        self._done = False
        if not self.events:
            # Vacuous conditions resolve immediately.
            self.succeed(self._vacuous_value())
            self._done = True
            return
        for ev in self.events:
            ev.subscribe(self._on_child)

    def _vacuous_value(self) -> Any:
        raise NotImplementedError

    def _on_child(self, child: Event) -> None:
        raise NotImplementedError

    def _resolve_ok(self, value: Any) -> None:
        if not self._done:
            self._done = True
            self.succeed(value)

    def _resolve_fail(self, exc: BaseException) -> None:
        if not self._done:
            self._done = True
            self.fail(exc)


class AnyOf(_Condition):
    """Fires when the first constituent event fires.

    Succeeds with the *event object* that fired first (its ``.value`` holds
    the payload); fails if that first event failed.
    """

    __slots__ = ()

    def _vacuous_value(self) -> Any:
        return None

    def _on_child(self, child: Event) -> None:
        if self._done:
            return
        if child._fired == _AT_ONCE:
            self._done = True
            self.succeed_now(child)
        elif child.ok:
            self._resolve_ok(child)
        else:
            child.defuse()
            self._resolve_fail(child.value)


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    Succeeds with the list of child values in construction order; fails as
    soon as any child fails.
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        self._remaining = len(events)
        super().__init__(sim, events)

    def _vacuous_value(self) -> Any:
        return []

    def _on_child(self, child: Event) -> None:
        if self._done:
            return
        if not child.ok:
            child.defuse()
            self._resolve_fail(child.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._resolve_ok([ev.value for ev in self.events])


def any_of(sim: "Simulator", events: Sequence[Event]) -> AnyOf:
    """Convenience constructor for :class:`AnyOf`."""
    return AnyOf(sim, events)


def all_of(sim: "Simulator", events: Sequence[Event]) -> AllOf:
    """Convenience constructor for :class:`AllOf`."""
    return AllOf(sim, events)
