"""The discrete-event simulation core.

A :class:`Simulator` owns a virtual clock and a priority queue of pending
events.  Time only advances when :meth:`Simulator.run` (or
:meth:`Simulator.step`) pops the next event; between events the model code
runs instantaneously in virtual time.

Determinism
-----------
Two events scheduled for the same instant fire in the order they were
*scheduled* (FIFO), enforced with a monotonically increasing sequence
number in the heap entries.  Model code must route all randomness through
:class:`repro.sim.random.RandomStreams`; given the same seed, a simulation
is bit-for-bit reproducible.

Hot path
--------
The run loop is the innermost loop of every experiment: one iteration per
simulated packet/CQE/timeout.  It therefore avoids attribute lookups
(local bindings for the heap and clock), uses a plain integer sequence
counter, and offers :meth:`Simulator.post_at` — a bare callback record
(:class:`_Callback`, two slots, no Event/lambda allocation) for internal
model plumbing that nobody ever waits on (packet delivery, DMA
completion, CQE pushes).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import Event, Timeout

__all__ = ["Simulator", "SimulationError", "WatchdogError"]

#: sequence offset of :meth:`Simulator.post_last`: its calls sort after
#: every other event of their instant
_LAST = 1 << 62


class SimulationError(RuntimeError):
    """Raised for structural simulation errors (negative delays, running a
    finished simulator, an unhandled failure propagating out of a process)."""


class WatchdogError(SimulationError):
    """Raised by the hang watchdog: the simulation kept firing events for a
    full watchdog interval without any registered real-work progress.

    Carries the joined per-rank diagnostic ``report`` so a hung run turns
    into a readable state dump instead of a timed-out CI job.
    """

    def __init__(self, message: str, report: str = "") -> None:
        super().__init__(message)
        self.report = report

    def __str__(self) -> str:
        base = super().__str__()
        return f"{base}\n{self.report}" if self.report else base


class _Callback:
    """A bare scheduled call: the cheapest thing the queue can hold.

    Quacks like an Event only as far as the run loop cares (``_fire``);
    it cannot be waited on — use :meth:`Simulator.call_at` for that.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.fn = fn
        self.args = args

    def _fire(self) -> None:
        self.fn(*self.args)


class _WakeAt(Event):
    """Event backing :meth:`Simulator.wake_at`.

    Pushed on the queue *untriggered* and flips to success exactly when
    its absolute instant arrives.  Unlike ``Timeout(when - now)`` the
    target instant is preserved bit-for-bit — no ``now + (when - now)``
    float round-trip — which is what lets a batched replay resume a
    process at the exact virtual time the per-item path would have.
    """

    __slots__ = ()

    def _fire(self) -> None:
        self._triggered = True
        self._ok = True
        Event._fire(self)


class _ScheduledCall(Event):
    """Event backing :meth:`Simulator.call_at`.

    Unlike a plain Event it is pushed on the queue *untriggered* and
    flips ``triggered``/``ok`` only when its instant arrives — so waiters
    (``yield``, :meth:`Simulator.drain`, ``AnyOf``) observe the correct
    state while the call is still pending.
    """

    __slots__ = ("fn", "args")

    def __init__(self, sim: "Simulator", fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        Event.__init__(self, sim)
        self.fn = fn
        self.args = args

    def _fire(self) -> None:
        self._triggered = True
        self._ok = True
        self.fn(*self.args)
        Event._fire(self)


class Simulator:
    """Event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def actor(sim, name, period):
    ...     for _ in range(2):
    ...         yield Timeout(sim, period)
    ...         log.append((sim.now, name))
    >>> _ = sim.spawn(actor(sim, "a", 1.0))
    >>> _ = sim.spawn(actor(sim, "b", 1.5))
    >>> sim.run()
    >>> log
    [(1.0, 'a'), (1.5, 'b'), (2.0, 'a'), (3.0, 'b')]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now: float = float(start_time)
        self._seq: int = 0
        # Heap of (time, seq, event).  `seq` breaks ties deterministically.
        self._queue: List[Tuple[float, int, Any]] = []
        self._running = False
        self._processes: "List[Any]" = []  # live Process objects (for debugging)
        self.events_processed: int = 0
        # Observability hook: called as trace_hook(when) for every event the
        # loop fires.  None (the default) keeps the hot loops hook-free —
        # run() selects a separate tight loop so the common case pays zero
        # per-event cost.  Installed by Fabric.install_tracer().
        self.trace_hook: Optional[Callable[[float], None]] = None
        # Hang watchdog (opt-in via install_watchdog).  `progress` is a bare
        # counter model code bumps via note_progress() whenever real work
        # advances (a data chunk lands, a recovery fetch completes); the
        # armed watchdog re-checks it every interval of virtual time from a
        # regular queue entry, so the run loops stay untouched.
        self.progress: int = 0
        self._wd_interval: float = 0.0
        self._wd_last_progress: int = -1
        self._wd_armed = False
        self._wd_diagnostics: List[Callable[[], str]] = []
        self._wd_trace: Optional[Any] = None

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -------------------------------------------------------------- scheduling

    def schedule(self, event: Event, delay: float = 0.0) -> Event:
        """Arm *event* to trigger ``delay`` seconds from now.

        The event's callbacks run when the clock reaches that instant.
        Returns the event for chaining.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, event))
        return event

    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Invoke ``fn(*args)`` at absolute time ``when`` — fire-and-forget.

        The cheap sibling of :meth:`call_at`: schedules a bare callback
        record instead of an Event, so there is nothing to wait on.  Model
        internals (packet delivery, CQE pushes, DMA completions) use this.
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (when, seq, _Callback(fn, args)))

    def post_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Invoke ``fn(*args)`` after ``delay`` seconds — fire-and-forget."""
        when = self._now + delay
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (when, seq, _Callback(fn, args)))

    def post_last(self, fn: Callable[..., Any], *args: Any) -> None:
        """Invoke ``fn(*args)`` at the current instant, after every event
        of it that is not itself posted last — whatever order those run
        in.  Posted-last calls run in the order they were posted."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, _LAST + seq, _Callback(fn, args)))

    def wake_at(self, when: float) -> Event:
        """A waitable that succeeds at the **absolute** virtual time ``when``.

        Used where an instant is known ahead — a folded phase's end, the
        fold floor of a receive worker — so the waiter resumes exactly
        there, with no float drift from delay arithmetic.
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        ev = _WakeAt(self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (when, seq, ev))
        return ev

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Invoke ``fn(*args)`` at absolute virtual time ``when``.

        Returns a waitable event that triggers when the call actually
        runs (not at schedule time).
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        ev = _ScheduledCall(self, fn, args)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (when, seq, ev))
        return ev

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Invoke ``fn(*args)`` after ``delay`` seconds of virtual time."""
        return self.call_at(self._now + delay, fn, *args)

    def timeout(self, delay: float) -> Timeout:
        """Create a :class:`Timeout` waitable that fires ``delay`` from now."""
        return Timeout(self, delay)

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event` bound to this simulator."""
        return Event(self)

    # -------------------------------------------------------------- watchdog

    def note_progress(self) -> None:
        """Record that real work advanced (watchdog liveness signal)."""
        self.progress += 1

    def add_watchdog_diagnostic(self, provider: Callable[[], str]) -> None:
        """Register a callable whose string output joins the hang report."""
        self._wd_diagnostics.append(provider)

    def install_watchdog(self, interval: float, trace: Optional[Any] = None) -> None:
        """Arm the hang watchdog: every ``interval`` virtual seconds, verify
        that :meth:`note_progress` was called since the previous check.

        If the queue keeps firing events for a whole interval with no
        progress, the watchdog gathers every registered diagnostic provider's
        dump and raises :class:`WatchdogError` out of the run loop.  The
        watchdog stands down automatically when the queue would otherwise be
        empty, so a clean simulation still drains to completion.  Strictly
        opt-in: an un-armed simulator schedules nothing and the hot loops
        are unchanged.
        """
        if interval <= 0:
            raise SimulationError(f"watchdog interval must be > 0, got {interval}")
        self._wd_interval = interval
        self._wd_trace = trace
        self._wd_last_progress = self.progress - 1  # first check always passes
        if not self._wd_armed:
            self._wd_armed = True
            self.post_later(interval, self._watchdog_check)

    def _watchdog_check(self) -> None:
        if not self._queue:
            # Nothing else pending: the run is draining cleanly; stand down
            # rather than keep the queue alive forever.
            self._wd_armed = False
            return
        if self.progress == self._wd_last_progress:
            report = self.watchdog_report()
            if self._wd_trace is not None:
                self._wd_trace.instant("engine.watchdog", self._now,
                                       {"interval": self._wd_interval})
            self._wd_armed = False
            raise WatchdogError(
                f"no progress for {self._wd_interval} virtual seconds "
                f"(t={self._now}, {len(self._queue)} events queued)",
                report,
            )
        self._wd_last_progress = self.progress
        self.post_later(self._wd_interval, self._watchdog_check)

    def watchdog_report(self) -> str:
        """Join every registered diagnostic provider into one dump."""
        parts = []
        for provider in self._wd_diagnostics:
            try:
                parts.append(provider())
            except Exception as exc:  # diagnostics must never mask the hang
                parts.append(f"<diagnostic provider failed: {exc!r}>")
        return "\n".join(p for p in parts if p)

    # -------------------------------------------------------------- processes

    def spawn(self, generator: Generator, name: Optional[str] = None,
              parked: bool = False):
        """Start a process from a generator; returns the :class:`Process`.

        The process begins execution at the current instant (before time
        advances), mirroring simpy semantics; a ``parked`` one (a daemon)
        at its first :meth:`Process.wake`, with no kickoff event.
        """
        from repro.sim.process import Process  # local import to avoid a cycle

        proc = Process(self, generator, name=name, parked=parked)
        self._processes.append(proc)
        return proc

    # ------------------------------------------------------------------- run

    def step(self) -> float:
        """Process the single next event; returns its timestamp."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if self.trace_hook is not None:
            self.trace_hook(when)
        event._fire()
        return when

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the final virtual time.  ``until`` is exclusive for events
        scheduled strictly after it; the clock is advanced to ``until`` when
        the horizon is hit with events still pending.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        hook = self.trace_hook
        try:
            if until is None and max_events is None:
                if hook is None:
                    # The common full-drain case, zero per-iteration checks.
                    while queue:
                        entry = heappop(queue)
                        self._now = entry[0]
                        processed += 1
                        entry[2]._fire()
                else:
                    while queue:
                        entry = heappop(queue)
                        self._now = entry[0]
                        processed += 1
                        hook(entry[0])
                        entry[2]._fire()
            else:
                while queue:
                    if until is not None and queue[0][0] > until:
                        self._now = until
                        break
                    if max_events is not None and processed >= max_events:
                        break
                    entry = heappop(queue)
                    self._now = entry[0]
                    processed += 1
                    if hook is not None:
                        hook(entry[0])
                    entry[2]._fire()
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and not self._queue and self._now < until:
            self._now = until
        return self._now

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Spawn *generator*, run the simulation, and return its result.

        Convenience wrapper for "run this protocol to completion" call sites.
        Raises if the process fails or the simulation drains before the
        process finishes.
        """
        proc = self.spawn(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"simulation drained at t={self._now} before process "
                f"{proc.name!r} completed"
            )
        if not proc.ok:
            raise proc.value  # re-raise the process failure
        return proc.value

    def drain(self, events: Iterable[Event], until: Optional[float] = None) -> None:
        """Run until every event in *events* has triggered.

        Completion is tracked with a per-event callback and a counter —
        O(events + steps) instead of re-filtering the whole list after
        every step.
        """
        remaining = 0
        fired = [0]

        def _one_done(ev: Event) -> None:
            fired[0] += 1
            if ev._ok is False and not ev._defused:
                # Nobody else handled the failure; surface it like the
                # bare `_fire` of an unwaited event would.
                raise ev._value

        for ev in events:
            if not ev.triggered:
                remaining += 1
                ev.subscribe(_one_done)
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        hook = self.trace_hook
        try:
            if until is None and hook is None:
                # Common case (collective completion drains): no horizon
                # and no tracer, zero per-iteration checks.
                while fired[0] < remaining:
                    if not queue:
                        raise SimulationError(
                            f"simulation drained at t={self._now} with "
                            f"{remaining - fired[0]} events still pending"
                        )
                    entry = heappop(queue)
                    self._now = entry[0]
                    processed += 1
                    entry[2]._fire()
            else:
                while fired[0] < remaining:
                    if not queue:
                        raise SimulationError(
                            f"simulation drained at t={self._now} with "
                            f"{remaining - fired[0]} events still pending"
                        )
                    if until is not None and queue[0][0] > until:
                        raise SimulationError(f"horizon {until} reached with events pending")
                    entry = heappop(queue)
                    self._now = entry[0]
                    processed += 1
                    if hook is not None:
                        hook(entry[0])
                    entry[2]._fire()
        finally:
            self.events_processed += processed
