"""Time-varying fabric pathologies for the chaos harness.

Static per-link Bernoulli drops (the original :class:`~repro.net.link.FaultSpec`
knobs) miss exactly the regimes where the reliability slow path earns its
keep: *bursty* loss, whole-link outages, and receivers that momentarily
cannot keep up.  This module adds the time-varying fault vocabulary:

* :class:`GilbertElliott` — the classic two-state Markov burst-loss model.
  A channel is in a *good* or *bad* state; each droppable packet first
  steps the chain, then is dropped with the state's loss probability.
  Burstiness (correlated loss) comes from a sticky bad state.
* :class:`Window` — a half-open ``[start, end)`` interval of virtual time.
  Used for link flaps (full outage: every affected packet in the window is
  lost) and degraded-bandwidth periods (the channel serializes at
  ``factor × bandwidth`` inside the window).
* :class:`StragglerSpec` — a host-side pathology: inside its windows, the
  rank's progress engine pays ``extra_poll_delay`` per CQE poll, modeling a
  slow receiver (CPU contention, thermal throttling) whose staging ring
  backs up into RNR drops.
* :class:`CrashSpec` — a *fail-stop* fault: a host/NIC death, hard
  switch-down, or hard link-down at a virtual time.  Unlike the transient
  pathologies above, a crash is permanent — the element never comes back —
  and is repaired by the communicator's membership/re-plan machinery, not
  by the packet-level slow path.

All specs validate at construction so misconfiguration fails loudly at the
call site instead of misbehaving packets-deep inside the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "GilbertElliott",
    "Window",
    "StragglerSpec",
    "CrashSpec",
    "normalize_windows",
    "windows_inert_after",
]


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {p}")


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov (bursty) loss model.

    Attributes
    ----------
    p_good_bad:
        Per-packet transition probability good → bad.
    p_bad_good:
        Per-packet transition probability bad → good; its reciprocal is the
        mean burst length in packets.
    drop_good:
        Loss probability while in the good state (usually ~0).
    drop_bad:
        Loss probability while in the bad state.
    start_bad:
        Initial channel state.
    """

    p_good_bad: float
    p_bad_good: float
    drop_good: float = 0.0
    drop_bad: float = 0.75
    start_bad: bool = False

    def __post_init__(self) -> None:
        _check_prob("p_good_bad", self.p_good_bad)
        _check_prob("p_bad_good", self.p_bad_good)
        _check_prob("drop_good", self.drop_good)
        _check_prob("drop_bad", self.drop_bad)

    @property
    def mean_burst_packets(self) -> float:
        """Expected dwell time in the bad state, in packets."""
        return 1.0 / self.p_bad_good if self.p_bad_good > 0 else float("inf")

    def expected_loss_rate(self) -> float:
        """Stationary packet-loss probability of the chain."""
        p, r = self.p_good_bad, self.p_bad_good
        if p + r == 0:
            pi_bad = 1.0 if self.start_bad else 0.0
        else:
            pi_bad = p / (p + r)
        return pi_bad * self.drop_bad + (1.0 - pi_bad) * self.drop_good


@dataclass(frozen=True)
class Window:
    """A half-open ``[start, end)`` interval of virtual time (seconds).

    ``factor`` only matters for degraded-bandwidth windows: the channel
    runs at ``factor × nominal bandwidth`` inside the window.
    """

    start: float
    end: float
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(
                f"window end {self.end} precedes its start {self.start}"
            )
        if self.factor <= 0:
            raise ValueError(f"window factor must be > 0, got {self.factor}")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


def normalize_windows(windows: Iterable) -> Tuple[Window, ...]:
    """Coerce ``(start, end)`` / ``(start, end, factor)`` tuples into
    validated :class:`Window` objects (passing Windows through).

    Windows are returned sorted by start time.  Zero-length windows
    (``end == start``) and overlapping pairs are rejected with a
    :class:`ValueError` naming the offending window(s): overlap semantics
    would otherwise be silently order-dependent (which window's ``factor``
    wins inside the intersection depends on iteration order).
    """
    out = []
    for w in windows:
        if isinstance(w, Window):
            out.append(w)
        else:
            out.append(Window(*w))
    for w in out:
        if w.end == w.start:
            raise ValueError(
                f"zero-length window [{w.start}, {w.end}) matches no instant; "
                "drop it or give it a positive duration"
            )
    out.sort(key=lambda w: (w.start, w.end))
    for a, b in zip(out, out[1:]):
        if b.start < a.end:
            raise ValueError(
                f"windows [{a.start}, {a.end}) and [{b.start}, {b.end}) "
                "overlap; merge them or make them disjoint"
            )
    return tuple(out)


def windows_inert_after(windows: Iterable[Window], t: float) -> bool:
    """True when every window has fully elapsed by virtual time ``t`` —
    no sample at or after ``t`` can land inside one, so a timing model
    (the folds) that evaluates the whole future transfer at nominal rates
    is exact."""
    return all(w.end <= t for w in windows)


@dataclass(frozen=True)
class StragglerSpec:
    """A slow-receiver injection for one host.

    Inside each window the host's receive workers pay ``extra_poll_delay``
    additional seconds per CQE poll — the progress engine falls behind the
    wire and the staging ring backpressure turns into RNR drops, which the
    reliability layer must then absorb.
    """

    windows: Sequence
    extra_poll_delay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", normalize_windows(self.windows))
        if self.extra_poll_delay < 0:
            raise ValueError(
                f"extra_poll_delay must be >= 0, got {self.extra_poll_delay}"
            )

    def delay_at(self, t: float) -> float:
        for w in self.windows:
            if w.contains(t):
                return self.extra_poll_delay
        return 0.0

    def inert_over(self, t0: float, t1: float) -> bool:
        """True when no window overlaps ``[t0, t1]`` — every
        :meth:`delay_at` sample inside the interval returns 0, so a
        batched replay of per-CQE polls over the interval is exact."""
        if self.extra_poll_delay == 0.0:
            return True
        for w in self.windows:
            if w.start <= t1 and w.end > t0:
                return False
        return True


@dataclass(frozen=True)
class CrashSpec:
    """A permanent fail-stop fault injected at virtual time ``at``.

    Exactly one of the three targets must be set:

    * ``host`` — the named host's NIC dies: it stops transmitting and
      receiving (including loopback), and the rank's progress engine is
      terminated.  Models a host crash or NIC death.
    * ``switch`` — the named switch goes dark: every packet arriving at or
      forwarded by it is dropped.  Survivor traffic must reroute via a
      surviving spine.
    * ``link`` — a ``(end_a, end_b)`` node-name pair; both directions of
      the channel between them go down permanently.

    Crashes compose with the transient chaos schedules (drops, flaps,
    stragglers): the chaos layer keeps perturbing the surviving elements
    while the crash removes one permanently.
    """

    at: float
    host: Optional[str] = None
    switch: Optional[str] = None
    link: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        targets = [t for t in (self.host, self.switch, self.link) if t is not None]
        if len(targets) != 1:
            raise ValueError(
                "CrashSpec needs exactly one of host=, switch=, link=, "
                f"got {len(targets)} targets"
            )
        if self.link is not None:
            pair = tuple(self.link)
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(
                    f"link crash needs two distinct endpoint names, got {self.link!r}"
                )
            object.__setattr__(self, "link", pair)

    @property
    def target(self) -> str:
        """Human-readable name of the element that dies."""
        if self.host is not None:
            return self.host
        if self.switch is not None:
            return self.switch
        return "%s<->%s" % self.link  # type: ignore[str-format]
