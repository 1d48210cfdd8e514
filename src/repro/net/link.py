"""Point-to-point channels: bandwidth, latency, faults, reordering, counters.

A full-duplex cable is modeled as two independent :class:`Channel` objects.
Serialization is modeled with a ``busy_until`` watermark: a packet starts
transmitting when the channel frees up, occupies it for
``wire_bytes / bandwidth`` seconds, then propagates for ``latency`` seconds
(plus optional adaptive-routing jitter) before it reaches the destination
node.

The arrival instant and the drop decision are both known at the moment of
the ``transmit`` call, so a destination that implements ``arrive``
(switches and NICs) is handed the packet *then*, stamped with its arrival
instant, and schedules whatever the arrival causes itself (DESIGN.md
§6b).  A plain node gets ``receive`` by event at the arrival instant.
Every packet is its own transmission, on the reference path and the
production path alike; what the production path skips is left to the
folds (``repro.sim.fastforward``, ``repro.net.inc``).

Fault injection (:class:`FaultSpec`) models fabric drops: corrupted packets
still consume wire time (they were transmitted!) but are never delivered.
Reliable-transport packets are immune by default — real RC hardware
retransmits below the software's event horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.net.faults import GilbertElliott, Window, normalize_windows
from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["FaultSpec", "Channel", "GilbertElliott", "Window", "UNRELIABLE_KINDS",
           "DropTape", "serialize", "bypass_clear", "bypass_arrival",
           "bypass_tables", "bypass_fly"]

#: Packet kinds subject to fault injection / reordering (unreliable
#: transports).  RC traffic is retransmitted by hardware, so software never
#: observes its losses.  A tuple: a per-packet membership test compares
#: identities instead of calling ``Enum.__hash__``.
UNRELIABLE_KINDS: Tuple[PacketKind, ...] = (PacketKind.UD_SEND, PacketKind.UC_WRITE)

_NEVER = float("-inf")  #: a horizon nothing has been scheduled behind


@dataclass
class FaultSpec:
    """Fault-injection policy for one channel.

    Attributes
    ----------
    drop_prob:
        Per-packet Bernoulli drop probability (fabric BER model).
    drop_packet_seqs:
        Deterministic drops: the n-th *droppable* packet through this
        channel (0-based) is dropped if its index is in this set.  Used by
        unit tests to force specific loss patterns.
    drop_predicate:
        ``fn(packet, channel_seq) -> bool`` for arbitrary test scenarios.
    reorder_jitter:
        Maximum extra propagation delay, drawn uniformly per packet, that
        models adaptive-routing path dispersion.  Nonzero values cause
        out-of-order delivery of unreliable datagrams.
    protect_reliable:
        When True (default), RC packets are never dropped or reordered.
    gilbert_elliott:
        Optional two-state Markov burst-loss model; evaluated per droppable
        packet (chain state lives on the channel, so two channels sharing a
        spec burst independently).
    flap_windows:
        Link-flap outages: every affected packet transmitted inside one of
        these ``(start, end)`` windows is lost.
    bandwidth_windows:
        Degraded-bandwidth periods ``(start, end, factor)``: the channel
        serializes at ``factor × bandwidth`` inside the window.  Applies to
        *all* packets — it models the wire, not the transport.
    """

    drop_prob: float = 0.0
    drop_packet_seqs: Set[int] = field(default_factory=set)
    drop_predicate: Optional[Callable[[Packet, int], bool]] = None
    reorder_jitter: float = 0.0
    protect_reliable: bool = True
    gilbert_elliott: Optional[GilbertElliott] = None
    flap_windows: Sequence = ()
    bandwidth_windows: Sequence = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(
                f"drop_prob must be a probability in [0, 1], got {self.drop_prob}"
            )
        if self.reorder_jitter < 0:
            raise ValueError(
                f"reorder_jitter must be >= 0, got {self.reorder_jitter}"
            )
        if any(s < 0 for s in self.drop_packet_seqs):
            raise ValueError("drop_packet_seqs must be non-negative indices")
        self.flap_windows = normalize_windows(self.flap_windows)
        self.bandwidth_windows = normalize_windows(self.bandwidth_windows)

    def affects(self, packet: Packet) -> bool:
        if self.protect_reliable and packet.kind not in UNRELIABLE_KINDS:
            return False
        return True

    def clone(self) -> "FaultSpec":
        """An independent copy for one channel (fresh mutable state)."""
        return FaultSpec(
            drop_prob=self.drop_prob,
            drop_packet_seqs=set(self.drop_packet_seqs),
            drop_predicate=self.drop_predicate,
            reorder_jitter=self.reorder_jitter,
            protect_reliable=self.protect_reliable,
            gilbert_elliott=self.gilbert_elliott,
            flap_windows=self.flap_windows,
            bandwidth_windows=self.bandwidth_windows,
        )

    def in_flap(self, t: float) -> bool:
        return any(w.contains(t) for w in self.flap_windows)

    def bandwidth_factor(self, t: float) -> float:
        for w in self.bandwidth_windows:
            if w.contains(t):
                return w.factor
        return 1.0


class Channel:
    """A unidirectional link from ``src_name`` to a destination node.

    Parameters
    ----------
    sim:
        The simulator.
    src_name / dst_name:
        Node names, for identification in counters and routing.
    dst_node:
        The destination.  Either it implements ``arrive(packet, channel,
        at)`` — called at transmit time with the arrival instant — or its
        ``receive(packet, channel)`` is called by event at the arrival
        instant.
    bandwidth:
        Bytes per second.
    latency:
        Propagation delay in seconds.
    fault:
        Optional :class:`FaultSpec`.
    rng:
        numpy Generator for this channel's stochastic decisions; required
        when the fault spec uses probabilities or jitter.
    """

    __slots__ = (
        "sim",
        "src_name",
        "dst_name",
        "dst_node",
        "_hands_over",
        "horizon",
        "bandwidth",
        "latency",
        "fault",
        "rng",
        "busy_until",
        "ctrl_bypass_bytes",
        "bytes_sent",
        "packets_sent",
        "payload_bytes_sent",
        "bytes_dropped",
        "packets_dropped",
        "down",
        "_droppable_seq",
        "_ge_bad",
        "trace",
    )

    def __init__(
        self,
        sim: "Simulator",
        src_name: str,
        dst_name: str,
        dst_node,
        bandwidth: float,
        latency: float,
        fault: Optional[FaultSpec] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.src_name = src_name
        self.dst_name = dst_name
        self.dst_node = dst_node
        self._hands_over = hasattr(dst_node, "arrive")
        #: latest arrival instant of anything a NIC destination scheduled
        #: by event (:meth:`Nic.arrive`); the INC fold reads it to know
        #: the channel quiet, and moves it over what it folds
        self.horizon = _NEVER
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.fault = fault
        self.rng = rng
        self.busy_until = 0.0
        #: Packets at or below this wire size ride a high-priority virtual
        #: lane: they do not wait behind (or add to) the bulk-data queue.
        #: Models the fabric QoS (IB Virtual Lanes) the paper assumes for
        #: protocol control traffic (§VII-b); set to 0 to disable.
        self.ctrl_bypass_bytes = 128
        # --- counters (the "switch port telemetry" of Figure 12) ---
        self.bytes_sent = 0  #: wire bytes that finished serialization
        self.payload_bytes_sent = 0
        self.packets_sent = 0
        self.bytes_dropped = 0
        self.packets_dropped = 0
        #: fail-stop flag: a downed port drops everything instantly (set by
        #: Fabric.crash_link / crash_switch, never cleared)
        self.down = False
        self._droppable_seq = 0  #: index among fault-affected packets
        self._ge_bad: Optional[bool] = None  #: Gilbert–Elliott chain state
        #: observability track (repro.obs.trace.Track) or None; tracing
        #: records timestamps only — it never schedules events or consumes
        #: randomness, so results are identical with it on or off.
        self.trace = None

    @property
    def name(self) -> str:
        return f"{self.src_name}->{self.dst_name}"

    # -------------------------------------------------------------- transmit

    def transmit(self, packet: Packet) -> float:
        """Queue *packet* for transmission; returns its serialization-finish
        time (the instant the last byte leaves this port).

        The packet is handed to the destination node (or its delivery
        scheduled) before returning; a dropped packet still occupies the
        wire but is never delivered.
        """
        now = self.sim.now
        wire = packet.payload_len + packet.header_bytes
        if self.down:
            self.bytes_dropped += wire
            self.packets_dropped += 1
            return now
        bandwidth = self.bandwidth
        dropped = False
        jitter = 0.0
        fault = self.fault
        if fault is not None:
            # Degraded-bandwidth periods slow the wire itself, for every
            # transport (evaluated at transmit start — a DES approximation).
            bandwidth *= fault.bandwidth_factor(now)
            if fault.affects(packet):
                seq = self._droppable_seq
                self._droppable_seq = seq + 1
                dropped = self._should_drop(packet, seq)
                if not dropped and fault.reorder_jitter > 0.0:
                    if self.rng is None:
                        raise RuntimeError(f"channel {self.name} needs an rng for jitter")
                    jitter = float(self.rng.uniform(0.0, fault.reorder_jitter))
        trc = self.trace
        if wire <= self.ctrl_bypass_bytes:
            # High-priority VL: negligible wire time, no bulk queuing.
            finish = now + wire / bandwidth
        else:
            start = now if now > self.busy_until else self.busy_until
            finish = start + wire / bandwidth
            self.busy_until = finish
            if trc is not None:
                trc.complete("link.busy", start, finish - start)
        self.bytes_sent += wire
        self.payload_bytes_sent += packet.payload_len
        self.packets_sent += 1
        if dropped:
            self.bytes_dropped += wire
            self.packets_dropped += 1
            if trc is not None:
                trc.instant("link.drop", finish)
        elif self._hands_over:
            self.dst_node.arrive(packet, self, finish + self.latency + jitter)
        else:
            self.sim.post_at(finish + self.latency + jitter, self.dst_node.receive,
                             packet, self)
        return finish

    # ------------------------------------------------------- fold probes

    def _timing_inert(self) -> bool:
        """True when the fault state cannot perturb any packet's *timing*
        from now on: no reordering jitter, and no flap/bandwidth window
        that is active now or scheduled for the future — every packet is
        serialized at the nominal bandwidth, in FIFO order, as the folds'
        busy-chain walks (:func:`serialize`) assume."""
        f = self.fault
        if f is None:
            return True
        if f.reorder_jitter > 0.0:
            return False
        now = self.sim.now
        for w in f.flap_windows:
            if w.end > now:
                return False
        for w in f.bandwidth_windows:
            if w.end > now:
                return False
        return True

    def fault_inert(self) -> bool:
        """Inertness probe: the channel is up and provably cannot drop,
        delay, or reorder any future packet — timing faults are quiescent
        (:meth:`_timing_inert`, which also covers flap outages) and no drop
        machinery is armed.  The data fold asks :meth:`fold_drops`, which
        lets replayable drop machinery through."""
        f = self.fault
        return not self.down and self._timing_inert() and (f is None or not (
            f.drop_prob > 0.0 or f.drop_packet_seqs
            or f.drop_predicate is not None or f.gilbert_elliott is not None))

    def fold_drops(self) -> Optional[str]:
        """How the data fold treats this channel: ``None`` when nothing
        armed can drop a packet (:meth:`fault_inert`), ``"drops"`` when its
        drops are a function of the droppable index alone and so replayable
        by :meth:`draw_drops` — Bernoulli, Gilbert–Elliott, forced seqs —
        else the fold's reason to decline: ``"fault"`` (down, a timing
        fault, a ``drop_predicate``) or ``"lossy"`` (drops that reach RC
        packets, whose draws would interleave with the fold's)."""
        f = self.fault
        if self.down or not (f is None or self._timing_inert()
                             and f.drop_predicate is None):
            return "fault"
        if f is None or self.fault_inert():
            return None
        return "drops" if f.protect_reliable else "lossy"

    def draw_drops(self, k: int) -> np.ndarray:
        """The drop decisions of the next *k* droppable packets, drawn as a
        block: what *k* calls of :meth:`_should_drop` return, leaving the
        droppable index, the Gilbert–Elliott state and the RNG where they
        leave them.  Only for a channel :meth:`fold_drops` lets through (no
        predicate, no live flap window)."""
        f = self.fault
        seq = self._droppable_seq
        self._droppable_seq = seq + k
        drop = np.zeros(k, dtype=bool)
        drop[[s - seq for s in f.drop_packet_seqs if seq <= s < seq + k]] = True
        ge, p = f.gilbert_elliott, f.drop_prob
        if ge is None:
            free = np.flatnonzero(~drop)
            if p > 0.0 and len(free):
                if self.rng is None:
                    raise RuntimeError(f"channel {self.name} needs an rng for drop_prob")
                drop[free] = self.rng.random(len(free)) < p
            return drop
        if self.rng is None:
            raise RuntimeError(f"channel {self.name} needs an rng for burst loss")
        bg = self.rng.bit_generator
        state = bg.state
        # At most one transition, one state-loss and one Bernoulli value each.
        u = self.rng.random(int(k - drop.sum()) * (
            1 + (ge.drop_good > 0.0 or ge.drop_bad > 0.0) + (p > 0.0))).tolist()
        i = 0
        bad = self._ge_bad
        drops = drop.tolist()
        for x, forced in enumerate(drops):
            if forced:
                continue  # (no value drawn, the chain left as it is)
            if bad is None:
                bad = ge.start_bad
            if bad:
                if u[i] < ge.p_bad_good:
                    bad = False
            elif u[i] < ge.p_good_bad:
                bad = True
            i += 1
            q = ge.drop_bad if bad else ge.drop_good
            if q > 0.0:
                i += 1
                drops[x] = u[i - 1] < q
            if p > 0.0 and not drops[x]:
                i += 1
                drops[x] = u[i - 1] < p
        bg.state = state
        _consume(self.rng, i)
        self._ge_bad = bad
        return np.array(drops, dtype=bool)

    def _should_drop(self, packet: Packet, seq: int) -> bool:
        fault = self.fault
        assert fault is not None
        if fault.flap_windows and fault.in_flap(self.sim.now):
            return True  # link down: full outage window
        if seq in fault.drop_packet_seqs:
            return True
        if fault.drop_predicate is not None and fault.drop_predicate(packet, seq):
            return True
        ge = fault.gilbert_elliott
        if ge is not None:
            if self.rng is None:
                raise RuntimeError(f"channel {self.name} needs an rng for burst loss")
            if self._ge_bad is None:
                self._ge_bad = ge.start_bad
            # Step the chain, then sample the state's loss probability.
            if self._ge_bad:
                if self.rng.random() < ge.p_bad_good:
                    self._ge_bad = False
            elif self.rng.random() < ge.p_good_bad:
                self._ge_bad = True
            p = ge.drop_bad if self._ge_bad else ge.drop_good
            if p > 0.0 and self.rng.random() < p:
                return True
        if fault.drop_prob > 0.0:
            if self.rng is None:
                raise RuntimeError(f"channel {self.name} needs an rng for drop_prob")
            return bool(self.rng.random() < fault.drop_prob)
        return False

    # -------------------------------------------------------------- counters

    def reset_counters(self) -> None:
        self.bytes_sent = 0
        self.payload_bytes_sent = 0
        self.packets_sent = 0
        self.bytes_dropped = 0
        self.packets_dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} sent={self.packets_sent}p/{self.bytes_sent}B>"


def _consume(rng: np.random.Generator, n: int) -> None:
    """Move *rng* past its next *n* doubles (one 64-bit output each)."""
    advance = getattr(rng.bit_generator, "advance", None)
    if advance is not None:
        advance(n)
    elif n:
        rng.random(n)


class DropTape:
    """A channel's drop decisions for the packets it serves next, drawn
    ahead (:meth:`Channel.draw_drops`) and committed later.

    Decision *m* belongs to the *m*-th droppable packet the channel serves
    from the tape's start, whichever packet that turns out to be: drops are
    a function of the droppable index alone.  The channel itself is left as
    it was until :meth:`commit` moves it past exactly the decisions used —
    droppable index, Gilbert–Elliott state and RNG — so a caller may read
    further ahead than it ends up serving.
    """

    __slots__ = ("ch", "start", "cur", "drops")

    def __init__(self, ch: Channel) -> None:
        self.ch = ch
        self.start = self.cur = _state(ch)  # before the first, after the last
        self.drops = np.zeros(0, dtype=bool)

    def take(self, lo: int, hi: int) -> np.ndarray:
        """Decisions ``[lo, hi)``, drawing the missing ones."""
        have = len(self.drops)
        if hi > have:
            self.cur, more = _drawn(self.ch, self.cur, hi - have)
            self.drops = np.concatenate([self.drops, more])
        return self.drops[lo:hi]

    def commit(self, used: int) -> None:
        """Leave the channel as *used* transmissions from the start would:
        where the last drawn decision left it, else drawn again up to
        *used* (a session that read past what it served)."""
        state = self.cur if used == len(self.drops) else _drawn(
            self.ch, self.start, used)[0]
        _set_state(self.ch, state)


def _drawn(ch: Channel, state: tuple, k: int):
    """``(state after, decisions)``: *k* decisions drawn from *state*,
    leaving *ch* as it was."""
    keep = _state(ch)
    _set_state(ch, state)
    drops = ch.draw_drops(k)
    state = _state(ch)
    _set_state(ch, keep)
    return state, drops


def _state(ch: Channel) -> tuple:
    return (ch._droppable_seq, ch._ge_bad,
            None if ch.rng is None else ch.rng.bit_generator.state)


def _set_state(ch: Channel, state: tuple) -> None:
    ch._droppable_seq, ch._ge_bad, rng = state
    if rng is not None:
        ch.rng.bit_generator.state = rng


def serialize(calls: Sequence[float], wires: Sequence[int], bandwidth: float,
              busy: float, bypass: int) -> List[float]:
    """The finish instants :meth:`Channel.transmit` gives packets of
    ``wires[i]`` bytes handed to a fault-free channel at ``calls[i]``, in
    that order, from ``busy_until`` *busy* — in ``transmit``'s own float
    expressions (the bulk queue, or the bypass lane at or below *bypass*
    bytes).  Pure: the per-edge walk of a folded stream."""
    finishes = []
    for t, w in zip(calls, wires):
        if w <= bypass:
            finishes.append(t + w / bandwidth)
        else:
            busy = (t if t > busy else busy) + w / bandwidth
            finishes.append(busy)
    return finishes


# A packet at or below ``ctrl_bypass_bytes`` never queues, so its flight is
# a fixed float chain per hop: ``Channel.transmit``'s bypass branch
# (``finish = t + wire/bw``, ``at = finish + latency``; ``+ jitter`` of 0.0
# is the identity), then ``Switch.arrive`` (``at + forwarding_delay``; 0.0
# into a NIC).  The control fold evaluates it scalar and by route matrix.

def bypass_clear(ch: Channel, wire: int) -> bool:
    """Whether *ch* carries a *wire*-byte RC packet on its bypass lane
    untouched: up, within the lane, and no fault that can reach an RC
    packet — one that spares reliable transports and has no timing fault
    live or ahead; its drops touch only UD/UC packets."""
    return not (ch.down or wire > ch.ctrl_bypass_bytes or (
        ch.fault is not None and not (ch.fault.protect_reliable
                                      and ch._timing_inert())))


def _forwarding_delay(ch: Channel) -> float:
    return getattr(ch.dst_node, "forwarding_delay", 0.0)


def bypass_arrival(t: float, chans: Sequence[Channel], wire: int) -> float:
    """When a *wire*-byte packet injected at *t* leaves the last of *chans*."""
    for ch in chans:
        t = ((t + wire / ch.bandwidth) + ch.latency) + _forwarding_delay(ch)
    return t


def bypass_tables(chans: Sequence[Channel], used: Sequence[int], wire: int):
    """Per channel ``chans[i]``, *i* in *used*: serialisation, latency and
    forwarding delay, indexed by *i*; zeros elsewhere, so the null hop 0
    that pads short rows of a route matrix adds nothing."""
    tables = np.zeros((3, len(chans)))
    tables[:, used] = np.array([(wire / ch.bandwidth, ch.latency, _forwarding_delay(ch))
                                for ch in map(chans.__getitem__, used)]).reshape(-1, 3).T
    return tuple(tables)


def bypass_fly(t: np.ndarray, matrix: np.ndarray, tables) -> np.ndarray:
    """:func:`bypass_arrival` of packets injected at ``t[i]`` along row *i*
    of *matrix*, channel indices into *tables*."""
    ser, lat, fwd = tables
    for hop in matrix.T:
        t = ((t + ser[hop]) + lat[hop]) + fwd[hop]
    return t
