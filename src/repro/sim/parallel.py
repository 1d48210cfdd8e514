"""Tree edges and receiver lanes of the fast-forward's data fold (DESIGN §6d).

Every edge serves the folded packets FIFO in the order they reach it.
:class:`TreeEdges` holds the up- and down-channels under the packets of
concurrently pending phases (concurrent chains included), and serves a
phase that does not append only once something needs its exact forwards.
The receive chains are independent (paper §IV-A): :class:`ReceiverLanes`
keeps one lane per rank — the switch→host edge's busy chain, the receive
worker's cursor (:func:`worker_step`) and (UD) the staging-DMA drain.
``numpy`` ``maximum``/add are the same IEEE-754 operations the packet
path evaluates, in the same order per lane, so the instants are
bit-identical to it.  Nothing here commits by itself: each step returns a
new state, which the session commits once every gate after it has passed.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.link import DropTape, serialize

__all__ = ["LaneState", "ReceiverLanes", "TreeDrops", "TreeEdges",
           "count_channel", "forward_packet", "without", "worker_step"]

_INF = float("inf")
_NEG_INF = float("-inf")

#: what a phase leaves in the lanes, per lane: the switch→host edge's busy
#: watermark, the worker cursor, the last receive finish, the DMA watermark;
#: and, when traced (UD), the staging holds so far: ``None`` untraced, else
#: ``()`` or ``(earlier, take, release)`` — per lane, when the worker takes
#: a slot (``nan``: none) and when its copy releases it
LaneState = namedtuple("LaneState", "hd_busy cursor last_fin dma_busy hold")


def worker_step(a, cursor, c1: float, c2: float, copy, dma_busy):
    """One CQE per lane through the receive worker: the cursor
    ``max(arrival, cursor) + (poll+process) + repost`` and, for UD
    (``copy``, each lane's ``bytes / dma bandwidth``, not ``None``), the
    staging-DMA drain the worker issues.  Returns ``(cursor, dma_busy)``;
    UC passes ``dma_busy`` through."""
    t = np.maximum(a, cursor) + c1 + c2
    if copy is not None:
        dma_busy = np.maximum(t, dma_busy) + copy
    return t, dma_busy


class ReceiverLanes:
    """Host-level chain state, one lane per rank of the collective.

    ``switch_of`` maps each lane to the index of its hosting switch in the
    per-packet forwarding rows the session passes (``rows[k][switch]`` is
    when that switch hands packet ``k`` to its host edges); ``hd_*``
    describe the switch→host channel, ``dma_*`` the staging drain (UD
    only: pass ``dma=None`` for UC, whose finish is the worker cursor).
    """

    def __init__(self, switch_of: np.ndarray, c1: float, c2: float,
                 hd_bw: np.ndarray, hd_lat: np.ndarray, hd_busy: np.ndarray,
                 cursor: np.ndarray,
                 dma: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
                 ) -> None:
        self.switch_of = switch_of
        self.c1 = c1
        self.c2 = c2
        self.bw = hd_bw
        self.lat = hd_lat
        self.hd_busy = hd_busy
        self.cursor = cursor
        self.last_fin = np.full(len(hd_busy), _NEG_INF)
        self.dma_bw, self.dma_lat, self.dma_busy = dma or (None, None, None)
        self.hold = None
        self.lane = np.arange(len(hd_busy))
        #: per-lane serialization / copy times by size, computed once
        self._ser: Dict[int, np.ndarray] = {}
        self._copy: Dict[int, np.ndarray] = {}

    @property
    def state(self) -> LaneState:
        return LaneState(self.hd_busy, self.cursor, self.last_fin,
                         self.dma_busy, self.hold)

    def phase(self, rows: np.ndarray, wires, lens, sender: int, got=None):
        """One phase of ``len(wires)`` packets that reach every lane's edge
        after all packets before them.  Returns ``(state, fins)``: the new
        lane state for :meth:`commit` and each lane's finish, ``-inf`` on
        the sender's, which receives nothing and keeps its state.  Under
        loss, ``got[k]`` masks the lanes packet *k* survives to: its edge
        serves it if its switch forwards it (``rows`` not ``-inf``), the
        worker only if the edge delivers it."""
        s = sender
        hd, cur, dma, hold = self.hd_busy, self.cursor, self.dma_busy, self.hold
        for k, w in enumerate(wires):
            ser = self._ser.get(w)
            if ser is None:
                ser = self._ser[w] = w / self.bw
            a = rows[k][self.switch_of]
            h = np.maximum(a, hd) + ser
            hd = h if got is None else np.where(a > _NEG_INF, h, hd)
            a = hd + self.lat
            copy = None
            if dma is not None:
                copy = self._copy.get(lens[k])
                if copy is None:
                    copy = self._copy[lens[k]] = lens[k] / self.dma_bw
            take = None if hold is None else np.maximum(a, cur) + self.c1
            c, d = worker_step(a, cur, self.c1, self.c2, copy, dma)
            if got is None:
                cur, dma = c, d
            else:  # (``max(-inf, cursor) + c1 + c2`` would still step)
                g = got[k]
                cur = np.where(g, c, cur)
                dma = None if d is None else np.where(g, d, dma)
                if take is not None:
                    take[~g] = np.nan
            if take is not None and dma is not None:
                take[s] = np.nan
                hold = (hold, take, dma + self.dma_lat)
        fins = cur.copy() if dma is None else dma + self.dma_lat
        if got is not None:  # a lane that got nothing keeps its last finish
            fins = np.where(got.any(0), fins, self.last_fin)
        out = fins.copy()
        hd[s], cur[s], fins[s], out[s] = (self.hd_busy[s], self.cursor[s],
                                          self.last_fin[s], _NEG_INF)
        if dma is not None:
            dma[s] = self.dma_busy[s]
        return LaneState(hd, cur, fins, dma, hold), out

    def settle(self, state: LaneState, packets: tuple, lo: float, hi: float,
               lanes=None) -> LaneState:
        """Step *lanes* (all by default) from *state* through the *packets*
        of concurrently pending phases (:meth:`TreeEdges.rows`: forwarding
        rows, wire and payload bytes and each packet's sender lane, which
        does not receive it) whose arrival at the lane's switch is in
        ``[lo, hi)``, each lane in its own arrival order: the rows sorted
        per switch (equal arrivals keep row order), spread to its lanes — a
        lane skips its own packets — and stepped one row at a time.
        Returns the lanes' new state."""
        rows, _, wires, lens, src = packets
        js = self.lane if lanes is None else np.asarray(lanes)
        sws, col = np.unique(self.switch_of[js], return_inverse=True)
        a = rows[:, sws]
        win = (a >= lo) & (a < hi)
        r = np.flatnonzero(win.any(1))  # the rows some lane serves now
        a, win = a[r], win[r]
        order = np.argsort(np.where(win, a, _INF), axis=0, kind="stable")
        steps = int(win.sum(0).max()) if win.size else 0
        order = order[:steps]
        a = np.take_along_axis(a, order, 0)[:, col]
        ok = np.take_along_axis(win, order, 0)[:, col]
        order = r[order][:, col]
        ok &= src[order] != js
        hd, cur, fin = state.hd_busy[js], state.cursor[js], state.last_fin[js]
        dma = None if state.dma_busy is None else state.dma_busy[js]
        hold = state.hold if lanes is None and dma is not None else None
        lat = self.lat[js]
        ser = wires[order] / self.bw[js]
        copy = None if dma is None else lens[order] / self.dma_bw[js]
        for k in range(steps):
            v = ok[k]
            h = np.maximum(a[k], hd) + ser[k]
            take = None if hold is None else np.maximum(h + lat, cur) + self.c1
            c, d = worker_step(h + lat, cur, self.c1, self.c2,
                               None if copy is None else copy[k], dma)
            if take is not None:
                hold = (hold, np.where(v, take, np.nan), d + self.dma_lat[js])
            f = c if d is None else d + self.dma_lat[js]
            if not v.all():
                h, c, f = np.where(v, h, hd), np.where(v, c, cur), np.where(v, f, fin)
                d = None if d is None else np.where(v, d, dma)
            hd, cur, fin, dma = h, c, f, d
        return LaneState(hd, cur, fin, dma, state.hold if hold is None else hold)

    def bound(self, state: LaneState, last: float, wires: np.ndarray,
              lens: np.ndarray) -> float:
        """An upper bound on every lane's finish once it has served, from
        *state*, packets of *wires* / *lens* bytes arriving no later than
        *last*: a FIFO tandem is monotone in its
        arrivals and its work, so the edge, worker and DMA are bounded by
        one FIFO server with the largest of their service times, from a
        start covering all three and the last arrival, plus one worker step
        and one copy (and a relative margin for the exact walk's rounding)."""
        cost = self.c1 + self.c2
        copy = 0.0 if state.dma_busy is None else lens / self.dma_bw.min()
        serve = np.maximum(np.maximum(wires / self.bw.min(), cost), copy)
        start = np.maximum(state.hd_busy, state.cursor - self.lat)
        tail = self.lat + cost
        if state.dma_busy is not None:
            start = np.maximum(start, state.dma_busy - tail)
            tail = tail + np.max(copy) + self.dma_lat
        return (max(start.max(), last) + serve.sum() + tail.max()) * (1 + 1e-9)

    def commit(self, state: LaneState) -> None:
        self.hd_busy, self.cursor, self.last_fin, self.dma_busy, self.hold = state

    def peaks(self):
        """Per lane, the most staging slots its worker held at once —
        taken at the CQE poll, released when the copy completes — and when
        that peak is first reached; ``(0, None)`` for a lane that held none."""
        takes, releases, node = [], [], self.hold
        while node:
            node, take, release = node
            takes.append(take)
            releases.append(release)
        out = []
        for take, release in zip(np.array(takes[::-1]).T, np.array(releases[::-1]).T):
            ok = take == take
            take, release = take[ok], release[ok]
            held = np.arange(1, len(take) + 1) - np.searchsorted(
                release, take, side="left")
            k = int(held.argmax()) if len(held) else 0
            out.append((int(held[k]), float(take[k])) if len(held) else (0, None))
        return out


class TreeDrops:
    """The drops of a session whose tree channels have drop machinery
    armed.  Every channel with a fault reads its decisions off a
    :class:`~repro.net.link.DropTape` in the order it serves the session's
    packets — a phase's after every pending one (the session folds a lossy
    phase only then), so in packet order.  A packet dropped on an edge is
    absent from every edge and host edge below it.  Per channel it keeps
    the counters the flush commits, and per switch and lane what reached
    it.  ``switch_of``/``hd``/``eg``: each
    lane's switch, switch→host channel and NIC egress."""

    def __init__(self, tree, switch_of: np.ndarray, hd, eg) -> None:
        self.T = tree
        self.switch_of = switch_of
        self.hd, self.eg = hd, eg
        self.tapes = {ch: DropTape(ch) for ch in tree.faulty}
        self.used = dict.fromkeys(self.tapes, 0)  #: decisions committed
        #: per channel: packets, wire bytes, payload bytes, drops, dropped
        #: wire bytes
        self.counts: Dict[object, np.ndarray] = {}
        self.fwd = np.zeros(tree.S, dtype=np.int64)  #: packets per switch
        self.rx = np.zeros((len(hd), 2), dtype=np.int64)  #: packets, payload
        self.holes: Dict[int, List[int]] = {}  #: lane -> the chunks it lost
        #: per switch, the least time a packet any host injects takes to
        #: reach it: no wire time, no queueing
        self.near = self._reach(np.array([eg.latency + tree.d[c]
                                          for c, _, eg in tree.host.values()]),
                                [c for c, _, _ in tree.host.values()])
        self._from: Dict[int, np.ndarray] = {}  # the same from one lane

    def _reach(self, at: np.ndarray, switches) -> np.ndarray:
        """Per switch, the earliest of *at* carried on from *switches* along
        the tree, each hop its latency and the forwarding delay."""
        T = self.T
        t = np.full(T.S, _INF)
        np.minimum.at(t, switches, at)
        for c in range(T.S - 1, 0, -1):  # up, then down the tree
            p = T.par[c]
            t[p] = min(t[p], (t[c] + T.up[c].latency) + T.d[p])
        for c in range(1, T.S):
            t[c] = min(t[c], (t[T.par[c]] + T.down[c].latency) + T.d[c])
        return t

    def clear(self, last: np.ndarray, lane: int, first: float,
              later: float) -> bool:
        """Whether every switch forwards all it has forwarded so far
        (*last*) before any packet of a later phase can reach it: the next
        root, lane *lane*, calls its egress no sooner than *first*, and any
        root after it no sooner than *later*.  Then every channel serves
        the folded packets ahead of the next phases', whether those fold or
        not: a session that ends early leaves no draw out of order."""
        lane = int(lane)
        own = self._from.get(lane)
        if own is None:
            c = int(self.switch_of[lane])
            own = self._from[lane] = self._reach(
                np.array([self.eg[lane].latency + self.T.d[c]]), [c])
        return bool((last < np.minimum(first + own, later + self.near)).all())

    def phase(self, i: int, psn: int, wires, lens):
        """Lane *i*'s phase, chunks from *psn* on: ``(reach, got, pending)``
        — per packet the switches it reaches and the lanes it survives to,
        and what :meth:`commit` adds once the phase folds."""
        T, n = self.T, len(wires)
        W, L = np.array(wires), np.array(lens)
        counts, used = {}, {}

        def serve(ch, mask):  # the packets *mask* reaching *ch*: survivors
            k = int(mask.sum())
            tape, alive = self.tapes.get(ch), mask
            lost = np.zeros(n, dtype=bool)
            if tape is not None and k:
                at = self.used[ch]
                lost[mask] = tape.take(at, at + k)
                alive = mask & ~lost
                used[ch] = k
            counts[ch] = (k, W[mask].sum(), L[mask].sum(), lost.sum(),
                          W[lost].sum())
            return alive

        reach = np.zeros((n, T.S), dtype=bool)
        c = int(self.switch_of[i])
        reach[:, c] = serve(self.eg[i], np.ones(n, dtype=bool))
        on = T.anc[c]
        while c:
            reach[:, T.par[c]] = serve(T.up[c], reach[:, c])
            c = T.par[c]
        for c in range(1, T.S):  # (breadth-first: every parent first)
            if not on[c]:
                reach[:, c] = serve(T.down[c], reach[:, T.par[c]])
        got = np.zeros((n, len(self.hd)), dtype=bool)
        for j, ch in enumerate(self.hd):
            if j != i:
                got[:, j] = serve(ch, reach[:, self.switch_of[j]])
        miss = ~got
        miss[:, i] = False
        holes = {j: (psn + np.flatnonzero(miss[:, j])).tolist()
                 for j in np.flatnonzero(miss.any(0)).tolist()}
        return reach, got, (counts, used, reach.sum(0), got.sum(0), L @ got,
                            holes)

    def commit(self, pending) -> None:
        counts, used, fwd, packets, payload, holes = pending
        for j, lost in holes.items():
            self.holes.setdefault(j, []).extend(lost)
        for ch, row in counts.items():
            have = self.counts.get(ch)
            self.counts[ch] = np.array(row) if have is None else have + row
        for ch, k in used.items():
            self.used[ch] += k
        self.fwd += fwd
        self.rx[:, 0] += packets
        self.rx[:, 1] += payload

    def count(self, ch, busy: float, *_) -> None:
        """:func:`count_channel` with this session's counts of *ch* in
        place of the phase records."""
        row = self.counts.get(ch)
        row = [0] * 5 if row is None else row.tolist()
        count_channel(ch, busy, row[:3], ())
        ch.packets_dropped += row[3]
        ch.bytes_dropped += row[4]

    def flush(self) -> None:
        """Move every tape's channel past the decisions the session used."""
        for ch, tape in self.tapes.items():
            tape.commit(self.used[ch])


def count_channel(ch, busy: float, counts: List[int], faulty) -> None:
    """Commit one channel: its watermark and ``(packets, wire bytes,
    payload bytes)``."""
    packets, wire, payload = counts
    ch.busy_until = busy
    ch.packets_sent += packets
    ch.bytes_sent += wire
    ch.payload_bytes_sent += payload
    if ch in faulty:
        # Data packets are always fault-affected kinds: the droppable index
        # moves in lockstep (no drop machinery is armed, no RNG is consumed;
        # under loss the tapes move it instead).
        ch._droppable_seq += packets


def forward_packet(sw, ports: int, chans, wire: int, payload: int, faulty,
                   lost, sign: int) -> None:
    """*sw* forwards one packet onto *chans*, lost on those in *lost*
    (``sign`` -1 takes it back)."""
    sw.packets_forwarded += sign * ports
    for ch in chans:
        ch.packets_sent += sign
        ch.bytes_sent += sign * wire
        ch.payload_bytes_sent += sign * payload
        if ch in faulty:
            ch._droppable_seq += sign
        if ch in lost:
            ch.packets_dropped += sign
            ch.bytes_dropped += sign * wire


class TreeEdges:
    """The multicast tree's up- and down-channels under the session's
    pending packets — those a later phase could still reach an edge ahead
    of, or a lane has not served: per packet, when each switch forwards it
    (``F``), when the edge into each switch delivers it (``D``), its wire
    and payload bytes and sender lane.  Every edge serves its packets FIFO
    in arrival order; a dropped packet's deliveries stay in a base
    watermark.

    Like the lanes, the edges defer: a phase that does not append after
    every pending packet is *fresh* — known only where its sender's switch
    forwards it — until :meth:`settle` serves every fresh packet at once;
    :meth:`bound` bounds the forwards meanwhile.  ``switch_of``: each
    lane's switch; ``eg_lat``: its NIC-egress latency."""

    def __init__(self, tree, switch_of: np.ndarray, eg_lat) -> None:
        T = self.T = tree
        self.switch_of = switch_of
        self.eg_lat = eg_lat
        self.up = np.array([0.0] + [ch.busy_until for ch in T.up[1:]])
        self.down = np.array([0.0] + [ch.busy_until for ch in T.down[1:]])
        self.base_up, self.base_down = self.up, self.down
        # per switch: its up-channel's bandwidth and latency, its parent's
        # forwarding delay, its down-channel's bandwidth
        self.ubw = np.array([1.0] + [ch.bandwidth for ch in T.up[1:]])
        self.ulat = np.array([0.0] + [ch.latency for ch in T.up[1:]])
        self.pd = np.array(T.d)[T.pa]
        self.dbw = np.array([1.0] + [ch.bandwidth for ch in T.down[1:]])
        self._ser: Dict[int, List[np.ndarray]] = {}  # per size, per level
        self._rows = (np.empty((0, T.S)), np.empty((0, T.S)), np.empty(0),
                      np.empty(0), np.empty(0, dtype=np.intp))  # F D W L src
        self._blocks: List[tuple] = []  # phases added since
        self.size = None  # the one packet size so far (0: several)
        self.last = np.full(T.S, _NEG_INF)  # latest served forward, per switch
        self.fresh = 0  # the last pending packets, not served yet
        #: per switch, the latest forward there of the rows sent from below
        #: it and at its parent of the rest — ``None`` until needed, at
        #: least the exact values once rows drop
        self._tops: Optional[tuple] = None

    def rows(self, state=None):
        """The pending packets' ``(F, D, W, L, src)`` — with a
        phase :meth:`add` returned *state* for, not committed yet.  A fresh
        packet's ``F`` and ``D`` are ``nan`` past its sender's switch."""
        if self._blocks:
            self._rows = self._join(self._blocks)
            self._blocks = []
        if state is None:
            return self._rows
        if state[0] is None:  # joined once: commit takes the arrays
            state[0] = self._join([state[1]])
        return state[0]

    def _join(self, blocks) -> tuple:
        """The rows with *blocks* — ``(F, D, wires, lens, sender)`` per
        added phase — after them."""
        n = [len(b[2]) for b in blocks]
        return tuple(np.concatenate([r, *x]) for r, x in zip(self._rows, (
            [b[0] for b in blocks], [b[1] for b in blocks],
            [np.array(b[2], dtype=float) for b in blocks],
            [np.array(b[3], dtype=float) for b in blocks],
            [np.full(k, b[4], dtype=np.intp) for k, b in zip(n, blocks)])))

    def add(self, i: int, fins: List[float], wires: List[int],
            lens: List[int], reach: Optional[np.ndarray] = None):
        """Lane *i*'s phase, its egress finishes *fins*, among the pending
        packets: ``(state, rows)`` — the state for :meth:`commit`
        (:meth:`rows` reads the packets in it) and, if it reaches every
        tree edge and every switch's host edges after all pending packets,
        the phase's forwarding rows —, or ``(None, None)`` when packets of
        two sizes would reach one switch at one instant (of one size, either
        order leaves every instant as it is: they go on to the same
        subtree).  A phase that does not append, or comes while fresh
        packets are pending, is fresh; with packets of two sizes it is
        served at once, for the tie check on its exact arrivals.  Under
        loss (``reach[k, c]``: packet *k* reaches switch *c*) a packet is
        ``-inf`` where it does not arrive, and the phase must come strictly
        after every pending packet, edges and host edges alike — the order
        each channel draws its drops in — else ``(None, None)``."""
        T = self.T
        n = len(wires)
        size = wires[0] if self.size in (None, wires[0]) and min(wires) == max(
            wires) else 0
        ties = bool(size) and reach is None
        rows = None if self.fresh else self._append(i, fins, wires, ties, reach)
        if reach is not None and (rows is None or not rows[4]):
            return None, None
        if rows is not None:
            rows, dep, up, down, lanes = rows
            state = [None, (rows, dep, wires, lens, i), up, down, np.maximum(
                self.last, rows[-1] if reach is None else rows.max(0)), size, 0]
            if not lanes:
                rows = None  # a host edge is handed it earlier
        else:
            c = int(self.switch_of[i])
            F, D = np.full((n, T.S), np.nan), np.full((n, T.S), np.nan)
            F[:, c] = [(f + self.eg_lat[i]) + T.d[c] for f in fins]
            D[:, c] = fins
            state = [None, (F, D, wires, lens, i), self.up, self.down,
                     self.last, size, self.fresh + n]
        if rows is None and not ties:
            F, _, W = self.settle(state)[:3]
            if self._tied(F, W):
                return None, None
        return state, rows

    @staticmethod
    def _tied(F: np.ndarray, W: np.ndarray) -> bool:
        """Whether packets of two sizes reach one switch at one instant."""
        for a in F.T:
            k = np.argsort(a, kind="stable")
            if ((a[k[1:]] == a[k[:-1]]) & (W[k[1:]] != W[k[:-1]])).any():
                return True
        return False

    def commit(self, state) -> None:
        full, block = state[:2]
        if full is not None:
            self._rows, self._blocks = full, []
        else:
            self._blocks.append(block)
        if block is None or state[6]:  # served, or fresh
            self._tops = None
        elif self._tops is not None:  # appended: its forwards join the tops
            F, below = block[0].max(0), self.T.anc[self.switch_of[block[4]]]
            self._tops = (
                np.maximum(self._tops[0], np.where(below, F, _NEG_INF)),
                np.maximum(self._tops[1], np.where(below, _NEG_INF, F[self.T.pa])))
        self.up, self.down, self.last, self.size, self.fresh = state[2:]

    def settle(self, state=None) -> tuple:
        """:meth:`rows` — committed, or with *state* — once every fresh
        packet is served (:meth:`_serve`; nothing to do when none is)."""
        if state is None:
            if self.fresh:
                self._rows, self.up, self.down, self.last = self._serve(
                    self.rows(), self.fresh, self.up, self.down, self.last)
                self.fresh, self._tops = 0, None
            return self.rows()
        if state[6]:
            state[0], state[2], state[3], state[4] = self._serve(
                self.rows(state), state[6], *state[2:5])
            state[1], state[6] = None, 0
        return self.rows(state)

    def bound(self, state=None) -> float:
        """An upper bound on every pending forward, exact when no packet is
        fresh.  Else an edge delivers each packet it carries by the later
        of its watermark before them and the packet's arrival, plus the
        wire time of them all (FIFO): so a bound on the forwards at a
        switch bounds them past its up-channel — from the injections, a
        level at a time up to the root — then past every down-channel from
        the root, with :meth:`ReceiverLanes.bound`'s relative margin."""
        fresh, last = (self.fresh, self.last) if state is None else (
            state[6], state[4])
        if not fresh:
            return float(last.max())
        T = self.T
        F, _, W, _, src = self.rows(state)
        sw = self.switch_of[src]
        at = np.full(T.S, _NEG_INF)  # per switch, its latest forward
        np.maximum.at(at, sw, F[np.arange(len(sw)), sw])
        carried = W @ T.anc[sw]  # bytes up each switch's up-channel
        for lo, hi, par, *_ in reversed(T.levels):
            k = carried[lo:hi] > 0
            np.maximum.at(at, par[k], ((np.maximum(
                self.base_up[lo:hi], at[lo:hi]) + carried[lo:hi] / self.ubw[
                lo:hi]) + self.ulat[lo:hi] + self.pd[lo:hi])[k])
        carried = W.sum() - carried  # ... and down its down-channel
        for lo, hi, par, bw, lat, d in T.levels:
            k = carried[lo:hi] > 0
            at[lo:hi] = np.where(k, np.maximum(at[lo:hi], (np.maximum(
                self.base_down[lo:hi], at[par]) + carried[lo:hi] / bw)
                + lat + d), at[lo:hi])
        return float(at.max()) * (1 + 1e-9)

    def forwarded_by(self, t: float) -> int:
        """At most how many pending packets every switch forwards before
        *t*, fresh ones unserved: a down-channel delivers the k-th of the
        packets it carries no sooner than k wire times of the smallest
        after the earliest injection among them, and forwards them below
        after that; every other packet may be done."""
        F, _, W, _, src = self.rows()
        n = len(W)
        sw = self.switch_of[src]
        off = ~self.T.anc[sw][:, 1:]  # the packets down each down-channel
        k = off.sum(0)
        first = np.where(off, F[np.arange(n), sw][:, None], _INF).min(
            0, initial=_INF)
        done = np.floor((t - first) / (W.min() / self.dbw[1:])) + 1
        return int((n - k + np.clip(done, 0, k)).min(initial=n))

    def _append(self, i: int, fins: List[float], wires: List[int],
                ties: bool, reach: Optional[np.ndarray] = None):
        """The phase's packets if each reaches every tree edge after all
        the pending ones (or, *ties*: every packet of one size, no earlier)
        — ``(forwarding rows, delivery rows, up- and down-channel
        watermarks, whether every switch forwards it after them too)`` —
        else ``None``: a scalar up-chain from the sender's switch to the
        root, then one vectorised busy-chain step per tree level per chunk,
        the sender's path masked.  Under loss an edge serves only what
        *reach* says its source switch forwards; a delivery row then holds
        the edge's watermark where the edge does not serve the packet."""
        T = self.T
        n = len(wires)
        c = int(self.switch_of[i])
        inj, dep = [(f + self.eg_lat[i]) + T.d[c] for f in fins], fins
        if reach is not None:
            inj = _arrived(inj, reach[:, c])
        masks = {}  # depth -> (switch on the sender's path, arrivals, deliveries)
        up = self.up.copy()
        while c:
            masks[T.depth[c]] = (c, inj, dep)
            ch = T.up[c]
            p = T.par[c]
            # (a packet the edge does not serve — ``-inf``, zero bytes — leaves
            # its watermark: ``max(-inf, busy) + 0.0`` is ``busy``)
            dep = serialize(inj, wires if reach is None else [
                w if t > _NEG_INF else 0 for t, w in zip(inj, wires)],
                ch.bandwidth, float(up[c]), -1)
            up[c] = dep[-1]
            inj = [(f + ch.latency) + T.d[p] for f in dep]
            if reach is not None:
                inj = _arrived(inj, reach[:, p])
            c = p
        rows, deps = np.empty((n, T.S)), np.empty((n, T.S))
        rows[:, 0], deps[:, 0] = inj, dep
        busy = self.down  # each down-channel's watermark before packet k
        for k, w in enumerate(wires):
            ser = self._ser.get(w)
            if ser is None:
                ser = self._ser[w] = [w / bw for _, _, _, bw, _, _ in T.levels]
            row, drow = rows[k], deps[k]
            for depth, (lo, hi, par, _, dlat, d) in enumerate(T.levels, 1):
                new = np.maximum(row[par], busy[lo:hi]) + ser[depth - 1]
                if reach is None:
                    drow[lo:hi] = new
                    row[lo:hi] = (new + dlat) + d
                else:  # an edge its source does not forward it to is idle
                    drow[lo:hi] = np.where(reach[k, par], new, busy[lo:hi])
                    row[lo:hi] = np.where(reach[k, lo:hi], (new + dlat) + d,
                                          _NEG_INF)
                m = masks.get(depth)
                if m is not None:  # the sender's path: no down hop
                    row[m[0]], drow[m[0]] = m[1][k], m[2][k]
            busy = drow
            if k == 0 and reach is None:
                lanes = self._after(i, row, ties)
                if lanes is None:
                    return None
        if reach is not None:  # each switch's first arrival decides
            lanes = self._after(i, np.where(reach.any(0), rows[
                reach.argmax(0), np.arange(T.S)], _INF), False)
            if lanes is None:
                return None
        down = deps[n - 1].copy()  # (the root and the sender's path keep theirs)
        for c in [0] + [m[0] for m in masks.values()]:
            down[c] = self.down[c]
        return rows, deps, up, down, lanes

    def _after(self, i: int, row: np.ndarray, ties: bool) -> Optional[bool]:
        """Whether a phase whose first packets reach the switches at *row*
        comes after the latest pending forward at every switch (``True``),
        or only after each tree channel's latest arrival (``False``), or
        neither (``None``); with *ties* an equal instant counts as after."""
        T = self.T
        if (row >= self.last if ties else row > self.last).all():
            return True
        on = T.anc[self.switch_of[i]]
        at = np.where(on, row, row[T.pa])[1:]

        def clear() -> bool:
            last = np.where(on, *self._tops)[1:]
            return bool((at >= last if ties else at > last).all())

        if self._tops is not None and clear():
            return False
        F, _, _, _, src = self.rows()
        below = T.anc[self.switch_of[src]]
        self._tops = (np.where(below, F, _NEG_INF).max(0, initial=_NEG_INF),
                      np.where(below, _NEG_INF, F[:, T.pa]).max(0, initial=_NEG_INF))
        return False if clear() else None

    def _serve(self, rows, k: int, up, down, last):
        """*rows* with their last *k*, fresh, served on every edge they
        cross: the up-channels a level at a time from the deepest, then the
        down-channels from the root, each edge re-served from the earliest
        arrival a change touched there (``theta``; :meth:`_queue`).
        Returns the rows, the up- and down-channel watermarks and the
        latest forward per switch."""
        T = self.T
        F, D, W, L, src = rows
        below = T.anc[self.switch_of[src]]  # the sender is below
        theta = np.full(T.S, _INF)  # earliest arrival changed, per switch
        new = np.arange(len(W) - k, len(W))
        c = self.switch_of[src[new]]  # (a fresh packet is known here only)
        np.minimum.at(theta, c, F[new, c])
        up, down = up.copy(), down.copy()
        for lo, hi, par, *_ in reversed(T.levels):
            up[lo:hi] = self._queue(
                F, D, W, theta, np.arange(lo, hi), par, below[:, lo:hi],
                self.ubw[lo:hi], self.ulat[lo:hi], self.pd[lo:hi],
                self.base_up[lo:hi], up[lo:hi])
        for lo, hi, par, bw, lat, dl in T.levels:
            down[lo:hi] = self._queue(
                F, D, W, theta, par, np.arange(lo, hi), ~below[:, lo:hi],
                bw, lat, dl, self.base_down[lo:hi], down[lo:hi])
        return (F, D, W, L, src), up, down, np.maximum(last, F.max(0))

    def _queue(self, F, D, W, theta, src, dst, mine, bw, lat, d, base, busy):
        """Re-serve the channels ``src[j] → dst[j]`` (watermarks *busy*,
        *base* before the rows dropped; *mine*: the rows each carries), each
        from its first packet at or after ``theta[src[j]]``, in the order
        they reach it — :func:`~repro.net.link.serialize`'s expression, one
        sorted matrix for all.  A packet delivered at a new instant lowers
        ``theta`` downstream to the earlier of its old and new arrival.
        Returns the channels' watermarks."""
        a = F[:, src]
        late = mine & (a >= theta[src])
        rows = np.flatnonzero(late.any(1))
        if not rows.size:
            return busy
        out = busy
        busy = np.maximum(np.where(mine & ~late, D[:, dst], _NEG_INF).max(0), base)
        late, a = late[rows], a[rows]
        order = np.argsort(np.where(late, a, _INF), axis=0, kind="stable")
        late = np.take_along_axis(late, order, 0)
        # (a packet a channel does not serve arrives at -inf and takes no
        # time: ``max(-inf, busy) + 0.0`` is ``busy``, bit for bit)
        a = np.where(late, np.take_along_axis(a, order, 0), _NEG_INF)
        serve = np.where(late, W[rows][order] / bw, 0.0)
        dep = np.empty_like(a)
        for k in range(int(late.sum(0).max())):
            busy = np.maximum(a[k], busy) + serve[k]
            dep[k] = busy
        r, j = rows[order], np.broadcast_to(np.arange(len(dst)), late.shape)
        moved = late & (dep != D[r, dst[j]])  # (a new row's nan never equals)
        r, t, dep = r[moved], dst[j[moved]], dep[moved]
        f = (dep + np.broadcast_to(lat, dst.shape)[j[moved]]) + np.broadcast_to(
            d, dst.shape)[j[moved]]
        old = F[r, t]
        np.minimum.at(theta, t, f)
        np.minimum.at(theta, t[old == old], old[old == old])
        D[r, t], F[r, t] = dep, f
        return np.where(late.any(0), busy, out)

    def drop_front(self, n: int, up: np.ndarray, down: np.ndarray) -> None:
        """Forget the first *n* pending packets, all appended, after which
        the channels' watermarks were *up* and *down*."""
        while n and not len(self._rows[2]):
            n -= len(self._blocks.pop(0)[2])
        if n:
            self._rows = tuple(x[n:] for x in self.rows())
        self.base_up, self.base_down = up, down

    def drop(self, mask: np.ndarray) -> None:
        """Forget the pending packets in *mask*."""
        rows = self.rows()
        self._base(mask)
        self._rows = tuple(x[~mask] for x in rows)

    def _base(self, mask: np.ndarray) -> None:
        """Keep the deliveries of the rows in *mask* in the base watermarks."""
        if not mask.any():
            return
        T = self.T
        _, D, _, _, src = self.rows()
        D, below = D[mask], T.anc[self.switch_of[src[mask]]]
        self.base_down = np.maximum(self.base_down,
                                    np.where(below, _NEG_INF, D).max(0))
        self.base_up = np.maximum(self.base_up,
                                  np.where(below, D[:, T.pa], _NEG_INF).max(0))


def _arrived(instants: List[float], reached: np.ndarray) -> List[float]:
    """*instants* where *reached*, ``-inf`` where the packet was lost."""
    return [t if r else _NEG_INF for t, r in zip(instants, reached.tolist())]



def without(runs: List[List[int]], holes) -> List[List[int]]:
    """``[first psn, count]`` *runs* without the chunks in *holes*."""
    out = []
    for psn, n in runs:
        for h in sorted(h for h in holes if psn <= h < psn + n):
            if h > psn:
                out.append([psn, h - psn])
            n, psn = n - (h + 1 - psn), h + 1
        if n:
            out.append([psn, n])
    return out
