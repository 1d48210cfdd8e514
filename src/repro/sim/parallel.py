"""Receiver lanes of the fast-forward's data fold (DESIGN §6d).

The receive chains of a multicast phase are independent (paper §IV-A), so
the data fold keeps one lane per rank of the collective, in ascending rank
order: the switch→host edge's busy chain, the receive worker's cursor and
(UD) the staging-DMA drain.  :func:`worker_step` is the one spelling of a
receive worker handling one CQE; :meth:`ReceiverLanes.phase` steps every
lane through it once per chunk of a phase, and
:meth:`ReceiverLanes._merged` one lane through two phases' packets in the
order they reach its edge.

``numpy`` ``maximum``/add are the same IEEE-754 operations the packet path
evaluates, in the same order per lane, so the committed instants are
bit-identical to it.

``phase`` only reads the lane state: it returns the new state, which the
session hands to ``commit`` once every gate it evaluates afterwards (the
cutoff deadline, stragglers) has passed — gates before commit.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["LaneState", "ReceiverLanes", "worker_step"]

_NEG_INF = float("-inf")

#: what a phase leaves in the lanes, per lane: the switch→host edge's busy
#: watermark, the worker cursor, the last receive finish, the DMA watermark
LaneState = namedtuple("LaneState", "hd_busy cursor last_fin dma_busy")


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
    per-chunk injection rows the session passes each phase; ``hd_*``
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
        #: per switch, when it last handed its hosts' edges a packet
        self.sw_last: Optional[np.ndarray] = None
        #: the lanes and ``sw_last`` before the last committed phase, and
        #: that phase's ``(inj, wires, lens, sender)``, for :meth:`_merged`
        self._prev = None
        self._inputs = None
        #: per-lane serialization / copy times by size, computed once
        self._ser: Dict[int, np.ndarray] = {}
        self._copy: Dict[int, np.ndarray] = {}

    def phase(self, inj: np.ndarray, wires, lens, sender: int):
        """One phase of ``len(wires)`` chunks, chunk ``k`` injected at
        ``inj[k][switch]``.  Returns ``(state, fin_max, prev_fin)`` — the
        new lane state for :meth:`commit`, the latest receive finish, and
        the latest finish of a lane whose edge serves this phase's packets
        among the previous phase's (:meth:`_merged`), which ends that
        phase too — or ``None`` when a lane's edge would serve this phase
        ahead of an older phase's packets.  The sender's lane receives
        nothing and keeps its state."""
        s = sender
        check = ()
        if self.sw_last is not None:
            over = inj[0] <= self.sw_last
            if over.any():  # a host edge handed this phase first, maybe
                check = [j for j in np.flatnonzero(over[self.switch_of]).tolist()
                         if j != s]
        hd, cur, dma = self.hd_busy, self.cursor, self.dma_busy
        for k, w in enumerate(wires):
            ser = self._ser.get(w)
            if ser is None:
                ser = self._ser[w] = w / self.bw
            hd = np.maximum(inj[k][self.switch_of], hd) + ser
            a = hd + self.lat
            copy = None
            if dma is not None:
                copy = self._copy.get(lens[k])
                if copy is None:
                    copy = self._copy[lens[k]] = lens[k] / self.dma_bw
            cur, dma = worker_step(a, cur, self.c1, self.c2, copy, dma)
        fins = cur.copy() if dma is None else dma + self.dma_lat
        hd[s] = self.hd_busy[s]
        cur[s] = self.cursor[s]
        if dma is not None:
            dma[s] = self.dma_busy[s]
        prev_fin = _NEG_INF
        for j in check:
            exact = self._merged(j, inj, wires, lens)
            if exact is None:
                return None
            if exact:
                hd[j], cur[j], fins[j], d = exact
                if dma is not None:
                    dma[j] = d
                prev_fin = max(prev_fin, fins[j])
        self._inputs = (inj, wires, lens, s)
        fins[s] = _NEG_INF
        fin_max = float(fins.max())
        fins[s] = self.last_fin[s]
        return LaneState(hd, cur, fins, dma), fin_max, prev_fin

    def _merged(self, j: int, inj, wires, lens):
        """Lane *j*, whose switch handed the previous phase's last packet
        no earlier than this phase's first.  ``()`` when the previous phase
        did not use *j*'s edge (its sender's) and this one does not
        overtake the one before; else the lane through both phases with its
        edge serving their packets in the order they reach it, from the
        state before the previous phase — the same float expressions as
        :meth:`phase` — as ``(hd, cursor, finish, dma)``.  ``None`` when
        this phase also overtakes an older one's packets, or two reach the
        edge at one instant."""
        pre, pre_sw, p_inj, p_wires, p_lens, p_s = self._prev
        col = self.switch_of[j]
        if pre_sw is not None and inj[0][col] <= pre_sw[col]:
            return None
        if j == p_s:
            return ()
        packets = sorted([(p_inj[k][col], w, ln) for k, (w, ln)
                          in enumerate(zip(p_wires, p_lens))]
                         + [(inj[k][col], w, ln) for k, (w, ln)
                            in enumerate(zip(wires, lens))])
        if any(x[0] == y[0] for x, y in zip(packets, packets[1:])):
            return None
        hd, cur = pre.hd_busy[j], pre.cursor[j]
        dma = None if pre.dma_busy is None else pre.dma_busy[j]
        for at, w, ln in packets:
            hd = np.maximum(at, hd) + w / self.bw[j]
            copy = None if dma is None else ln / self.dma_bw[j]
            cur, dma = worker_step(hd + self.lat[j], cur, self.c1, self.c2,
                                   copy, dma)
        return hd, cur, cur if dma is None else dma + self.dma_lat[j], dma

    def commit(self, state: LaneState) -> None:
        inj, wires = self._inputs[:2]
        self._prev = (LaneState(self.hd_busy, self.cursor, self.last_fin,
                                self.dma_busy), self.sw_last, *self._inputs)
        self.sw_last = inj[len(wires) - 1]
        self.hd_busy, self.cursor, self.last_fin, self.dma_busy = state
