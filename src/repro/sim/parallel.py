"""Receiver lanes of the fast-forward's data fold (DESIGN §6d).

The receive chains of a multicast phase are independent (paper §IV-A), so
the data fold keeps one lane per rank of the collective, in ascending rank
order: the switch→host edge's busy chain, the receive worker's cursor and
(UD) the staging-DMA drain.  :func:`worker_step` is the one spelling of a
receive worker handling one CQE; :meth:`ReceiverLanes.phase` steps every
lane through it once per chunk of a phase.

``numpy`` ``maximum``/add are the same IEEE-754 operations the packet path
evaluates, in the same order per lane, so the committed instants are
bit-identical to it.

``phase`` only reads the lane state: it returns the new state, which the
session hands to ``commit`` once every gate it evaluates afterwards (the
cutoff deadline, stragglers) has passed — gates before commit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ReceiverLanes", "worker_step"]

_NEG_INF = float("-inf")


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
                 dma: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
                 ) -> None:
        n = len(hd_busy)
        self.switch_of = switch_of
        self.c1 = c1
        self.c2 = c2
        self.bw = hd_bw
        self.lat = hd_lat
        self.hd_busy = hd_busy
        self.cursor = np.zeros(n)
        self.last_arr = np.full(n, _NEG_INF)
        self.last_fin = np.full(n, _NEG_INF)
        self.dma_bw, self.dma_lat, self.dma_busy = dma or (None, None, None)
        #: per-lane serialization / copy times by size, computed once
        self._ser: Dict[int, np.ndarray] = {}
        self._copy: Dict[int, np.ndarray] = {}

    def phase(self, inj: np.ndarray, wires, lens, sender: int):
        """One phase of ``len(wires)`` chunks, chunk ``k`` injected at
        ``inj[k][switch]``.  Returns ``(state, fin_max)`` — the new lane
        state for :meth:`commit` and the latest receive finish — or
        ``None`` when a receiver's first arrival does not strictly follow
        its previous one (interleaving the fold cannot order).  The
        sender's lane receives nothing and keeps its state."""
        s = sender
        hd, cur, dma = self.hd_busy, self.cursor, self.dma_busy
        for k, w in enumerate(wires):
            ser = self._ser.get(w)
            if ser is None:
                ser = self._ser[w] = w / self.bw
            hd = np.maximum(inj[k][self.switch_of], hd) + ser
            a = hd + self.lat
            if k == 0:
                ok = a > self.last_arr
                ok[s] = True
                if not ok.all():
                    return None
            copy = None
            if dma is not None:
                copy = self._copy.get(lens[k])
                if copy is None:
                    copy = self._copy[lens[k]] = lens[k] / self.dma_bw
            cur, dma = worker_step(a, cur, self.c1, self.c2, copy, dma)
        fins = cur.copy() if dma is None else dma + self.dma_lat
        hd[s] = self.hd_busy[s]
        cur[s] = self.cursor[s]
        a[s] = self.last_arr[s]
        if dma is not None:
            dma[s] = self.dma_busy[s]
        fins[s] = _NEG_INF
        fin_max = float(fins.max())
        fins[s] = self.last_fin[s]
        return (hd, cur, a, fins, dma), fin_max

    def commit(self, state) -> None:
        (self.hd_busy, self.cursor, self.last_arr, self.last_fin,
         self.dma_busy) = state
