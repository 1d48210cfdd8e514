"""Receiver-lane kernels of the fast-forward's data fold.

The hybrid fast-forward (DESIGN §6d) reduces a fault-inert multicast
phase to float chains: per-edge busy recurrences plus per-receiver
CQE/DMA chains.  The receiver chains are independent (paper §IV-A), so
each is one lane of an elementwise recurrence: :func:`worker_step` is the
one spelling of a receive worker handling one CQE, shared by the generic
fold (``FlowFastForward._fold_receivers_vec``, ``[n_rx]`` lanes stepped
chunk by chunk) and by :class:`ReceiverLanes`, the ``[P]``-lane state of
the single-chunk Allgather session (``_Vec1Session``), which adds the
leaf→host edge and hands the kernel each phase's per-switch injection
instants.

``numpy`` ``maximum``/add are the same IEEE-754 operations the packet
path evaluates, in the same order per lane, so the committed instants are
bit-identical to it (DESIGN §6d exactness contract).

Protocol
--------
``phase`` implicitly *commits* the previous tentative phase and computes
the new one into pending buffers.  If a gate the session evaluates after
the kernel returns (the cutoff-deadline bound) vetoes the phase,
``rollback`` drops the pending buffers — no state was mutated, exactly
like the generic fold's gates-before-commit ordering.  ``final_state``
commits and returns the arrays for the session's flush.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ReceiverLanes", "worker_step"]

_NEG_INF = float("-inf")


def worker_step(a, cursor, c1: float, c2: float, ln: float, dma_bw,
                dma_busy):
    """One CQE per lane through the receive worker: the cursor
    ``max(arrival, cursor) + (poll+process) + repost`` and, for UD
    (``dma_bw`` not ``None``), the staging-DMA drain the worker issues.
    Returns ``(cursor, dma_busy)``; UC passes ``dma_busy`` through."""
    t = np.maximum(a, cursor) + c1 + c2
    if dma_bw is not None:
        dma_busy = np.maximum(t, dma_busy) + ln / dma_bw
    return t, dma_busy


class ReceiverLanes:
    """Host-level chain state, one lane per rank of the collective.

    ``switch_of`` maps each lane to the index of its hosting switch in
    the injection array the session passes each phase; ``hd_*`` describe
    the switch→host channel, ``dma_*`` the staging drain (UD only: pass
    ``dma=None`` for UC, whose fin is the worker cursor itself).
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
        self.uc = dma is None
        self.dma_bw, self.dma_lat, self.dma_busy = dma or (None, None, None)
        self._pending: Optional[Tuple[np.ndarray, ...]] = None

    def commit(self) -> None:
        p = self._pending
        if p is not None:
            if self.uc:
                (self.hd_busy, self.cursor, self.last_arr,
                 self.last_fin) = p
            else:
                (self.hd_busy, self.cursor, self.last_arr,
                 self.last_fin, self.dma_busy) = p
            self._pending = None

    def rollback(self) -> None:
        self._pending = None

    def phase(self, w: float, ln: float, switch_inj: np.ndarray,
              sender: int) -> Tuple[bool, float, Optional[np.ndarray]]:
        """Compute one phase into pending buffers (committing the previous
        pending phase first).  Returns ``(ok, fin_max, fins)``: the
        strict non-interleave verdict, the latest receive finish, and the
        per-lane finishes (the sender's lane keeps its previous one).
        """
        self.commit()
        s = sender
        # The sender receives nothing: compute the full vectors, then
        # restore its lanes from the old state below.
        inj = switch_inj[self.switch_of]
        start = np.maximum(inj, self.hd_busy)
        hd_busy = start + w / self.bw
        a = hd_busy + self.lat
        ok_arr = a > self.last_arr
        ok_arr[s] = True
        if not ok_arr.all():
            return False, _NEG_INF, None
        t, dma_busy = worker_step(a, self.cursor, self.c1, self.c2, ln,
                                  self.dma_bw, self.dma_busy)
        if self.uc:
            fins = t.copy()
        else:
            fins = dma_busy + self.dma_lat
            dma_busy[s] = self.dma_busy[s]
        hd_busy[s] = self.hd_busy[s]
        t[s] = self.cursor[s]
        a[s] = self.last_arr[s]
        fins[s] = _NEG_INF
        fin_max = float(fins.max())
        fins[s] = self.last_fin[s]
        if self.uc:
            self._pending = (hd_busy, t, a, fins)
        else:
            self._pending = (hd_busy, t, a, fins, dma_busy)
        return True, fin_max, fins

    def final_state(self) -> Dict[str, np.ndarray]:
        self.commit()
        out = {"hd_busy": self.hd_busy, "cursor": self.cursor,
               "last_arr": self.last_arr, "last_fin": self.last_fin}
        if not self.uc:
            out["dma_busy"] = self.dma_busy
        return out
