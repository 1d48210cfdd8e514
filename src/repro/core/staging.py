"""Receive-side staging ring buffer (paper §III-B).

Out-of-order delivery means the user's receive buffer cannot be posted to
the network directly: chunk *i+1* would land in slot *i* after a drop or
reorder, corrupting the buffer.  Instead, every datagram is received into
a slot of a staging ring; the PSN in the completion's immediate data then
tells the datapath *where* in the user buffer the chunk belongs, and a
non-blocking DMA copy moves it there while further receives proceed.

The ring is a size-registered, lazy memory region (DESIGN.md §6h): a
landing places the packet's payload reference into its slot and the DMA
copy moves that reference on, so the ring holds at most one piece per
slot (plus the tail of an older datagram a shorter one left in place) and
never materialises bytes.

Slot lifecycle::

    FREE --post_recv--> POSTED --CQE--> HELD --copy done, repost--> POSTED
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Deque, List

from repro.net.nic import QueuePair, RecvWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.nic import Nic

__all__ = ["StagingRing"]

_FREE, _POSTED, _HELD = 0, 1, 2


class StagingRing:
    """A ring of receive slots backed by one registered memory region.

    The work-request id of each posted receive is the slot index, so a CQE
    maps back to its slot in O(1).  All receive WRs are cached and re-posted
    verbatim — the "fast re-posting" optimization of paper §V-A.
    """

    def __init__(self, nic: "Nic", n_slots: int, slot_size: int) -> None:
        if n_slots < 1 or slot_size < 1:
            raise ValueError("n_slots and slot_size must be >= 1")
        self.nic = nic
        self.n_slots = n_slots
        self.slot_size = slot_size
        self.mr = nic.memory.register(n_slots * slot_size)
        self._state = [_FREE] * n_slots
        self._free: Deque[int] = collections.deque(range(n_slots))
        #: cached receive work requests, one per slot (paper §V-A)
        self._wrs: List[RecvWR] = [
            RecvWR(wr_id=s, mr_key=self.mr.key, offset=s * slot_size, length=slot_size)
            for s in range(n_slots)
        ]
        self.reposts = 0
        # Incremental occupancy counters: O(1) reads so per-CQE telemetry
        # (the staging.hold trace counter) never scans the slot array.
        self._posted_count = 0
        self._held_count = 0

    @property
    def nbytes(self) -> int:
        """Staging memory footprint (paper §III-D: 4 MiB sustains 200 Gbit/s)."""
        return self.n_slots * self.slot_size

    @property
    def posted(self) -> int:
        return self._posted_count

    @property
    def held(self) -> int:
        return self._held_count

    # ------------------------------------------------------------ lifecycle

    def prime(self, qp: QueuePair) -> int:
        """Post every free slot to *qp*'s receive queue; returns how many."""
        wrs = []
        while self._free:
            slot = self._free.popleft()
            wrs.append(self._wrs[slot])
            self._state[slot] = _POSTED
        if wrs:
            # The slots tile the MR: validate the ring as one span, once.
            qp.memory.lookup(self.mr.key).check(0, self.nbytes)
            qp.post_recv_cached_batch(wrs)
            self._posted_count += len(wrs)
        return len(wrs)

    def on_cqe(self, slot: int) -> None:
        """Mark *slot* as held by the datapath (its bytes are at
        ``slot * slot_size`` of :attr:`mr`)."""
        self._check(slot)
        if self._state[slot] != _POSTED:
            raise RuntimeError(f"slot {slot} completed but was not posted")
        self._state[slot] = _HELD
        self._posted_count -= 1
        self._held_count += 1

    def repost(self, slot: int, qp: QueuePair) -> None:
        """Return a held slot to the receive queue (after its DMA drained)."""
        self._check(slot)
        if self._state[slot] != _HELD:
            raise RuntimeError(f"slot {slot} reposted but was not held")
        self._state[slot] = _POSTED
        qp.post_recv_cached(self._wrs[slot])
        self._held_count -= 1
        self._posted_count += 1
        self.reposts += 1

    def _check(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range ({self.n_slots})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StagingRing slots={self.n_slots}x{self.slot_size}B posted={self.posted}>"
