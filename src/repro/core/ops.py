"""Per-rank state of one in-flight collective operation.

An :class:`OpState` is what the progress engine's workers update on every
completion: the reliability bitmap, outstanding staging-copy count, phase
timestamps and statistics.  The same structure backs both Broadcast and
Allgather — an Allgather is simply an op whose "send range" is the rank's
own shard of the global receive buffer and whose bitmap spans all shards
(paper §IV: Allgather as a composition of Broadcasts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.chunking import ChunkPlan
from repro.core.subgroups import SubgroupPlan
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.memory import MemoryRegion
    from repro.sim.engine import Simulator

__all__ = ["OpState", "RKEY_BASE"]

#: Base of the symmetric rkey space: op buffers are registered with key
#: ``RKEY_BASE + coll_id`` on every participant, so the fetch layer can
#: RDMA-read a neighbor's buffer at the same (key, offset) it uses locally.
RKEY_BASE = 1 << 20


@dataclass
class OpState:
    """One collective operation as seen by one rank."""

    sim: "Simulator"
    coll_id: int
    kind: str  # 'broadcast' | 'allgather'
    rank: int
    comm_size: int
    mr: "MemoryRegion"  #: the op buffer (send buffer on a bcast root,
    #: receive buffer otherwise), symmetric rkey
    plan: ChunkPlan  #: global chunk plan over the op buffer
    subgroups: SubgroupPlan  #: partition of a *per-sender* block
    send_lo: int = 0  #: first PSN this rank multicasts
    send_hi: int = 0  #: one past the last PSN this rank multicasts
    root: Optional[int] = None  #: broadcast root rank (None for allgather)
    expected: float = 0.0  #: the cutoff's expected term (models.schedule)

    bitmap: Bitmap = field(init=False)
    #: chunks whose bytes have actually landed in the op buffer (a chunk is
    #: *tracked* in ``bitmap`` at CQE time but only *placed* once its
    #: staging→user DMA drained; the fetch layer may only read placed
    #: chunks from a neighbor)
    placed: Bitmap = field(init=False)
    outstanding_copies: int = field(init=False, default=0)
    data_done: Event = field(init=False)
    op_done: Event = field(init=False)
    phases: Dict[str, float] = field(init=False)
    stats: Dict[str, int] = field(init=False)
    #: fetch rounds spent per recovery invocation (index = invocation)
    retry_histogram: List[int] = field(init=False)
    #: cutoff/recovery timer decisions: (virtual time, timeout armed, why)
    timer_trace: List[Tuple[float, float, str]] = field(init=False)
    #: absolute instant the controller's cutoff timer will next fire
    #: (+inf until armed).  A receive worker publishes no step end past
    #: it (``RankEngine._plan_step``), nor does the data fold fold a phase
    #: past it: a recovery may set bits from then on.
    cutoff_deadline: float = field(init=False, default=float("inf"))
    #: per-chunk validity (True = real payload landed).  ``None`` until the
    #: first :meth:`mark_void` — the healthy path never allocates it.
    valid_mask: Optional[np.ndarray] = field(init=False, default=None)
    #: ranks this op completed *without* (degraded-mode membership record)
    dead_ranks: Set[int] = field(init=False)
    #: set by :meth:`abandon`: the op was torn down (its rank died or the
    #: collective aborted) and its phase record is not meaningful
    aborted: bool = field(init=False, default=False)
    #: completion holds taken by the flow-level fast-forward layer: a fold
    #: commits its bitmap bits eagerly but the phase only *ends* at the
    #: fold's finisher event, so ``data_done`` must not fire in between
    ff_hold: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        n = self.plan.n_chunks
        if not 0 <= self.send_lo <= self.send_hi <= n:
            raise ValueError("invalid send range")
        self.bitmap = Bitmap(n)
        self.placed = Bitmap(n)
        self.data_done = Event(self.sim)
        self.op_done = Event(self.sim)
        self.phases = {}
        self.stats = {
            "duplicates": 0,
            "recovered_chunks": 0,
            "recoveries": 0,
            "chunks_received": 0,
            "fetch_rounds": 0,
            "fetch_ack_timeouts": 0,
            "neighbor_escalations": 0,
        }
        self.retry_histogram = []
        self.timer_trace = []
        self.dead_ranks = set()
        # This rank's own chunks are present by construction.
        self.bitmap.set_range(self.send_lo, self.send_hi - self.send_lo)
        self.placed.set_range(self.send_lo, self.send_hi - self.send_lo)
        self.maybe_complete()

    # ------------------------------------------------------------ accessors

    @property
    def n_chunks(self) -> int:
        return self.plan.n_chunks

    @property
    def own_chunks(self) -> int:
        return self.send_hi - self.send_lo

    @property
    def is_sender(self) -> bool:
        return self.send_hi > self.send_lo

    @property
    def complete(self) -> bool:
        return self.data_done.triggered

    # -------------------------------------------------------------- updates

    def mark_phase(self, name: str) -> None:
        self.phases[name] = self.sim.now

    def record_timer(self, timeout: float, reason: str) -> None:
        """Log one cutoff/recovery timer decision for post-mortem telemetry."""
        self.timer_trace.append((self.sim.now, timeout, reason))

    @property
    def missing_chunks(self) -> int:
        return self.n_chunks - self.bitmap.count

    def maybe_complete(self, at_once: bool = False) -> None:
        """Trigger ``data_done`` once every chunk is present *and* every
        staging copy has drained (*at_once*: :meth:`Event.succeed_now`)."""
        self.sim.progress += 1
        if self.ff_hold:
            return
        if (
            not self.data_done.triggered
            and self.bitmap.count == self.n_chunks
            and self.outstanding_copies == 0
        ):
            (self.data_done.succeed_now if at_once else self.data_done.succeed)()

    # ----------------------------------------------------------- fail-stop

    def mark_void(self, start: int, count: int) -> None:
        """Record chunks ``[start, start+count)`` as permanently missing.

        Used by degraded-mode completion when the chunks' only source fail-
        stopped: the *tracked* bitmap is filled (so ``data_done`` can fire)
        but ``placed`` is **not** — peers must never fetch the garbage —
        and ``valid_mask`` records the hole for the caller.
        """
        if count <= 0:
            return
        if self.valid_mask is None:
            self.valid_mask = np.ones(self.n_chunks, dtype=bool)
        self.valid_mask[start:start + count] = False
        self.bitmap.set_range(start, count)

    def abandon(self) -> None:
        """Tear the op down without completing it (its rank died, or the
        failure policy aborted the collective).  Completion events are
        force-succeeded so communicator-level drains terminate."""
        self.aborted = True
        if not self.data_done.triggered:
            self.data_done.succeed()
        if not self.op_done.triggered:
            self.op_done.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OpState {self.kind} cid={self.coll_id} rank={self.rank} "
            f"{self.bitmap.count}/{self.n_chunks}>"
        )
