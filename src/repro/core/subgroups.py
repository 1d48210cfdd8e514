"""Multicast subgroup partitioning — packet parallelism (paper §IV-C).

The Allgather receive path must absorb ``(P-1)×`` more bytes than the send
path injects.  To scale it, the traffic is spread over several *multicast
subgroups* (replicated multicast groups), each carrying a contiguous block
of every sender's buffer.  Each subgroup has one receive worker polling
its CQ, keeping bitmap updates thread-local (paper's example: 1 send
worker serving 4 send QPs, 4 receive workers mapped one-to-one).

:class:`SubgroupPlan` is the pure arithmetic: which chunk of a sender's
buffer travels on which subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.chunking import ChunkPlan

__all__ = ["SubgroupPlan"]


@dataclass(frozen=True)
class SubgroupPlan:
    """Partition of a per-sender buffer across multicast subgroups.

    The buffer's chunks are divided into ``n_subgroups`` contiguous blocks;
    block *j* travels on subgroup *j*.  Contiguity is what keeps receive
    bitmaps thread-local (§IV-C).
    """

    n_chunks: int
    n_subgroups: int = 1

    def __post_init__(self) -> None:
        if self.n_subgroups < 1:
            raise ValueError("n_subgroups must be >= 1")
        if self.n_chunks < 0:
            raise ValueError("n_chunks must be non-negative")

    @property
    def chunks_per_subgroup(self) -> int:
        """Block size in chunks (last block may be short)."""
        return -(-self.n_chunks // self.n_subgroups) if self.n_chunks else 0

    def subgroup_of(self, psn: int) -> int:
        """Which subgroup carries chunk *psn* of a sender's buffer."""
        if not 0 <= psn < self.n_chunks:
            raise IndexError(f"psn {psn} out of range ({self.n_chunks})")
        return min(psn // max(self.chunks_per_subgroup, 1), self.n_subgroups - 1)

    def chunk_range(self, subgroup: int) -> Tuple[int, int]:
        """Half-open chunk index range ``[lo, hi)`` carried by *subgroup*."""
        if not 0 <= subgroup < self.n_subgroups:
            raise IndexError(f"subgroup {subgroup} out of range ({self.n_subgroups})")
        step = self.chunks_per_subgroup
        lo = min(subgroup * step, self.n_chunks)
        hi = min(lo + step, self.n_chunks)
        return lo, hi

    def chunks_in(self, subgroup: int) -> int:
        lo, hi = self.chunk_range(subgroup)
        return hi - lo

    def split(self, plan: ChunkPlan) -> List[Tuple[int, int, int]]:
        """Byte ranges per subgroup: ``(subgroup, offset, length)``."""
        out = []
        for sg in range(self.n_subgroups):
            lo, hi = self.chunk_range(sg)
            if hi <= lo:
                out.append((sg, 0, 0))
                continue
            off = lo * plan.chunk_size
            end_off, end_len = plan.bounds(hi - 1)
            out.append((sg, off, end_off + end_len - off))
        return out
