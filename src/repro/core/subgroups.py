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
from functools import cached_property
from typing import FrozenSet, Tuple

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

    def chunk_range(self, subgroup: int) -> Tuple[int, int]:
        """Half-open chunk index range ``[lo, hi)`` carried by *subgroup*."""
        if not 0 <= subgroup < self.n_subgroups:
            raise IndexError(f"subgroup {subgroup} out of range ({self.n_subgroups})")
        step = -(-self.n_chunks // self.n_subgroups)  # the last block may be short
        lo = min(subgroup * step, self.n_chunks)
        hi = min(lo + step, self.n_chunks)
        return lo, hi

    @cached_property
    def tails(self) -> FrozenSet[int]:
        """The last chunk of every non-empty subgroup's block: where a
        sender's datagrams on that subgroup end."""
        ranges = map(self.chunk_range, range(self.n_subgroups))
        return frozenset(hi - 1 for lo, hi in ranges if hi > lo)

    def is_tail(self, psn: int) -> bool:
        """Whether chunk *psn* of a buffer of sender blocks of this plan's
        size is the last of its block's subgroup: a *tail*."""
        return psn % self.n_chunks in self.tails
