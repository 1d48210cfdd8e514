"""The distributed Broadcast sequencer (paper §IV-A, Appendix A).

Starting every Broadcast simultaneously would incast the multicast group;
serializing all of them wastes parallel tree capacity.  The paper splits
the ``P`` Allgather participants into ``M`` *broadcast chains* of length
``R = P / M``.  Within a chain, processes multicast one-by-one, activation
propagating along the chain; the ``M`` chains run in parallel.  At step
``i`` the active group is::

    G^i = { P_i, P_{R+i}, P_{2R+i}, ..., P_{(M-1)R+i} }

i.e. chain ``m`` owns ranks ``[m*R, (m+1)*R)`` and its step-``i`` root is
rank ``m*R + i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["BroadcastSequencer", "effective_chains"]


def effective_chains(n_ranks: int, n_chains: int) -> int:
    """The chain count the Allgather scheduler actually runs with.

    The communicator falls back to a single chain when ``M`` does not
    divide ``P`` (rather than rejecting the collective).  Any chain count
    folds: the data fold merges the concurrent roots' packets on every
    tree edge (DESIGN.md §6d).
    """
    return n_chains if n_ranks % n_chains == 0 else 1


@dataclass(frozen=True)
class BroadcastSequencer:
    """Pure schedule arithmetic for the chain scheduler.

    Parameters
    ----------
    n_ranks:
        Total participants ``P``.
    n_chains:
        Parallel chains ``M``; must divide ``P``.
    """

    n_ranks: int
    n_chains: int = 1

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_ranks % self.n_chains != 0:
            raise ValueError(
                f"P={self.n_ranks} must be divisible by M={self.n_chains} (Appendix A)"
            )

    @property
    def chain_length(self) -> int:
        """R = P / M — also the number of schedule steps."""
        return self.n_ranks // self.n_chains

    @property
    def n_steps(self) -> int:
        return self.chain_length

    def chain_of(self, rank: int) -> int:
        """Which chain owns *rank*."""
        self._check(rank)
        return rank // self.chain_length

    def step_of(self, rank: int) -> int:
        """At which step *rank* becomes a Broadcast root."""
        self._check(rank)
        return rank % self.chain_length

    def active_group(self, step: int) -> List[int]:
        """``G^step`` — the set of simultaneously multicasting roots."""
        if not 0 <= step < self.n_steps:
            raise IndexError(f"step {step} out of range ({self.n_steps})")
        r = self.chain_length
        return [m * r + step for m in range(self.n_chains)]

    def predecessor(self, rank: int) -> Optional[int]:
        """The rank whose completion activates *rank* (None for chain heads)."""
        if self.step_of(rank) == 0:
            return None
        return rank - 1

    def successor(self, rank: int) -> Optional[int]:
        """The rank that *rank* activates on completion (None for chain tails)."""
        if self.step_of(rank) == self.chain_length - 1:
            return None
        return rank + 1

    def schedule(self) -> List[List[int]]:
        """The full schedule: one active group per step."""
        return [self.active_group(i) for i in range(self.n_steps)]

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range ({self.n_ranks})")
