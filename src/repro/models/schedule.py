"""How long a multicast collective should take: one chain schedule.

The paper arms its cutoff timer at ``N/B + α`` per broadcast (§III-C), and
an Allgather is P broadcasts chained M at a time (Appendix A): each chain's
first root multicasts once the RNR barrier is left (the *arm*), and each
root that finishes activates the next.  :func:`chain_schedule` writes that
time down once, as terms from the arm:

* ``wire`` — the receive path's bytes over the link;
* ``software`` — the same bytes over the receive workers (one per subgroup);
* ``sequencing`` — each activation after the arm, on the slowest chain: a
  control message down its route, then the activated root's first send
  batch and its packets' header bytes;
* ``fill`` — the same for the roots the arm starts, plus their last
  datagram's store-and-forward down the deepest route (the paper's α).

The cutoff timer, and through it the fold's deadline gate, arms with
:attr:`Schedule.expected`; the tuner's ``predict_time`` adds recovery and
staging risk to :attr:`Schedule.total`; ``speedup.time_mcast_*`` are the
wire-only case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.costmodel import HostCostModel

__all__ = ["Schedule", "chain_hops", "chain_schedule", "chain_steps"]


def chain_steps(n_roots: int, n_chains: int = 1) -> int:
    """Roots per chain: ``ceil(P / M)``."""
    return -(-n_roots // max(n_chains, 1))


def chain_hops(topology, hosts: Sequence[int], n_chains: int = 1) -> List[List[int]]:
    """Per chain, the hop count of each activation's route: chain *m* is
    positions ``[m·R, (m+1)·R)`` of *hosts* (``R`` = :func:`chain_steps`),
    each activating the next.  One ``Topology.hops`` per activation."""
    steps = chain_steps(len(hosts), n_chains)
    return [[topology.hops(a, b) for a, b in zip(chain, chain[1:])]
            for chain in (hosts[i:i + steps] for i in range(0, len(hosts), steps))]


@dataclass(frozen=True)
class Schedule:
    """A multicast collective's expected time from the arm, by term."""

    wire: float
    software: float
    sequencing: float
    fill: float

    @property
    def expected(self) -> float:
        """What the cutoff timer arms with before its slack; a broadcast's,
        or a chain of one root's, is the paper's ``N/B``."""
        return max(self.wire, self.software) + self.sequencing

    @property
    def total(self) -> float:
        """A clean run's whole data phase."""
        return self.expected + self.fill


def chain_schedule(nbytes: float, bandwidth: float, cost: Optional["HostCostModel"] = None,
                   *, chunk: int = 1, uc: bool = False, n_subgroups: int = 1,
                   root_bytes: float = 0, batch_size: int = 1,
                   hops: Sequence[Sequence[int]] = (), depth: int = 0,
                   mtu: Optional[int] = None, header_bytes: int = 0, ctrl_bytes: int = 0,
                   link_latency: float = 0.0, switch_delay: float = 0.0) -> Schedule:
    """The schedule of a collective whose receive path takes *nbytes*.

    Each root multicasts *root_bytes* in *chunk*-byte chunks of
    ``ceil(chunk / mtu)`` packets; *hops* are the activation routes per
    chain (:func:`chain_hops`, empty for a broadcast), *depth* the deepest
    route from a root to a receiver.  ``cost=None`` is a free host.
    """
    wire = nbytes / bandwidth
    software = root_start = ctrl = 0.0
    if cost is not None:
        if (cost.per_recv_chunk_uc if uc else cost.per_recv_chunk) > 0:
            software = nbytes / (cost.recv_rate(chunk, uc) * n_subgroups)
        if root_bytes:
            root_start = cost.send_batch(min(batch_size, math.ceil(root_bytes / chunk)))
        ctrl = cost.ctrl_message
    datagram = min(chunk, mtu or chunk)
    if root_bytes:
        packets = math.ceil(root_bytes / chunk) * math.ceil(chunk / datagram)
        root_start += packets * header_bytes / bandwidth
    hop = ctrl_bytes / bandwidth + link_latency
    sequencing = max((sum(ctrl + h * hop + (h - 1) * switch_delay + root_start
                          for h in chain) for chain in hops), default=0.0)
    fill = root_start + depth * (datagram + header_bytes) / bandwidth
    return Schedule(wire, software, sequencing, fill)
