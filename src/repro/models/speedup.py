"""Appendix B: concurrent {Allgather, Reduce-Scatter} speedup, plus
alpha-beta time models used to sanity-check the packet-level simulator.

With both collectives in flight on full-duplex NICs of per-direction
bandwidth ``B``:

* ``{AG_ring, RS_ring}`` — each direction is split evenly between the two
  collectives (Eq. 1): every collective runs at ``B/2`` and moves
  ``N·(P−1)`` bytes → ``T = 2·N·(P−1)/B``.
* ``{AG_mc, RS_inc}`` — the pair's bandwidth demands are complementary
  (Eq. 2): the bottleneck direction runs at ``(1 − 1/P)·B`` →
  ``T = N·(P−1) / ((1−1/P)·B)``.

The ratio is ``S = 2 − 2/P`` (Eq. 3): up to 2× at scale.
"""

from __future__ import annotations

import math

from repro.models.schedule import chain_schedule, chain_steps

__all__ = [
    "concurrent_speedup",
    "bandwidth_shares_ring",
    "bandwidth_shares_optimal",
    "time_ring_allgather",
    "time_mcast_allgather",
    "time_mcast_bcast",
    "time_knomial_bcast",
    "time_pipelined_tree_bcast",
    "time_inc_reduce_scatter",
    "time_composed_allreduce",
    "time_p2p_alltoall",
]


def concurrent_speedup(p: int) -> float:
    """Eq. 3: S = 2 − 2/P."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return 2.0 - 2.0 / p


def bandwidth_shares_ring(b_nic: float) -> dict:
    """Eq. 1: ring pair — each path evenly split between AG and RS."""
    half = b_nic / 2.0
    return {"ag_send": half, "ag_recv": half, "rs_send": half, "rs_recv": half}


def bandwidth_shares_optimal(b_nic: float, p: int) -> dict:
    """Eq. 2: {AG_mc, RS_inc} — complementary demands on each direction."""
    if p < 1:
        raise ValueError("p must be >= 1")
    small = b_nic / p
    big = b_nic * (1.0 - 1.0 / p)
    return {"ag_send": small, "ag_recv": big, "rs_send": big, "rs_recv": small}


# ------------------------------------------------------- alpha-beta models


def time_ring_allgather(n: int, p: int, bandwidth: float, latency: float = 0.0,
                        overhead: float = 0.0) -> float:
    """(P−1) lock-stepped steps of N bytes each."""
    if p < 2:
        return 0.0
    return (p - 1) * (n / bandwidth + latency + overhead)


def time_mcast_allgather(n: int, p: int, bandwidth: float, latency: float = 0.0,
                         sync_overhead: float = 0.0, n_chains: int = 1) -> float:
    """Chain-sequenced multicast roots: the schedule's wire term (P·N
    received), plus the RNR barrier and one *latency* per chain step."""
    if p < 2:
        return 0.0
    return (sync_overhead + chain_schedule(p * n, bandwidth).wire
            + chain_steps(p, n_chains) * latency)


def time_mcast_bcast(n: int, p: int, bandwidth: float, latency: float = 0.0,
                     sync_overhead: float = 0.0) -> float:
    """Constant-time Broadcast: the schedule's wire term + tree depth."""
    return sync_overhead + chain_schedule(n, bandwidth).wire + latency


def time_inc_reduce_scatter(n: int, p: int, bandwidth: float,
                            latency: float = 0.0) -> float:
    """INC reduce-scatter: every rank serializes its full N-byte
    contribution into the reduction tree exactly once; the switches
    reduce in-network, so the host uplink is the bottleneck direction
    (Eq. 2's ``rs_send = (1 − 1/P)·B`` demand, normalized to a solo run).
    """
    if p < 2:
        return 0.0
    return n / bandwidth + latency


def time_composed_allreduce(n: int, p: int, bandwidth: float,
                            latency: float = 0.0, sync_overhead: float = 0.0,
                            n_chains: int = 1) -> float:
    """Allreduce composed as INC reduce-scatter chained into multicast
    allgather over the reduced N/P shards (one submission, two phases).

    The shard allgather's receive path absorbs ``P · (N/P) = N`` bytes,
    so the composed total is ``2·N/B`` plus the latency terms — exactly
    the bytes the concurrent Appendix B pair moves, serialized.  The
    concurrent pair's advantage over it is the Eq. 3 bound
    ``S = 2 − 2/P`` with respect to the ring pair, not this chain.
    """
    if p < 2:
        return 0.0
    shard = n / p
    return (time_inc_reduce_scatter(n, p, bandwidth, latency)
            + time_mcast_allgather(shard, p, bandwidth, latency,
                                   sync_overhead, n_chains))


def time_p2p_alltoall(n: int, p: int, bandwidth: float,
                      latency: float = 0.0) -> float:
    """Rotation-scheduled unicast all-to-all: ``(P−1)`` permutation steps,
    each moving one ``N/P`` block per rank with no fan-in contention."""
    if p < 2:
        return 0.0
    return (p - 1) * (n / p / bandwidth + latency)


def time_knomial_bcast(n: int, p: int, radix: int, bandwidth: float,
                       latency: float = 0.0) -> float:
    """Non-pipelined k-nomial: each level forwards the whole buffer to up
    to (radix−1) children sequentially."""
    if p < 2:
        return 0.0
    levels = math.ceil(math.log(p, radix))
    return levels * ((radix - 1) * n / bandwidth + latency)


def time_pipelined_tree_bcast(n: int, p: int, bandwidth: float, segment: int,
                              latency: float = 0.0) -> float:
    """Pipelined binary tree: interior nodes send every segment twice."""
    if p < 2:
        return 0.0
    depth = math.ceil(math.log2(p + 1))
    fill = depth * (segment / bandwidth + latency)
    return fill + 2.0 * n / bandwidth
