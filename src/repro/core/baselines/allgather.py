"""P2P Allgather baselines: ring, linear, recursive doubling.

All three share the structure: every rank registers a ``P·N`` receive
region under a symmetric rkey, places its own shard from one snapshot of
the contributions, then moves shards with RDMA writes + immediate
notifications — by reference, as the multicast path does (DESIGN.md
§6h).  They differ only in the communication schedule — which is
precisely the paper's point: **no P2P schedule can avoid sending each
shard P−1 times** (Insight 1); they can only trade step count against
per-step message size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.baselines.base import P2PNet, run_baseline
from repro.core.communicator import CollectiveResult
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.memory import PayloadBuffers

__all__ = ["ring_allgather", "linear_allgather", "recursive_doubling_allgather"]


def _prepare(net: P2PNet, send_data: Sequence[np.ndarray]):
    payloads = [np.ascontiguousarray(d).reshape(-1).view(np.uint8) for d in send_data]
    n = payloads[0].nbytes
    if any(p.nbytes != n for p in payloads):
        raise ValueError("all send buffers must have the same size")
    image = np.concatenate(payloads)  # one snapshot per collective
    regions = []
    for r in range(net.size):
        mr = net.register(r, n * net.size)
        mr.place(r * n, image, r * n, n)
        regions.append(mr)
    return n, PayloadBuffers(regions)


def ring_allgather(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    defer: bool = False,
):
    """The NCCL/UCC ring: P−1 lock-stepped neighbor exchanges.

    Step *s*: rank *r* writes shard ``(r−s) mod P`` to its right neighbor
    and waits for shard ``(r−s−1) mod P`` from its left neighbor.
    """
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    n, buffers = _prepare(net, send_data)

    def rank_proc(r: int):
        right = (r + 1) % p
        net.qp(r, right)  # pre-connect
        for step in range(p - 1):
            blk = (r - step) % p
            yield from net.write(r, right, blk * n, n, imm=step)
            yield from net.wait_notifications(r, 1)
        yield from net.drain_send_cq(r, right, p - 1)
        return net.sim.now

    return run_baseline(net, "ring_allgather", "allgather", n,
                        buffers, [rank_proc(r) for r in range(p)], defer=defer)


def linear_allgather(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
) -> CollectiveResult:
    """The naive schedule: every rank writes its shard to all P−1 peers."""
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    n, buffers = _prepare(net, send_data)

    def rank_proc(r: int):
        for i in range(1, p):
            dst = (r + i) % p
            yield from net.write(r, dst, r * n, n, imm=r)
        yield from net.wait_notifications(r, p - 1)
        for i in range(1, p):
            yield from net.drain_send_cq(r, (r + i) % p, 1)
        return net.sim.now

    return run_baseline(net, "linear_allgather", "allgather", n,
                        buffers, [rank_proc(r) for r in range(p)])


def recursive_doubling_allgather(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
) -> CollectiveResult:
    """log2(P) pairwise exchanges of doubling extents (P must be 2^k)."""
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    if p & (p - 1):
        raise ValueError(f"recursive doubling requires a power-of-two size, got {p}")
    n, buffers = _prepare(net, send_data)

    def rank_proc(r: int):
        k = 1
        step = 0
        while k < p:
            partner = r ^ k
            own_lo = (r // k) * k  # owned extent before this step
            yield from net.write(r, partner, own_lo * n, k * n, imm=step)
            yield from net.wait_notifications(r, 1)
            yield from net.drain_send_cq(r, partner, 1)
            k <<= 1
            step += 1
        return net.sim.now

    return run_baseline(net, "recursive_doubling_allgather", "allgather",
                        n, buffers, [rank_proc(r) for r in range(p)])
