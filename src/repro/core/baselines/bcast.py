"""P2P Broadcast baselines: k-nomial tree and pipelined binary tree.

These are the Figure 11 comparators.  Both relabel ranks relative to the
root (``rel = (rank − root) mod P``) so any root works.

* **k-nomial** (UCC's default tree): ⌈log_k P⌉ rounds; each holder sends
  the *whole* buffer to its subtree roots in decreasing-span order.  Cheap
  for small messages, but interior nodes retransmit the full buffer k−1
  times per level.
* **binary tree, pipelined**: the buffer moves in segments; a node
  forwards segment *s* to both children as soon as it arrives.  Large-
  message throughput is bounded by the interior nodes' double send —
  the 2× send-path tax multicast avoids.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baselines.base import P2PNet, run_baseline
from repro.core.communicator import CollectiveResult
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.memory import PayloadBuffers
from repro.units import kib

__all__ = ["knomial_broadcast", "binary_tree_broadcast", "knomial_tree"]


def knomial_tree(p: int, radix: int) -> Tuple[List[Optional[int]], List[List[int]]]:
    """Parent/children (in send order) of each *relative* rank.

    Built by recursive k-way splitting: the holder of a span hands the
    buffer to the sub-roots of the other k−1 parts (larger parts first),
    then each part recurses independently.
    """
    if radix < 2:
        raise ValueError("radix must be >= 2")
    parent: List[Optional[int]] = [None] * p
    children: List[List[int]] = [[] for _ in range(p)]

    def rec(lo: int, hi: int) -> None:
        n = hi - lo
        if n <= 1:
            return
        part = -(-n // radix)
        subs = []
        for i in range(radix):
            slo = lo + i * part
            if slo >= hi:
                break
            subs.append((slo, min(slo + part, hi)))
        for slo, _shi in subs[1:]:
            parent[slo] = lo
            children[lo].append(slo)
        for sub in subs:
            rec(*sub)

    rec(0, p)
    return parent, children


def _prepare(net: P2PNet, root: int, data: np.ndarray):
    """Register every rank's message-sized region; the root's holds a
    snapshot of *data*, which the trees forward by reference."""
    image = np.ascontiguousarray(data).reshape(-1).view(np.uint8).copy()
    n = image.nbytes
    regions = [net.register(r, n) for r in range(net.size)]
    regions[root].place(0, image, 0, n)
    return n, PayloadBuffers(regions)


def knomial_broadcast(
    fabric: Fabric,
    root: int,
    data: np.ndarray,
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    radix: int = 4,
) -> CollectiveResult:
    """Non-pipelined k-nomial tree Broadcast (UCC's knomial)."""
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    n, buffers = _prepare(net, root, data)
    parent, children = knomial_tree(p, radix)

    def rank_proc(r: int):
        rel = (r - root) % p
        if parent[rel] is not None:
            yield from net.wait_notifications(r, 1)
        for child_rel in children[rel]:
            child = (child_rel + root) % p
            yield from net.write(r, child, 0, n, imm=0)
            yield from net.drain_send_cq(r, child, 1)
        return net.sim.now

    return run_baseline(net, "knomial_broadcast", "broadcast", n,
                        buffers, [rank_proc(r) for r in range(p)], root=root)


def binary_tree_broadcast(
    fabric: Fabric,
    root: int,
    data: np.ndarray,
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    segment_bytes: int = kib(64),
    window: int = 8,
) -> CollectiveResult:
    """Pipelined binary-tree Broadcast with bounded in-flight segments."""
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    n, buffers = _prepare(net, root, data)
    n_seg = max(1, -(-n // segment_bytes))

    def rank_proc(r: int):
        rel = (r - root) % p
        kids = [(c + root) % p for c in (2 * rel + 1, 2 * rel + 2) if c < p]
        has_parent = rel != 0
        sent = {k: 0 for k in kids}  # outstanding per child
        for s in range(n_seg):
            if has_parent:
                yield from net.wait_notifications(r, 1)
            off = s * segment_bytes
            ln = min(segment_bytes, n - off)
            for child in kids:
                yield from net.write(r, child, off, ln, imm=s)
                sent[child] += 1
                if sent[child] >= window:
                    yield from net.drain_send_cq(r, child, 1)
                    sent[child] -= 1
        for child in kids:
            yield from net.drain_send_cq(r, child, sent[child])
        return net.sim.now

    return run_baseline(net, "binary_tree_broadcast", "broadcast", n,
                        buffers, [rank_proc(r) for r in range(p)], root=root,
                        chunk_size=min(segment_bytes, n))
