"""Reduce-Scatter: the ring baseline and the in-network-compute version.

Reduce-Scatter is multicast Allgather's pipeline companion in FSDP
(paper §II-A): gradients are reduced and sharded after the backward pass.
Appendix B shows the {AG_mc, RS_inc} pair is up to ``2 − 2/P`` times
faster than {AG_ring, RS_ring} because the two bandwidth-optimal
algorithms stress *opposite* NIC directions.

Both implementations reduce real float32 data, so tests verify sums.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.core.baselines.base import P2PNet, run_baseline
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.nic import Transport
from repro.sim.events import Interrupt, Timeout
from repro.units import gib_per_s

__all__ = ["ring_reduce_scatter", "inc_reduce_scatter", "inc_reduce"]

#: software reduction bandwidth (vectorized FMA on one core, DRAM bound)
REDUCE_BW = gib_per_s(20)


def _check_inputs(send_data: Sequence[np.ndarray], p: int) -> np.ndarray:
    arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1) for d in send_data]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("all contributions must have the same length")
    if n % p:
        raise ValueError(f"element count {n} must divide evenly into {p} shards")
    return arrays


def ring_reduce_scatter(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    defer: bool = False,
):
    """Ring Reduce-Scatter: P−1 steps; rank *r* ends with shard *r* reduced.

    Step *s*: send partial shard ``(r−s−1) mod P`` right, receive shard
    ``(r−s−2) mod P`` from the left into a scratch slot, accumulate.
    """
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    arrays = _check_inputs(send_data, p)
    elems = arrays[0].size
    shard = elems // p
    shard_bytes = shard * 4
    buffers: List[np.ndarray] = []
    f32_views: List[np.ndarray] = []
    for r in range(p):
        # Layout: P working shards + 1 scratch slot for the incoming block.
        buf = np.zeros((p + 1) * shard_bytes, dtype=np.uint8)
        f32 = buf.view(np.float32)
        f32[: p * shard] = arrays[r]
        net.register(r, buf)
        buffers.append(buf)
        f32_views.append(f32)
    if p == 1:
        # Honor defer like the p >= 2 path: a deferred single-rank RS must
        # still hand back a PendingBaseline (the Communicator wrapper
        # relies on it), and finishing immediately stays bit-identical.
        pending = run_baseline(fabric, "ring_reduce_scatter", "reduce_scatter",
                               net.hosts, shard_bytes, buffers, [_noop(net)],
                               defer=True)

        def _expose_single(res):
            res.buffers = [f32_views[0][:shard].copy()]
            return res

        pending.postprocess = _expose_single
        return pending if defer else pending.finish()
    scratch_off = p * shard_bytes

    def rank_proc(r: int):
        right = (r + 1) % p
        left = (r - 1) % p
        net.qp(r, right)
        net.qp(r, left)
        f32 = f32_views[r]
        cq = net.recv_cq(r)
        # Credits guard the single scratch slot: the right neighbor grants
        # one credit (a 0-byte write-with-imm) after it has drained its
        # scratch, so a slow rank backpressures its sender (RTS/CTS).
        state = {"data": 0, "credit": 1}

        def wait_for(kind):
            while state[kind] == 0:
                yield cq.wait()
                for cqe in cq.poll():
                    yield Timeout(net.sim, net.cost.cqe_poll + net.cost.cqe_process)
                    net.repost_dummy(r, cqe)
                    state["data" if cqe.byte_len else "credit"] += 1
            state[kind] -= 1

        for step in range(p - 1):
            yield from wait_for("credit")
            send_blk = (r - step - 1) % p
            recv_blk = (r - step - 2) % p
            yield from net.write(r, right, send_blk * shard_bytes, shard_bytes,
                                 imm=step, remote_offset=scratch_off)
            yield from wait_for("data")
            # Accumulate the incoming partial into our working shard.
            yield Timeout(net.sim, shard_bytes / REDUCE_BW)
            lo = recv_blk * shard
            f32[lo : lo + shard] += f32[p * shard : p * shard + shard]
            if step < p - 2:
                yield from net.write(r, left, 0, 0, imm=step)  # grant credit
            yield from net.drain_send_cq(r, right, 1)
        return net.sim.now

    pending = run_baseline(fabric, "ring_reduce_scatter", "reduce_scatter",
                           net.hosts, p * shard_bytes, buffers,
                           [rank_proc(r) for r in range(p)], defer=True)

    def _expose_shards(res):
        # Expose each rank's reduced shard as its buffer.
        res.buffers = [f32_views[r][r * shard : (r + 1) * shard].copy()
                       for r in range(p)]
        return res

    pending.postprocess = _expose_shards
    return pending if defer else pending.finish()


def _inc_ranks(net: P2PNet, tree, arrays: List[np.ndarray],
               owners: Dict[int, tuple], exclusive) -> List[Generator]:
    """One process per rank of an INC pass: inject the rank's whole
    contribution up *tree* — batched like the multicast send path and
    *paced at link rate* (real NICs arbitrate the wire; an instantaneous
    post of the whole buffer would starve concurrent collectives behind an
    infinite FIFO) — then serve the notifications of the segments it owns
    (*owners*: host → ``(qp, cached recv WR)``).  The pass folds into one
    sleep per rank when :meth:`IncTree.begin` allows (DESIGN.md §6j); a
    handed-back rank resumes where the packet path would be."""
    sim, cost = net.sim, net.cost
    n = tree.n_segments
    datas = [a.view(np.uint8) for a in arrays]
    contrib = dict(zip(net.hosts, datas))
    cqe_cost = cost.cqe_poll + cost.cqe_process

    def rank_proc(r: int):
        host, data = net.hosts[r], datas[r]
        qp, wr = owners.get(host, (None, None))
        state = (0, None, False, 0)
        fold = tree.begin(exclusive, contrib, owners, cost.send_batch, cqe_cost)
        if fold is not None:
            try:
                yield sim.wake_at(fold.done[host])
                fold.woke(host)
                return sim.now
            except Interrupt as back:
                state = back.cause
        psn, wake, owed, got = state
        if wake is not None and wake > sim.now:
            yield sim.wake_at(wake)
        while psn < n:
            src, seg = tree.segment(psn)
            if psn % 32 == 0 and not owed:
                yield Timeout(sim, cost.send_batch(min(32, n - psn)))
            owed = False
            finish = tree.inject(host, psn, data[src:src + seg])
            if finish > sim.now:
                yield Timeout(sim, finish - sim.now)
            psn += 1
        if owed:  # resumed at the end of a notification's service
            qp.post_recv_cached(wr)
            got += 1
        expected = tree.owned(host)
        while got < expected:
            yield qp.recv_cq.wait()
            for _cqe in qp.recv_cq.poll():
                yield Timeout(sim, cqe_cost)
                qp.post_recv_cached(wr)
                got += 1
        return sim.now

    return [rank_proc(r) for r in range(net.size)]


def inc_reduce_scatter(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    segment_bytes: int = 4096,
    defer: bool = False,
    exclusive: Optional[Callable[[], bool]] = None,
):
    """SHARP-like Reduce-Scatter on the switch-reduction substrate.

    Each rank injects its whole contribution once (N bytes up); the tree
    reduces; each rank receives only its shard (N/P down) — the traffic
    profile of paper Fig 3's "INC" column.  *exclusive* (the communicator's
    "only collective in flight" test) lets the pass fold.
    """
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    if p < 2:
        raise ValueError("INC reduce-scatter needs at least 2 ranks")
    if net.hosts != sorted(net.hosts):
        raise ValueError("INC reduce-scatter requires hosts in ascending order "
                         "(shard ownership follows host order)")
    arrays = _check_inputs(send_data, p)
    elems = arrays[0].size
    shard = elems // p
    shard_bytes = shard * 4

    # Receive shard buffers under the symmetric rkey + notification QPs.
    buffers: List[np.ndarray] = []
    owners = {}
    for r in range(p):
        buf = np.zeros(shard_bytes, dtype=np.uint8)
        net.register(r, buf)
        buffers.append(buf)
        qp = net.nic(r).create_qp(Transport.RC, recv_cq=net.recv_cq(r))
        net.post_dummies(r, qp)
        owners[net.hosts[r]] = (qp, net.dummy_wr(r))

    tree = fabric.create_inc_tree(
        members=net.hosts,
        rkey=net.rkey,
        qpn_of={h: qp.qpn for h, (qp, _) in owners.items()},
        shard_bytes=shard_bytes,
        segment_bytes=segment_bytes,
    )
    pending = run_baseline(fabric, "inc_reduce_scatter", "reduce_scatter",
                           net.hosts, p * shard_bytes, buffers,
                           _inc_ranks(net, tree, arrays, owners, exclusive),
                           defer=True)
    tree.procs = dict(zip(net.hosts, pending.procs))

    def _expose_shards(res):
        res.buffers = [buf.view(np.float32).copy() for buf in buffers]
        return res

    pending.postprocess = _expose_shards
    return pending if defer else pending.finish()


def inc_reduce(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    root: int,
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    segment_bytes: int = 4096,
    defer: bool = False,
    exclusive: Optional[Callable[[], bool]] = None,
):
    """Rooted Reduce on the switch-reduction substrate.

    Identical injection profile to :func:`inc_reduce_scatter` (every rank
    sends its whole contribution up the tree once), but the tree's PSN
    ownership is overridden so the *root* rank receives the entire reduced
    buffer — N bytes down one NIC instead of N/P down every NIC.
    """
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    if p < 2:
        raise ValueError("INC reduce needs at least 2 ranks")
    if not 0 <= root < p:
        raise ValueError(f"root {root} out of range for {p} ranks")
    arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1)
              for d in send_data]
    elems = arrays[0].size
    if any(a.size != elems for a in arrays):
        raise ValueError("all contributions must have the same length")
    nbytes = elems * 4
    root_host = net.hosts[root]

    # Only the root owns a result buffer and a notification QP; the other
    # members are pure contributors.
    result_buf = np.zeros(nbytes, dtype=np.uint8)
    net.register(root, result_buf)
    qp = net.nic(root).create_qp(Transport.RC, recv_cq=net.recv_cq(root))

    tree = fabric.create_inc_tree(
        members=list(net.hosts),
        rkey=net.rkey,
        qpn_of={root_host: qp.qpn},
        shard_bytes=nbytes,
        segment_bytes=segment_bytes,
        root_host=root_host,
    )
    # The root drains the whole reduced buffer (not one shard), so keep a
    # receive posted for every in-flight segment — the 64-slot pool of the
    # scatter path would RNR-drop reliable writes on large buffers.
    net.post_dummies(root, qp, max(64, tree.n_segments))
    owners = {root_host: (qp, net.dummy_wr(root))}
    pending = run_baseline(fabric, "inc_reduce", "reduce", net.hosts,
                           nbytes, [result_buf],
                           _inc_ranks(net, tree, arrays, owners, exclusive),
                           defer=True)
    tree.procs = dict(zip(net.hosts, pending.procs))

    def _expose_root(res):
        res.buffers = [result_buf.view(np.float32).copy() if r == root
                       else np.zeros(0, dtype=np.float32) for r in range(p)]
        return res

    pending.postprocess = _expose_root
    return pending if defer else pending.finish()


def _noop(net: P2PNet):
    yield net.sim.timeout(0.0)
    return net.sim.now
