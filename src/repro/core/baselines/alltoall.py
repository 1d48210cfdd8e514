"""All-to-all personalized exchange over unicast RC queue pairs.

The MoE expert-parallel traffic pattern (every rank sends a distinct
block to every other rank) has no multicast structure to exploit — each
byte has exactly one consumer — so the protocol rides the same P2P RC
substrate as the baselines, with the communicator's chunking discipline:
blocks are cut into chunk-sized RDMA writes with immediate notifications,
and each rank walks a rotation schedule (step *s* targets rank
``(r + s) mod P``) so the instantaneous traffic matrix stays a perfect
permutation and no receiver is hot-spotted.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.baselines.base import P2PNet, run_baseline
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.memory import PayloadBuffers, new_key

__all__ = ["p2p_alltoall"]


def p2p_alltoall(
    fabric: Fabric,
    send_data: Sequence[np.ndarray],
    hosts: Optional[Sequence[int]] = None,
    cost: Optional[HostCostModel] = None,
    chunk_bytes: Optional[int] = None,
    defer: bool = False,
):
    """All-to-all: ``send_data[r]`` holds P equal blocks; block *i* lands
    as block *r* of rank *i*'s receive buffer.

    ``chunk_bytes`` bounds the RDMA write size (defaults to one whole
    block); blocks must divide evenly into chunks, and a block may not
    span more chunks than the RC receive pool holds notifications for.
    """
    net = P2PNet(fabric, hosts, cost)
    p = net.size
    if p < 2:
        raise ValueError("alltoall needs at least 2 ranks")
    payloads = [np.ascontiguousarray(d).reshape(-1).view(np.uint8)
                for d in send_data]
    nbytes = payloads[0].nbytes
    if nbytes == 0:
        raise ValueError("cannot alltoall empty buffers")
    if any(pl.nbytes != nbytes for pl in payloads):
        raise ValueError("all send buffers must have the same size")
    if nbytes % p:
        raise ValueError(f"send size {nbytes} must divide into {p} blocks")
    block = nbytes // p
    chunk = min(chunk_bytes if chunk_bytes else block, block)
    if block % chunk:
        raise ValueError(
            f"block size {block} must be a multiple of the chunk size {chunk}")
    chunks_per_block = block // chunk
    if chunks_per_block > P2PNet._DUMMY_POOL:
        raise ValueError(
            f"{chunks_per_block} chunks per block exceeds the per-QP "
            f"notification pool ({P2PNet._DUMMY_POOL}); use a larger chunk")

    # Per rank: a P·b receive region under the symmetric rkey, and the
    # P·b send region under a key of its own, both placed from one
    # snapshot.  The local block never touches the wire (direct copy, like
    # the allgather roots placing their own shard).
    image = np.concatenate(payloads)
    send_key = new_key()
    recv = []
    for r in range(p):
        net.register(r, nbytes, send_key).place(0, image, r * nbytes, nbytes)
        mr = net.register(r, nbytes)
        mr.place(r * block, image, r * nbytes + r * block, block)
        recv.append(mr)

    def rank_proc(r: int):
        for step in range(1, p):
            dst = (r + step) % p
            for c in range(chunks_per_block):
                yield from net.write(
                    r, dst,
                    offset=dst * block + c * chunk,
                    length=chunk,
                    imm=step * chunks_per_block + c,
                    remote_offset=r * block + c * chunk,
                    local_key=send_key,
                )
        yield from net.wait_notifications(r, (p - 1) * chunks_per_block)
        return net.sim.now

    return run_baseline(net, "p2p_alltoall", "alltoall", nbytes,
                        PayloadBuffers(recv),
                        [rank_proc(r) for r in range(p)], defer=defer,
                        chunk_size=chunk)
