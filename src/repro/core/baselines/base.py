"""Shared machinery for the P2P baseline collectives.

:class:`P2PNet` provides the minimal rendezvous fabric every baseline
needs: lazily-created RC QP pairs between ranks, a shared per-rank receive
CQ, a pool of zero-length receives for write-with-immediate notifications,
and generator helpers that charge :class:`HostCostModel` time for the
software half of each operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.nic import CQE, CompletionQueue, QueuePair, RecvWR, SendWR, Transport
from repro.sim.events import Timeout

__all__ = ["P2PNet", "BaselineResult", "PendingBaseline", "run_baseline"]

#: symmetric rkey space for baseline op buffers (disjoint from the
#: multicast protocol's RKEY_BASE = 1<<20 range)
BASELINE_RKEY_BASE = 1 << 22

_op_ids = itertools.count(0)


@dataclass
class BaselineResult:
    """Timing/traffic outcome of one baseline collective."""

    algorithm: str
    kind: str
    comm_size: int
    send_bytes: int
    t_begin: float
    t_end: float
    rank_times: List[float]
    buffers: List[np.ndarray]
    traffic: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_begin

    @property
    def throughput(self) -> float:
        """Collective payload over completion time (Fig 11 metric)."""
        total = self.send_bytes * self.comm_size if self.kind != "broadcast" else self.send_bytes
        return total / self.duration if self.duration > 0 else float("inf")


class P2PNet:
    """Per-collective P2P communication context over RC transport."""

    _DUMMY_POOL = 64  #: zero-length receives kept posted per QP

    def __init__(
        self,
        fabric: Fabric,
        hosts: Optional[Sequence[int]] = None,
        cost: Optional[HostCostModel] = None,
    ) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.hosts = list(hosts) if hosts is not None else list(range(fabric.n_hosts))
        self.size = len(self.hosts)
        self.cost = cost if cost is not None else HostCostModel()
        self.op_id = next(_op_ids)
        self.rkey = BASELINE_RKEY_BASE + self.op_id
        self._recv_cqs: Dict[int, CompletionQueue] = {}
        self._qps: Dict[tuple, QueuePair] = {}
        self._dummy_wrs: Dict[int, RecvWR] = {}  # rank -> its cached 0-len recv

    # ------------------------------------------------------------- plumbing

    def nic(self, rank: int):
        return self.fabric.nic(self.hosts[rank])

    def recv_cq(self, rank: int) -> CompletionQueue:
        cq = self._recv_cqs.get(rank)
        if cq is None:
            cq = self._recv_cqs[rank] = self.nic(rank).create_cq(f"p2p-r{rank}")
        return cq

    def register(self, rank: int, buf: np.ndarray):
        """Register *buf* as rank's op buffer under the symmetric rkey."""
        return self.nic(rank).memory.register(buf, key=self.rkey)

    def qp(self, a: int, b: int) -> QueuePair:
        """Rank *a*'s RC QP toward rank *b* (pair created on first use)."""
        qp = self._qps.get((a, b))
        if qp is not None:
            return qp
        qa = self.nic(a).create_qp(Transport.RC, recv_cq=self.recv_cq(a))
        qb = self.nic(b).create_qp(Transport.RC, recv_cq=self.recv_cq(b))
        qa.connect(self.hosts[b], qb.qpn)
        qb.connect(self.hosts[a], qa.qpn)
        self._qps[(a, b)] = qa
        self._qps[(b, a)] = qb
        self.post_dummies(a, qa)
        self.post_dummies(b, qb)
        return qa

    def dummy_wr(self, rank: int) -> RecvWR:
        """*rank*'s zero-length receive WR — all a write-with-imm consumes
        — minted and validated once, then posted and re-posted cached."""
        wr = self._dummy_wrs.get(rank)
        if wr is None:
            mr = self.nic(rank).memory.register(1)
            mr.check(0, 0)  # validate
            wr = self._dummy_wrs[rank] = RecvWR(wr_id=0, mr_key=mr.key, offset=0, length=0)
        return wr

    def post_dummies(self, rank: int, qp: QueuePair, n: int = _DUMMY_POOL) -> None:
        """Keep *n* zero-length receives posted on *rank*'s *qp*."""
        qp.post_recv_cached_batch([self.dummy_wr(rank)] * n)

    def repost_dummy(self, rank: int, cqe: CQE) -> None:
        """Recycle the zero-length receive consumed by a write-with-imm."""
        self.nic(rank).qps[cqe.qpn].post_recv_cached(self._dummy_wrs[rank])

    # ----------------------------------------------------------- primitives

    def post_write(self, a: int, b: int, offset: int, length: int, imm: int,
                   remote_offset: Optional[int] = None, signaled: bool = True) -> None:
        """Post (non-blocking) an RDMA write rank *a* → rank *b* between the
        symmetric op buffers, with an immediate notification."""
        self.qp(a, b).post_send(
            SendWR(
                wr_id=imm, verb="write", mr_key=self.rkey, offset=offset,
                length=length, imm=imm, remote_key=self.rkey,
                remote_offset=offset if remote_offset is None else remote_offset,
                signaled=signaled,
            )
        )

    def write(self, a: int, b: int, offset: int, length: int, imm: int,
              remote_offset: Optional[int] = None) -> Generator:
        """Generator: post a write and charge the post-side software cost."""
        yield Timeout(self.sim, self.cost.send_batch(1))
        self.post_write(a, b, offset, length, imm, remote_offset)

    def wait_notifications(self, rank: int, n: int,
                           on_cqe: Optional[Callable[[CQE], object]] = None) -> Generator:
        """Generator: consume *n* write-with-imm notifications on *rank*.

        ``on_cqe`` may return a generator to run per completion (e.g. the
        reduction compute of Reduce-Scatter).
        """
        cq = self.recv_cq(rank)
        got = 0
        while got < n:
            yield cq.wait()
            for cqe in cq.poll(max_entries=n - got):
                yield Timeout(self.sim, self.cost.cqe_poll + self.cost.cqe_process)
                self.repost_dummy(rank, cqe)
                if on_cqe is not None:
                    action = on_cqe(cqe)
                    if action is not None:
                        yield from action
                got += 1

    def drain_send_cq(self, a: int, b: int, n: int) -> Generator:
        """Generator: wait for *n* signaled send completions on QP a→b."""
        cq = self.qp(a, b).send_cq
        got = 0
        while got < n:
            yield cq.wait()
            got += len(cq.poll(max_entries=n - got))


def _telemetry(fabric: Fabric) -> Dict[str, int]:
    return {
        "switch_bytes": fabric.switch_egress_bytes(),
        "switch_payload_bytes": fabric.switch_egress_bytes(payload_only=True),
        "switch_port_traffic": fabric.switch_port_traffic(),
        "switch_port_payload": fabric.switch_port_traffic(payload_only=True),
        "host_injected_bytes": fabric.host_injected_bytes(payload_only=True),
    }


class PendingBaseline:
    """A baseline collective whose rank processes are running but not yet
    awaited — lets callers overlap several collectives on one fabric
    (the FSDP interleaving study of Appendix B)."""

    def __init__(self, fabric: Fabric, algorithm: str, kind: str,
                 hosts: Sequence[int], send_bytes: int,
                 buffers: List[np.ndarray], rank_procs: List[Generator]):
        self.postprocess = None  # optional fn(result) -> result
        fabric.unfold_inc()  # a folded INC pass must see this one's packets
        self.fabric = fabric
        self.algorithm = algorithm
        self.kind = kind
        self.hosts = list(hosts)
        self.send_bytes = send_bytes
        self.buffers = buffers
        self._before = _telemetry(fabric)
        self.t_begin = fabric.sim.now
        self.procs = [fabric.sim.spawn(p, name=f"{algorithm}-r{i}")
                      for i, p in enumerate(rank_procs)]

    @property
    def complete(self) -> bool:
        return all(p.triggered for p in self.procs)

    def finish(self) -> BaselineResult:
        """Run the simulation until this collective completes; build the
        result (idempotent telemetry: delta since start)."""
        self.fabric.sim.drain(self.procs)
        for p in self.procs:
            if not p.ok:
                raise p.value
        after = _telemetry(self.fabric)
        rank_times = [p.value if isinstance(p.value, float) else self.fabric.sim.now
                      for p in self.procs]
        result = BaselineResult(
            algorithm=self.algorithm,
            kind=self.kind,
            comm_size=len(self.hosts),
            send_bytes=self.send_bytes,
            t_begin=self.t_begin,
            t_end=max(rank_times),
            rank_times=rank_times,
            buffers=self.buffers,
            traffic={k: after[k] - self._before[k] for k in self._before},
        )
        if self.postprocess is not None:
            result = self.postprocess(result)
        return result


def run_baseline(
    fabric: Fabric,
    algorithm: str,
    kind: str,
    hosts: Sequence[int],
    send_bytes: int,
    buffers: List[np.ndarray],
    rank_procs: List[Generator],
    defer: bool = False,
):
    """Spawn one process per rank; run to completion (default) or return a
    :class:`PendingBaseline` for overlapped execution (``defer=True``)."""
    pending = PendingBaseline(fabric, algorithm, kind, hosts, send_bytes,
                              buffers, rank_procs)
    if defer:
        return pending
    return pending.finish()
