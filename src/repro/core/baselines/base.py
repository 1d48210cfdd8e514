"""Shared machinery for the P2P baseline collectives.

:class:`P2PNet` provides the minimal rendezvous fabric every baseline
needs: lazily-created RC QP pairs between ranks, a shared per-rank receive
CQ, a pool of zero-length receives for write-with-immediate notifications,
and generator helpers that charge :class:`HostCostModel` time for the
software half of each operation; it records the regions it registers, the
QPs it creates and the INC trees it programs, and :meth:`P2PNet.release`
frees them.
:class:`PendingBaseline` is the running collective's
:class:`CollectiveHandle`, whose result is built as every kind's is.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Union

import numpy as np

from repro.core.communicator import CollectiveResult, PhaseBreakdown, RankStats
from repro.core.costmodel import HostCostModel
from repro.core.reliability import CollectiveAbortedError
from repro.core.request import CollectiveHandle, CollectiveKind, PhaseStats
from repro.net.fabric import Fabric
from repro.net.memory import MemoryRegion, PayloadBuffers, new_key
from repro.net.nic import CQE, CompletionQueue, QueuePair, RecvWR, SendWR, Transport
from repro.sim.events import Timeout

__all__ = ["P2PNet", "PendingBaseline", "run_baseline"]


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
        self.rkey = new_key()  #: the op buffers' symmetric key on every rank
        self.regions: List[MemoryRegion] = []  #: every region registered
        self.qps: List[QueuePair] = []  #: every QP created
        self.trees: list = []  #: every INC tree programmed
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

    def register(self, rank: int, buf_or_size: Union[np.ndarray, int],
                 key: Optional[int] = None) -> MemoryRegion:
        """Register a region on *rank* — lazily backed when given a size —
        under *key* (default: the op buffers' symmetric rkey)."""
        mr = self.nic(rank).memory.register(
            buf_or_size, key=self.rkey if key is None else key)
        self.regions.append(mr)
        return mr

    def create_qp(self, rank: int) -> QueuePair:
        """A new RC QP on *rank*, completing into its receive CQ."""
        qp = self.nic(rank).create_qp(Transport.RC, recv_cq=self.recv_cq(rank))
        self.qps.append(qp)
        return qp

    def inc_tree(self, **kw):
        """Program an INC reduction tree (:meth:`Fabric.create_inc_tree`)
        whose owners registered their regions under the symmetric rkey."""
        tree = self.fabric.create_inc_tree(rkey=self.rkey, **kw)
        self.trees.append(tree)
        return tree

    def qp(self, a: int, b: int) -> QueuePair:
        """Rank *a*'s RC QP toward rank *b* (pair created on first use)."""
        qp = self._qps.get((a, b))
        if qp is not None:
            return qp
        qa = self.create_qp(a)
        qb = self.create_qp(b)
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
            mr = self.register(rank, 1, new_key())
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

    def write(self, a: int, b: int, offset: int, length: int, imm: int,
              remote_offset: Optional[int] = None,
              local_key: Optional[int] = None) -> Generator:
        """Generator: charge the post-side software cost, then post an RDMA
        write rank *a* → rank *b* between the symmetric op buffers (the
        source: *local_key*'s, when given), with an immediate
        notification."""
        yield Timeout(self.sim, self.cost.send_batch(1))
        self.qp(a, b).post_send(
            SendWR(
                wr_id=imm, verb="write",
                mr_key=self.rkey if local_key is None else local_key,
                offset=offset, length=length, imm=imm, remote_key=self.rkey,
                remote_offset=offset if remote_offset is None else remote_offset,
            )
        )

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

    def release(self) -> None:
        """Deregister every region, destroy every QP and unprogram every
        INC tree of this collective (packets of an aborted one still in
        flight are dropped at the destroyed QPs and the released trees,
        not landed in freed memory)."""
        for qp in self.qps:
            qp.nic.destroy_qp(qp)
        for mr in self.regions:
            self.fabric.nic(mr.host).memory.deregister(mr.key)
        for tree in self.trees:
            tree.release()
        self.qps.clear()
        self.regions.clear()
        self.trees.clear()


def _telemetry(fabric: Fabric) -> Dict[str, int]:
    return {
        "switch_bytes": fabric.switch_egress_bytes(),
        "switch_payload_bytes": fabric.switch_egress_bytes(payload_only=True),
        "host_injected_bytes": fabric.host_injected_bytes(payload_only=True),
    }


def _idle(sim) -> Generator:
    yield sim.timeout(0.0)
    return sim.now


class PendingBaseline(CollectiveHandle):
    """The :class:`CollectiveHandle` of a baseline collective (P2P or INC),
    whose rank processes are running.  Several can overlap on one fabric
    (the FSDP interleaving study of Appendix B); :meth:`finish` runs one
    to completion for a caller without a communicator.

    ``wait_events`` are the rank processes themselves (a
    :class:`~repro.sim.process.Process` *is* an Event), never an ``AllOf``,
    whose resolution would cost one more simulator event.  *buffers* holds
    each rank's result region; *chunk_size* is the baseline's RC write
    (default: the whole contribution).  A rank's one phase spans the whole
    collective, all of it on the datapath."""

    transport = "rc"

    def __init__(self, net: P2PNet, algorithm: str, kind: str,
                 send_bytes: int, buffers: PayloadBuffers,
                 rank_procs: List[Generator], root: Optional[int] = None,
                 chunk_size: Optional[int] = None):
        net.fabric.preempt_folds()  # a folded phase must see these packets
        if net.size == 1:  # a lone rank has nothing to exchange
            rank_procs = [_idle(net.sim)]
        self.net = net
        self.kind = CollectiveKind(kind)
        self.send_bytes = send_bytes
        self.chunk_size = send_bytes if chunk_size is None else chunk_size
        self.buffers = buffers
        self.root = root
        self.dead: Set[int] = set()  #: ranks that fail-stopped mid-collective
        self._t_abort = 0.0
        self._before = _telemetry(net.fabric)
        self.t_begin = net.sim.now
        self.procs = [net.sim.spawn(p, name=f"{algorithm}-r{i}")
                      for i, p in enumerate(rank_procs)]

    @property
    def complete(self) -> bool:
        return all(p.triggered for p in self.procs)

    @property
    def wait_events(self) -> List:
        return list(self.procs)

    def _ends(self) -> Dict[int, float]:
        """Each surviving rank's completion instant (its process's value)."""
        return {r: p.value for r, p in enumerate(self.procs)
                if r not in self.dead}

    @property
    def phases(self) -> List[PhaseStats]:
        if self.error is not None:
            t_end = self._t_abort
        else:
            t_end = max(self._ends().values()) if self.complete else self.net.sim.now
        return [PhaseStats(str(self.kind), str(self.kind), self.t_begin, t_end)]

    def on_crash(self, rank: int) -> None:
        """A fail-stop kills the dead rank's process (software dies with
        the host).  Under the communicator's ``FailurePolicy`` the whole
        collective then fails at the crash instant — a reduction missing a
        contributor poisons every element, and the unicast exchange has no
        validity masks; without one, the survivors hang until the watchdog
        fires, as the engine path does with liveness off."""
        if self.complete:
            return
        self.procs[rank].kill()
        self.dead.add(rank)
        if self.comm.config.failure_policy is not None:
            dead = sorted(self.dead)
            self.error = CollectiveAbortedError(
                f"{self.kind} aborted: rank(s) {dead} fail-stopped "
                "mid-collective and the baseline substrate cannot degrade",
                rank=-1, coll_id=-1, kind=str(self.kind),
                phase=str(self.kind), dead_ranks=dead,
            )
            self._t_abort = self.net.sim.now
            for p in self.procs:
                p.kill()

    def _release(self) -> None:
        self.net.release()

    def _outcome(self) -> Dict[str, object]:
        if self.error is not None:
            raise self.error
        for p in self.procs:
            if not p.ok:
                raise p.value
        after = _telemetry(self.net.fabric)
        t0 = self.t_begin
        ranks = [RankStats(r, {"start": t0, "final": t},
                           PhaseBreakdown(sync=0.0, multicast=t - t0,
                                          handshake=0.0, total=t - t0), {})
                 for r, t in self._ends().items()]
        return {"ranks": ranks, "dead_ranks": sorted(self.dead),
                "traffic": {k: after[k] - v for k, v in self._before.items()}}

    def finish(self) -> CollectiveResult:
        """Run the simulation until this collective completes; its result
        (the traffic is the fabric's delta since the start)."""
        self.net.sim.drain(self.procs)
        return self.result()


def run_baseline(
    net: P2PNet,
    algorithm: str,
    kind: str,
    send_bytes: int,
    buffers: PayloadBuffers,
    rank_procs: List[Generator],
    defer: bool = False,
    root: Optional[int] = None,
    chunk_size: Optional[int] = None,
):
    """Spawn one process per rank; run to completion (default) or return
    the :class:`PendingBaseline` for overlapped execution (``defer=True``)."""
    pending = PendingBaseline(net, algorithm, kind, send_bytes, buffers,
                              rank_procs, root, chunk_size)
    return pending if defer else pending.finish()
