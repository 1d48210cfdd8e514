"""The per-rank collective progress engine (paper §IV-B/C, §V-A).

One :class:`RankEngine` is the software stack of one participant:

* per-subgroup multicast QPs (UD or UC) with staging rings (UD),
* **receive workers** — one process per subgroup, each draining that
  subgroup's CQ: decode immediate → (collective, PSN), update the bitmap,
  issue the staging→user DMA copy, re-post the receive (flow-direction
  and packet parallelism),
* a **send worker** path — the multicast scheduler: batched WQE posting
  with doorbell moderation and bounded outstanding batches,
* the **control plane** (RC): RNR barrier, chain activation, fetch
  ring, final handshake,
* the **op controller** — one process per collective: barrier → (optional)
  multicast send → cutoff-timed wait for data → recovery if needed →
  final handshake,
* a **fetch server** answering FETCH_REQ from the right ring neighbor.

Everything charges virtual time through :class:`HostCostModel`, so a
single engine parameterization covers both the "fast CPU, cheap ops" and
"starved CPU" regimes the paper studies.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.core.chunking import ImmLayout
from repro.core.control import (
    MSG_ACTIVATE,
    MSG_BARRIER,
    MSG_FETCH_ACK,
    MSG_FETCH_REQ,
    MSG_FINAL,
    MSG_PING,
    MSG_PONG,
    MSG_DEATH,
    ControlPlane,
)
from repro.core.costmodel import HostCostModel
from repro.core.ops import OpState
from repro.core.reliability import (
    FETCH_ACK_TIMEOUT,
    FETCH_STALL_ROUNDS,
    LIVENESS_PROBE_RETRIES,
    LIVENESS_PROBE_TIMEOUT,
    RECOVERY_ALPHA,
    RECOVERY_ALPHA_MAX,
    RECOVERY_BACKOFF,
    RECOVERY_JITTER,
    SUSPICION_TIMEOUT,
    CollectiveAbortedError,
    CutoffEstimator,
    PeerDeadError,
    ReliabilityError,
    backoff_delay,
)
from repro.core.staging import StagingRing
from repro.net.dma import DmaEngine
from repro.net.nic import RecvWR, SendWR, Transport
from repro.sim.events import PASSIVE_WAIT, AnyOf, Interrupt, Timeout

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.communicator import Communicator

__all__ = ["RankEngine", "RxStep"]


class RxStep:
    """What a receive worker will have done once through every CQE it has
    polled (:meth:`RankEngine._plan_step`): the instant it is ``free`` —
    ``inf`` for a step that cannot be told ahead —, the ``(issue instant,
    bytes)`` of the staging ``copies`` it has still to issue, the DMA
    watermark a fold leaves behind them (``dma_after``, ``None``: none),
    and ``(op, psn)`` of each chunk the step sets (``new``).  One per
    worker, rewritten in place at each poll and park."""

    __slots__ = ("free", "copies", "dma_after", "new")

    def __init__(self, free: float) -> None:
        self.free = free
        self.copies: Deque[Tuple[float, int]] = collections.deque()
        self.dma_after: Optional[float] = None
        self.new: List[Tuple[OpState, int]] = []



class RankEngine:
    """The progress engine of one communicator rank."""

    def __init__(self, comm: "Communicator", rank: int) -> None:
        self.comm = comm
        self.rank = rank
        self.sim = comm.sim
        self.fabric = comm.fabric
        self.config = comm.config
        self.nic = comm.fabric.nic(comm.host_of(rank))
        self.cost: HostCostModel = comm.config.cost
        self.imm: ImmLayout = comm.imm
        self.dma = DmaEngine(self.sim)
        self.ops: Dict[int, OpState] = {}
        # Observability: this rank's track, or None when tracing is off.
        # Every tracepoint below guards on the local None check; recording
        # never schedules events, so traced and untraced runs are
        # bit-identical in virtual time and event counts.
        tracer = getattr(comm, "tracer", None)
        self.trace = tracer.track("rank", f"r{rank}") if tracer is not None else None

        self.ctrl = ControlPlane(
            self.sim,
            self.nic,
            rank,
            pair_fn=lambda peer: comm.ensure_ctrl_pair(rank, peer),
            per_message_cost=self.cost.ctrl_message,
            in_flight=comm.ctrl_in_flight,
        )

        cfg = self.config
        uc = cfg.transport == "uc"
        self.send_cq = self.nic.create_cq(f"send-r{rank}")
        self.sub_qps = []
        self.stagings: List[Optional[StagingRing]] = []
        # UC: the NIC places data and a receive only consumes an immediate,
        # so every slot of every subgroup QP is one zero-length WR (§V-A
        # cached re-post), validated here and posted ``staging_slots`` times.
        dummy_mr = self.nic.memory.register(1)
        dummy_mr.check(0, 0)  # validate
        self._uc_wr = RecvWR(wr_id=0, mr_key=dummy_mr.key, offset=0, length=0)
        host = comm.host_of(rank)
        for sg in range(cfg.n_subgroups):
            # Each subgroup's QP lives on the NIC of the plane its
            # multicast group was planned into (rail 0 everywhere on
            # single-rail fabrics — same NIC object as before, so the
            # single-rail datapath is untouched).
            if comm.size >= 2:
                gid = comm.mcast_gids[sg]
                nic_sg = comm.fabric.rail_nic(
                    host, comm.fabric.mcast_groups[gid].rail)
            else:
                gid = None
                nic_sg = self.nic
            qp = nic_sg.create_qp(
                Transport.UC if uc else Transport.UD,
                send_cq=self.send_cq,
                recv_cq=nic_sg.create_cq(f"recv-r{rank}-sg{sg}"),
                max_recv_wr=max(cfg.staging_slots, 16),
            )
            if gid is not None:
                qp.attach_mcast(gid)
            if uc:
                qp.post_recv_cached_batch([self._uc_wr] * cfg.staging_slots)
                self.stagings.append(None)
            else:
                ring = StagingRing(nic_sg, cfg.staging_slots, cfg.chunk_size)
                ring.prime(qp)
                self.stagings.append(ring)
            self.sub_qps.append(qp)

        #: CQEs for no registered collective (e.g. a late duplicate after
        #: release): recycled, never fatal — the RNR barrier keeps them
        #: off the ingest side of live collectives
        self.stray_cqes = 0
        #: flow fast-forward: the folded receive-worker cursor.  A fold
        #: advances this rank's datapath without waking its workers; a
        #: worker that wakes for post-fold traffic must not anchor its
        #: cost chain before this instant (it was "busy" inside the fold).
        self.ff_resume_floor = 0.0
        #: per subgroup, its receive worker's :class:`RxStep` — free
        #: ``now`` while parked.  A data-fold session starts from it
        #: (DESIGN §6d).
        self.rx_step = [RxStep(self.sim.now) for _ in range(cfg.n_subgroups)]
        self._recv_procs: Dict[int, object] = {}
        # The daemons start parked, with no kickoff event: the first CQE, or
        # the first request in the fetch server's inbox, wakes them.
        for sg in range(cfg.n_subgroups):
            proc = self._recv_procs[sg] = self.sim.spawn(
                self._recv_worker(sg), name=f"rxw{sg}-r{rank}", parked=True)
            self.sub_qps[sg].recv_cq.set_notify(proc.wake)
        self._fetch_proc = self.sim.spawn(self._fetch_server(), name=f"fetchsrv-r{rank}",
                                          parked=True)
        self.ctrl._inbox(MSG_FETCH_REQ, 0, None)[1].notify = self._fetch_proc.wake

        from repro.sim.primitives import Resource

        self._send_lock = Resource(self.sim, 1)
        # Serializes recoveries so read completions on the shared control
        # QP's send CQ are attributable to exactly one controller.
        self._recovery_lock = Resource(self.sim, 1)
        #: adaptive cutoff slack, persistent across this rank's collectives
        self.cutoff = CutoffEstimator(cfg.cutoff_alpha)
        self._fetch_nonce = 0

        # --- liveness layer (only active when config.failure_policy set) ---
        #: peers this rank knows to be dead (own probes or MSG_DEATH notices)
        self.confirmed_dead: Set[int] = set()
        self._probe_nonce = 0
        self._shutdown = False
        self.ctrl.on_death = self._on_death_notice

    # ------------------------------------------------------------- teardown

    def shutdown(self) -> None:
        """Fail-stop this engine: kill every software process.  Called when
        this rank's *own* host crashes — the NIC flags already black-hole
        the hardware; this kills the software that would otherwise keep
        polling dead CQs forever."""
        if self._shutdown:
            return
        self._shutdown = True
        for proc in self._recv_procs.values():
            if proc.alive:
                proc.kill()
        if self._fetch_proc.alive:
            self._fetch_proc.kill()
        if self.ctrl._dispatch_proc.alive:
            self.ctrl._dispatch_proc.kill()

    def rebind_subgroup(self, sg: int) -> None:
        """Re-home subgroup *sg*'s QP after a plan rail migration.

        When a whole plane dies, the planner fails the group over to a
        surviving rail; the QP object (receive queue, CQs, staging — all
        backed by the host's shared Memory) migrates to that rail's NIC
        so replays and future traffic flow through the surviving plane.
        No-op while the group stays on its original rail.
        """
        gids = self.comm.mcast_gids
        if sg >= len(gids):
            return
        group = self.fabric.mcast_groups.get(gids[sg])
        if group is None or group.plan is None:
            return
        nic = self.fabric.rail_nic(self.nic.host, group.plan.rail)
        qp = self.sub_qps[sg]
        if qp.nic is not nic:
            nic.adopt_qp(qp)

    # ------------------------------------------------------------- op table

    def register_op(self, op: OpState) -> None:
        if op.coll_id in self.ops:
            raise ValueError(f"collective id {op.coll_id} already active on rank {self.rank}")
        self.ops[op.coll_id] = op

    def release_op(self, coll_id: int) -> None:
        op = self.ops.pop(coll_id, None)
        if op is not None:
            self.nic.memory.deregister(op.mr.key)

    # ----------------------------------------------------------- recv worker

    def _recv_worker(self, sg: int):
        """Receive datapath of subgroup *sg* (paper Fig 6): poll → bitmap →
        copy → re-post, one CQE at a time.

        Each wake polls a snapshot of the CQ and publishes where the step
        over it ends (:meth:`_plan_step`).  Idle waits park on the CQ
        notify edge instead of allocating Event/AnyOf wrappers.
        """
        cfg = self.config
        cost = self.cost
        uc = cfg.transport == "uc"
        qp = self.sub_qps[sg]
        staging = self.stagings[sg]  # None under UC
        wake = self._recv_procs[sg].wake
        step = self.rx_step[sg]
        # (started parked: the first CQE woke it, as after every park below)
        if self.ff_resume_floor > self.sim.now:
            yield self.sim.wake_at(self.ff_resume_floor)
        while True:
            if not len(qp.recv_cq):
                step.free = self.sim.now
                step.new.clear()
                qp.recv_cq.set_notify(wake)
                yield PASSIVE_WAIT
                if self.ff_resume_floor > self.sim.now:
                    # A flow-level fold advanced this worker's datapath
                    # past `now` without waking it; anchor post-fold CQE
                    # processing where the packet-level chain would have.
                    yield self.sim.wake_at(self.ff_resume_floor)
            cqes = qp.recv_cq.poll()
            self._plan_step(step, cqes, uc)
            for cqe in cqes:
                # Straggler injection: a slow receiver pays extra per
                # poll, so its staging ring backs up into RNR drops.
                stall = self.fabric.straggler_delay(self.nic.host, self.sim.now)
                yield Timeout(self.sim, cost.cqe_poll + cost.cqe_process + stall)
                psn, cid = self.imm.decode(cqe.imm or 0)
                op = self.ops.get(cid)
                if uc:
                    # Data already placed by the NIC; recycle the WR.
                    yield Timeout(self.sim, cost.recv_repost)
                    qp.post_recv_cached(self._uc_wr)
                    if op is None:
                        self.stray_cqes += 1
                        continue
                    if op.bitmap.set(psn):
                        op.stats["chunks_received"] += 1
                        op.placed.set(psn)  # UC: NIC placed it already
                    else:
                        op.stats["duplicates"] += 1
                    op.maybe_complete()
                    continue
                slot = cqe.wr_id
                staging.on_cqe(slot)
                trc = self.trace
                if trc is not None:
                    trc.counter("staging.hold", self.sim.now, staging.held)
                if op is None or not op.bitmap.set(psn):
                    # Stray or duplicate chunk: recycle without copying.
                    if op is None:
                        self.stray_cqes += 1
                    else:
                        op.stats["duplicates"] += 1
                    yield Timeout(self.sim, cost.recv_repost)
                    staging.repost(slot, qp)
                    if trc is not None:
                        trc.counter("staging.hold", self.sim.now, staging.held)
                    continue
                op.stats["chunks_received"] += 1
                # Counted with its bitmap bit: an earlier copy landing
                # while this one is being issued must not complete the
                # op ahead of this chunk's bytes.
                op.outstanding_copies += 1
                off, ln = op.plan.bounds(psn)
                yield Timeout(self.sim, cost.copy_issue + cost.recv_repost)
                copy_done = self.dma.copy(
                    (staging.mr, slot * staging.slot_size), (op.mr, off), ln)
                if step.copies:
                    step.copies.popleft()
                    if not step.copies and step.dma_after is not None:
                        # a fold's copies queue behind this step's last
                        self.dma.busy_until = step.dma_after
                copy_done.subscribe(
                    self._make_copy_callback(op, staging, slot, qp, psn)
                )

    def unset(self, op: OpState) -> int:
        """Chunks of *op* that subgroup 0's worker sets in its step under
        way and has not set yet."""
        new = self.rx_step[0].new
        return sum(o is op and not op.bitmap.test(psn)
                   for o, psn in new) if new else 0

    def _plan_step(self, step: RxStep, cqes, uc: bool) -> None:
        """Rewrite *step* for a worker that polled *cqes* now.  Its step
        costs, per CQE, ``cqe_poll + cqe_process``, then ``copy_issue +
        recv_repost`` for a new UD chunk and ``recv_repost`` for anything
        else — unless a straggler window may stall a poll, a CQE is for no
        registered collective (one may register meanwhile), or the cutoff
        may start a recovery that sets a bit the step expects to set: then
        the step's end is unknown."""
        cost = self.cost
        now = t = self.sim.now
        c1 = cost.cqe_poll + cost.cqe_process
        copies, new = step.copies, step.new
        copies.clear()
        new.clear()
        step.dma_after = None
        step.free = _INF
        seen = set()
        for cqe in cqes:
            try:
                psn, cid = self.imm.decode(cqe.imm or 0)
            except ValueError:  # (the step raises it)
                break
            op = self.ops.get(cid)
            if op is None or psn >= op.n_chunks:
                break
            t = t + c1
            if (cid, psn) in seen or op.bitmap.test(psn):
                t = t + cost.recv_repost
                continue
            seen.add((cid, psn))
            new.append((op, psn))
            if uc:
                t = t + cost.recv_repost
            else:
                t = t + (cost.copy_issue + cost.recv_repost)
                copies.append((t, op.plan.bounds(psn)[1]))
        else:
            if not any(op.stats["recoveries"] or op.cutoff_deadline <= t
                       for op, _ in new) \
                    and self.fabric.straggler_inert(self.nic.host, now, t):
                step.free = t
                return
        new.clear()
        copies.clear()

    def _make_copy_callback(self, op: OpState, staging: StagingRing, slot: int, qp,
                            psn: int):
        trc = self.trace
        issued_at = self.sim.now if trc is not None else 0.0

        def _on_copy(_ev) -> None:
            staging.repost(slot, qp)
            op.outstanding_copies -= 1
            op.placed.set(psn)
            if trc is not None:
                now = self.sim.now
                trc.complete("dma.copy", issued_at, now - issued_at)
                trc.counter("staging.hold", now, staging.held)
            op.maybe_complete()

        return _on_copy

    # ----------------------------------------------------------- send worker

    def run_send(self, op: OpState):
        """Multicast root datapath (§III-A): zero-copy fragmentation, batched
        posting, doorbell moderation, bounded outstanding batches."""
        cfg = self.config
        cost = self.cost
        yield self._send_lock.acquire()
        try:
            psns = list(range(op.send_lo, op.send_hi))
            outstanding = 0
            for i in range(0, len(psns), cfg.batch_size):
                batch = psns[i : i + cfg.batch_size]
                yield Timeout(self.sim, cost.send_batch(len(batch)))
                items = []
                for j, psn in enumerate(batch):
                    off, ln = op.plan.bounds(psn)
                    sg = op.subgroups.subgroup_of(psn - op.send_lo)
                    qp = self.sub_qps[sg]
                    imm = self.imm.encode(psn, op.coll_id % self.imm.max_collectives)
                    last = j == len(batch) - 1
                    if cfg.transport == "uc":
                        wr = SendWR(
                            wr_id=psn, verb="write", mr_key=op.mr.key, offset=off,
                            length=ln, imm=imm, mcast_gid=self.comm.mcast_gids[sg],
                            remote_key=op.mr.key, remote_offset=off, signaled=last,
                        )
                    else:
                        wr = SendWR(
                            wr_id=psn, verb="send", mr_key=op.mr.key, offset=off,
                            length=ln, imm=imm, mcast_gid=self.comm.mcast_gids[sg],
                            signaled=last,
                        )
                    items.append((qp, wr))
                # One doorbell for the whole batch (its cost is the
                # send_batch Timeout above).
                if self.fabric.topology.rails == 1:
                    self.nic.post_send_batch(items)
                else:
                    # Multi-rail: each WR leaves through the NIC its QP
                    # lives on; partition preserving per-NIC order (the
                    # planes are independent, so cross-NIC order is
                    # immaterial at this single posting instant).
                    per_nic: Dict[object, list] = {}
                    for item in items:
                        per_nic.setdefault(item[0].nic, []).append(item)
                    for nic, sub in per_nic.items():
                        nic.post_send_batch(sub)
                outstanding += 1
                trc = self.trace
                if trc is not None:
                    trc.counter("nic.outstanding", self.sim.now, outstanding)
                while outstanding >= cfg.max_outstanding_batches:
                    yield self.send_cq.wait()
                    outstanding -= len(self.send_cq.poll())
                    if trc is not None:
                        trc.counter("nic.outstanding", self.sim.now, outstanding)
            while outstanding > 0:
                yield self.send_cq.wait()
                outstanding -= len(self.send_cq.poll())
                if self.trace is not None:
                    self.trace.counter("nic.outstanding", self.sim.now, outstanding)
        finally:
            self._send_lock.release()

    # ------------------------------------------------------------- recovery

    def run_recovery(self, op: OpState, participants: List[int], me: int,
                     deadline_abs: float, monitor: Optional[List[int]] = None):
        """Slow path (§III-C), hardened: selective zero-copy fetch of
        missing chunks from ring neighbors.

        The fetch is **chunk-granular**: each round inspects which missing
        chunks the neighbor has *placed* (its own may still be recovering)
        and RDMA-READs exactly those.  Chunks a neighbor lacks propagate
        around the ring as it recovers them itself — the paper's "worst
        case degenerates to ring Allgather".  A whole-buffer ACK handshake
        would deadlock when every rank of an Allgather lost something.

        Hardening beyond the paper's description:

        * the FETCH_ACK rendezvous is timeout-bounded — an unresponsive
          neighbor costs ``FETCH_ACK_TIMEOUT``, not a hang;
        * a neighbor that yields nothing for ``FETCH_STALL_ROUNDS`` rounds
          (unresponsive, or itself unrecovered) is **escalated past**: the
          requester rotates to the next-farther left ring neighbor;
        * re-polls back off exponentially with deterministic per-rank
          jitter so stalled ranks neither thrash nor retry in lockstep;
        * the whole recovery is bounded by *deadline_abs* — on expiry a
          :class:`ReliabilityError` with diagnostic counters is raised
          instead of hanging the simulation.

        When *monitor* is set (liveness layer active), any confirmed death
        among those ranks raises :class:`PeerDeadError` out of the loop so
        the controller can re-plan instead of fetching from a corpse.
        *me* is this rank's position in *participants*.
        """
        op.stats["recoveries"] += 1
        # An unscheduled crash (no fault_epoch hook between the crash and
        # this cutoff) can leave a deferred-commit session live; recovery
        # traffic must see fully committed channel state — and no folded
        # control token may be served around it.
        self.comm.ff.preempt()
        self.comm.cf.unfold()
        trc = self.trace
        recovery_t0 = self.sim.now
        # Escalation order: the ring-left neighbor first, then progressively
        # farther-left ranks (under the chain schedule those are the ranks
        # most likely to already hold what we miss), wrapping the full ring.
        order = [
            participants[(me - d) % len(participants)]
            for d in range(1, len(participants))
        ]
        rounds_used = 0
        yield self._recovery_lock.acquire()
        try:
            attempt = 0
            while not op.data_done.triggered:
                if monitor is not None:
                    self._check_live(op, monitor, "data")
                self._check_recovery_deadline(op, deadline_abs)
                peer = order[attempt % len(order)]
                if attempt > 0 and len(order) > 1:
                    op.stats["neighbor_escalations"] += 1
                    if trc is not None:
                        trc.instant("reliability.escalate", self.sim.now,
                                    {"peer": peer})
                _progressed, rounds = yield from self._fetch_attempt(
                    op, peer, deadline_abs, monitor=monitor
                )
                rounds_used += rounds
                attempt += 1
        finally:
            self._recovery_lock.release()
            op.retry_histogram.append(rounds_used)
            if trc is not None:
                trc.complete("reliability.recover", recovery_t0,
                             self.sim.now - recovery_t0,
                             {"rounds": rounds_used})

    def _check_recovery_deadline(self, op: OpState, deadline_abs: float) -> None:
        if self.sim.now < deadline_abs:
            return
        started = op.phases.get("recovery", deadline_abs - self.config.recovery_deadline)
        raise ReliabilityError(
            f"recovery deadline exceeded on rank {self.rank}",
            rank=self.rank,
            coll_id=op.coll_id,
            kind=op.kind,
            missing_chunks=op.missing_chunks,
            n_chunks=op.n_chunks,
            elapsed=self.sim.now - started,
            deadline=self.config.recovery_deadline,
            counters=op.stats,
            retry_histogram=op.retry_histogram,
        )

    def _fetch_attempt(self, op: OpState, peer: int, deadline_abs: float,
                       monitor: Optional[List[int]] = None):
        """One bounded fetch session against *peer*.

        Returns ``(progressed, rounds)``; the caller escalates to the next
        ring neighbor when a session ends without the op completing.
        """
        self._fetch_nonce = (self._fetch_nonce + 1) & 0xFF
        # Rendezvous key carries a nonce so a late ACK from an abandoned
        # attempt can never satisfy a newer one.
        key = (op.coll_id << 8) | self._fetch_nonce
        self.ctrl.send(peer, MSG_FETCH_REQ, key)
        ack = self.ctrl.recv(MSG_FETCH_ACK, key, peer)
        wait = min(FETCH_ACK_TIMEOUT, max(deadline_abs - self.sim.now, 1e-9))
        yield AnyOf(self.sim, [ack, op.data_done, Timeout(self.sim, wait)])
        if op.data_done.triggered:
            return True, 0
        if not ack.triggered:
            op.stats["fetch_ack_timeouts"] += 1
            if self.trace is not None:
                self.trace.instant("reliability.timeout", self.sim.now,
                                   {"peer": peer})
            if monitor is not None:
                # A silent fetch server is exactly what a fail-stopped host
                # looks like from the data phase — probe before escalating
                # so a dead peer is detected promptly, not only when some
                # rank blocks on it in a control-plane wait.
                if (yield from self._probe(peer)):
                    raise PeerDeadError(
                        f"peer {peer} fail-stopped during fetch",
                        rank=self.rank, coll_id=op.coll_id, phase="data",
                        dead=self._dead_in(monitor) or {peer},
                    )
            self._check_recovery_deadline(op, deadline_abs)
            return False, 0
        qp = self.comm.ensure_ctrl_pair(self.rank, peer)
        qp.send_cq.poll()  # discard stale completions of abandoned attempts
        peer_host = self.comm.host_of(peer)
        rtt = 2 * self.fabric.one_way_delay(self.nic.host, peer_host)
        stalls = 0
        rounds = 0
        progressed = False
        # Named stream — recovery jitter is reproducible and per-rank.
        jitter_rng = self.fabric.streams.stream(f"recovery:r{self.rank}")
        while not op.data_done.triggered:
            self._check_recovery_deadline(op, deadline_abs)
            rounds += 1
            op.stats["fetch_rounds"] += 1
            if self.trace is not None:
                self.trace.instant("reliability.fetch", self.sim.now,
                                   {"peer": peer})
            # Fetch the neighbor's bitmap (modeled as one small RDMA
            # read: RTT + bitmap bytes on the wire).
            bitmap_bytes = max(op.n_chunks // 8, 8)
            yield Timeout(
                self.sim, rtt + bitmap_bytes / self.fabric.link_bandwidth
            )
            peer_engine = self.comm.engines[peer]
            runs = self._fetchable_runs(op, peer_engine.ops.get(op.coll_id))
            if runs:
                got = yield from self._fetch_runs(op, qp, runs, deadline_abs)
                if got:
                    progressed = True
                    stalls = 0
                op.maybe_complete()
                if op.data_done.triggered:
                    break
            else:
                stalls += 1
                if stalls >= FETCH_STALL_ROUNDS:
                    return progressed, rounds
            # Nothing (more) available yet: let the multicast path and the
            # neighbor's own recovery make progress, then retry — backing
            # off while stalled, waking immediately if the fast path
            # completes meanwhile.
            delay = backoff_delay(
                stalls, RECOVERY_ALPHA, RECOVERY_BACKOFF,
                RECOVERY_ALPHA_MAX, RECOVERY_JITTER, jitter_rng,
            )
            delay = min(delay, max(deadline_abs - self.sim.now, 1e-9))
            op.record_timer(delay, "recovery-rearm")
            yield AnyOf(self.sim, [op.data_done, Timeout(self.sim, delay)])
        return True, rounds

    @staticmethod
    def _fetchable_runs(op: OpState, peer_op: Optional[OpState]):
        """Our missing chunks the neighbor has placed, as contiguous runs."""
        if peer_op is None:
            return []
        return op.bitmap.missing_runs(among=peer_op.placed)

    def _fetch_runs(self, op: OpState, qp, runs, deadline_abs: float):
        """RDMA-READ the given (start, count) chunk runs from the neighbor
        behind *qp*; returns the number of newly recovered chunks."""
        expected = 0
        for start, count in runs:
            offset = start * op.plan.chunk_size
            length = min(count * op.plan.chunk_size,
                         op.plan.buffer_len - offset)
            qp.post_send(
                SendWR(
                    wr_id=start, verb="read", mr_key=op.mr.key,
                    offset=offset, length=length,
                    remote_key=op.mr.key, remote_offset=offset,
                )
            )
            expected += 1
        while expected > 0:
            # READ responses ride RC, but a dead link (flap with
            # protect_reliable=False) would strand us — bound the wait.
            remaining = max(deadline_abs - self.sim.now, 1e-9)
            yield AnyOf(self.sim, [qp.send_cq.wait(), Timeout(self.sim, remaining)])
            done = len(qp.send_cq.poll())
            if done == 0:
                self._check_recovery_deadline(op, deadline_abs)
            expected -= done
        got = 0
        for start, count in runs:
            got += op.bitmap.set_range(start, count)
            op.placed.set_range(start, count)
        op.stats["recovered_chunks"] += got
        return got

    def _fetch_server(self):
        """Answer FETCH_REQs: acknowledge the rendezvous immediately — the
        requester then pulls whatever chunks are placed, re-polling as our
        own receive/recovery paths fill the buffer."""
        _, msg = self.ctrl._inbox(MSG_FETCH_REQ, 0, None)[1].try_get()  # the one that woke us
        while True:
            self.ctrl.send(msg.src, MSG_FETCH_ACK, msg.key)
            msg = yield self.ctrl.recv(MSG_FETCH_REQ)

    # ------------------------------------------------------------- liveness

    def _on_death_notice(self, msg) -> None:
        """Reliable MSG_DEATH notice from a peer that confirmed a death.
        RC delivery makes membership agreement trivial: every survivor
        eventually holds the same (monotonically growing) dead set."""
        rank = msg.key
        if rank in self.confirmed_dead:
            return
        self.confirmed_dead.add(rank)
        if self.trace is not None:
            self.trace.instant("liveness.confirm", self.sim.now,
                               {"rank": rank, "via": "notice", "src": msg.src})
        self.comm.note_death(rank)

    def _suspicion_timeout(self) -> float:
        """No-progress suspicion timer: the ``SUSPICION_TIMEOUT`` floor,
        widened by the adaptive cutoff estimator so a congested-but-healthy
        fabric that legitimately slows delivery also slows suspicion.  The
        floor must exceed the fabric's SM reroute delay (2 ms clears the
        1 ms sweep), so a switch-down blackout window cannot confirm a live
        peer dead."""
        return max(SUSPICION_TIMEOUT, 4.0 * self.cutoff.slack())

    def _probe(self, peer: int):
        """PING *peer* until it answers or the retry budget is exhausted.
        Returns True when the peer is (now) confirmed dead."""
        if peer in self.confirmed_dead:
            return True
        peer_host = self.comm.host_of(peer)
        wait = max(LIVENESS_PROBE_TIMEOUT,
                   4.0 * self.fabric.one_way_delay(self.nic.host, peer_host))
        for _ in range(LIVENESS_PROBE_RETRIES):
            self._probe_nonce = (self._probe_nonce + 1) & 0xFFFF
            key = self._probe_nonce
            pong = self.ctrl.recv(MSG_PONG, key, peer)
            self.ctrl.send(peer, MSG_PING, key)
            yield AnyOf(self.sim, [pong, Timeout(self.sim, wait)])
            if pong.triggered:
                return False
            if peer in self.confirmed_dead:
                return True  # someone else confirmed while we probed
        self._confirm_death(peer)
        return True

    def _confirm_death(self, peer: int) -> None:
        """Local death confirmation: record it, tell every other survivor
        (reliable RC notices → agreement), update the communicator.

        An *isolated* rank — one whose own NIC or access links are down, so
        every peer looks dead from its side — keeps its confirmation local:
        its notices could never leave the host, and the communicator-level
        membership update is a simulation shortcut that a partitioned
        minority must not be allowed to abuse (it would "kill" the healthy
        majority).  The isolated rank still repairs locally (degrading to a
        sole-survivor completion); the majority independently confirms *it*
        dead and excludes its result."""
        if peer in self.confirmed_dead:
            return
        self.confirmed_dead.add(peer)
        if self.trace is not None:
            self.trace.instant("liveness.confirm", self.sim.now,
                               {"rank": peer, "via": "probe"})
        if self.fabric.host_isolated(self.nic.host):
            return
        for r in range(self.comm.size):
            if r in (self.rank, peer) or r in self.comm.dead_ranks:
                continue
            self.ctrl.send(r, MSG_DEATH, peer)
        self.comm.note_death(peer)

    def _dead_in(self, participants: List[int]) -> Set[int]:
        return self.confirmed_dead.intersection(participants)

    def _check_live(self, op: OpState, participants: List[int], phase: str) -> None:
        dead = self._dead_in(participants)
        if dead:
            raise PeerDeadError(
                f"peer(s) fail-stopped during {phase}",
                rank=self.rank, coll_id=op.coll_id, phase=phase, dead=dead,
            )

    def _recv_live(self, op: OpState, participants: List[int], mtype: int,
                   key: int, src: int, phase: str,
                   escalate_live: Optional[int] = None,
                   min_timeout: Optional[float] = None):
        """Liveness-bounded control receive: wait for the message, but
        convert silence into a typed :class:`PeerDeadError`.

        Any confirmed death among *participants* aborts the wait — not just
        *src*'s: a rank blocked on a live peer that itself detoured into
        repair would otherwise wait forever, so every membership change
        sends everyone to the (idempotent) repair path.  Silence from *src*
        past the suspicion timer is checked against the heartbeat
        piggyback (any control message counts) before spending probes.

        ``escalate_live`` bounds waits whose message can be lost forever
        without the sender dying — an activation or final-handshake packet
        black-holed by a switch that hard-crashed before the SM sweep
        rerouted (the RC retransmission that would redeliver it is not
        modeled).  After that many probes *answered alive*, the wait gives
        up and returns ``None``; the caller proceeds without the message.
        ``min_timeout`` floors the first suspicion period — activation
        legitimately takes up to a full collective to arrive, so its wait
        starts at the op's own cutoff bound rather than the generic timer.
        """
        ev = self.ctrl.recv(mtype, key, src)
        suspicion = self._suspicion_timeout()
        cap = 16.0 * suspicion
        wait = max(suspicion, min_timeout or 0.0)
        live_probes = 0
        while True:
            self._check_live(op, participants, phase)
            yield AnyOf(self.sim, [ev, Timeout(self.sim, wait)])
            if ev.triggered:
                return ev.value
            self._check_live(op, participants, phase)
            if self.trace is not None:
                self.trace.instant("liveness.suspect", self.sim.now,
                                   {"rank": src, "phase": phase})
            last = self.ctrl.last_heard.get(src)
            if last is not None and self.sim.now - last < suspicion:
                # Heard from it recently on another signature — it is slow,
                # not dead.  Widen and keep waiting without spending probes.
                suspicion = min(suspicion * 2.0, cap)
                wait = suspicion
                continue
            if (yield from self._probe(src)):
                raise PeerDeadError(
                    f"peer {src} fail-stopped during {phase}",
                    rank=self.rank, coll_id=op.coll_id, phase=phase,
                    dead=self._dead_in(participants) or {src},
                )
            live_probes += 1
            if escalate_live is not None and live_probes >= escalate_live:
                return None  # sender alive, message presumably lost
            suspicion = min(suspicion * 2.0, cap)
            wait = suspicion

    # ---------------------------------------------------------- op controller

    def run_op(
        self,
        op: OpState,
        participants: List[int],
        me: int,
        activation_pred: Optional[int] = None,
        activation_succ: Optional[int] = None,
    ):
        """The lifecycle of one collective on this rank (a process); *me*
        is this rank's position in *participants* (the communicator builds
        one rank→position map per collective instead of every rank
        searching the list).

        barrier → [wait activation] → multicast → [activate successor] →
        cutoff-timed wait → recovery* → final handshake.

        With a :class:`~repro.core.communicator.FailurePolicy` configured,
        every blocking wait is liveness-bounded: a confirmed peer death
        raises :class:`PeerDeadError` out of the inner lifecycle, and this
        wrapper either aborts the collective (``ABORT``) or repairs the
        membership and completes degraded among the survivors
        (``DEGRADE``).  With the default ``failure_policy=None`` the inner
        lifecycle runs verbatim — event-for-event identical to the
        pre-liveness engine.
        """
        policy = self.config.failure_policy
        if policy is None:
            yield from self._run_op_inner(
                op, participants, me, activation_pred, activation_succ, live=False
            )
            return op
        try:
            yield from self._run_op_inner(
                op, participants, me, activation_pred, activation_succ, live=True
            )
        except PeerDeadError as err:
            yield from self._repair_and_complete(
                op, participants, activation_succ, err
            )
        return op

    def cutoff_allowance(self, op: OpState) -> Tuple[float, float]:
        """The cutoff timer's arming bound (§III-C) as ``(expected, slack)``.

        ``expected`` is the collective's chain schedule from the arm
        (:mod:`repro.models.schedule`, computed once at launch); a
        Broadcast's is the paper's N/B.  ``slack`` is the adaptive α
        (core/reliability.py): starts at the static α, tightens toward
        SRTT + K·RTTVAR as clean ops accumulate, backs off after spurious
        recoveries; ``adaptive_cutoff=False`` is the paper's fixed α.  The
        fast-forward's deadline gates call this too, so they cannot drift
        from the timer they predict.
        """
        cfg = self.config
        slack = self.cutoff.slack() if cfg.adaptive_cutoff else cfg.cutoff_alpha
        return op.expected, slack

    def _arm(self, op: OpState, t: float) -> Tuple[float, float, float]:
        """Leave the barrier at *t* and arm the cutoff timer from there (its
        deadline published for :meth:`_plan_step` and the data fold):
        ``(expected, slack, deadline)``."""
        op.phases["sync"] = t
        expected, slack = self.cutoff_allowance(op)
        op.cutoff_deadline = deadline = t + expected + slack
        op.timer_trace.append((t, expected + slack, "cutoff-arm"))
        return expected, slack, deadline

    def _run_op_inner(
        self,
        op: OpState,
        participants: List[int],
        me: int,
        activation_pred: Optional[int],
        activation_succ: Optional[int],
        live: bool,
    ):
        cfg = self.config
        cf = self.comm.cf  # control-plane fold
        sim = self.sim
        trc = self.trace
        op.mark_phase("start")
        multi = len(participants) > 1
        t_sync = cf.at("sync", self, op, participants, me) if multi else None
        # A rank that only waits past a folded barrier is not woken at its
        # exit: the exit is stamped, and the first wait resumes it no
        # earlier, or is interrupted by an unfold before then.
        stamp = t_sync is not None and not (op.is_sender and activation_pred is None)
        resume = -1  # the round an unfolded barrier picks up at
        if t_sync is not None and not stamp:
            try:
                yield sim.wake_at(t_sync)
            except Interrupt as unfolded:  # ControlFold.unfold
                t_sync, resume = None, unfolded.cause
        if t_sync is None and multi:
            # Live: a token black-holed by a switch that died mid-barrier
            # is lost for good (no RC retransmission): with the peer probed
            # alive, go on; recovery heals chunks multicast too early.
            yield from self.ctrl.barrier(
                op.coll_id, participants, me,
                wait=(lambda key, src: self._recv_live(
                    op, participants, MSG_BARRIER, key, src, "sync",
                    escalate_live=3)) if live else None, resume=resume)
        armed_at = t_sync if stamp else sim.now
        expected, slack, deadline = self._arm(op, armed_at)
        first = None  # the stamped first wait: the activation, or the data
        if stamp:
            first = (self.ctrl.recv(MSG_ACTIVATE, op.coll_id, activation_pred)
                     if op.is_sender else AnyOf(sim, [op.data_done, sim.wake_at(
                         armed_at + max(deadline - armed_at, 1e-9))]))
            try:
                if not first.triggered:
                    yield first
                if sim.now < t_sync:
                    yield sim.wake_at(t_sync)
            except Interrupt as unfolded:  # before the exit: unstamp it
                del op.phases["sync"]
                op.timer_trace.pop()
                op.cutoff_deadline = _INF
                yield from self.ctrl.barrier(op.coll_id, participants, me,
                                             resume=unfolded.cause)
                armed_at = sim.now
                expected, slack, deadline = self._arm(op, armed_at)
                first = first if op.is_sender else None
        if trc is not None:
            trc.instant("reliability.arm", armed_at,
                        {"timeout": expected + slack})
        if op.is_sender and multi:
            if activation_pred is not None:
                if live:
                    # Floor the suspicion at the op's own cutoff bound —
                    # activation legitimately takes up to a full collective
                    # to arrive.  Escalation (None) means the predecessor is
                    # alive but the packet was black-holed (e.g. a switch
                    # died before the SM sweep): proceed and multicast
                    # anyway, exactly like the repair path's chain splice.
                    yield from self._recv_live(
                        op, participants, MSG_ACTIVATE,
                        op.coll_id, activation_pred, "activation",
                        escalate_live=2,
                        min_timeout=max(deadline - sim.now, 0.0),
                    )
                elif first is None or not first.triggered:
                    yield first or self.ctrl.recv(MSG_ACTIVATE, op.coll_id,
                                                  activation_pred)
            # Flow-level fast-forward: when the whole multicast phase is
            # provably fault-inert, fold it analytically (sender batching,
            # tree busy chains, receiver datapaths) and jump straight to
            # the send-done instant.  Any gate failure falls back to the
            # packet-level path below with no state committed.
            ff_done = self.comm.ff.try_advance(self, op, participants)
            if ff_done is None:
                yield from self.run_send(op)
            else:
                # The fold holds the send path until the instant its
                # run_send would have returned.
                if ff_done > sim.now:
                    yield sim.wake_at(ff_done)
                self._send_lock.release()
            op.mark_phase("send_done")
            if activation_succ is not None:
                if trc is not None:
                    trc.instant("seq.activate", sim.now,
                                {"succ": activation_succ})
                if not cf.activate(self, op, participants, me):
                    self.ctrl.send(activation_succ, MSG_ACTIVATE, op.coll_id)
                op.mark_phase("activated")
        recovery_deadline_abs: Optional[float] = None
        # (a receiver's stamped first wait may have ended at its cutoff)
        waited = first is not None and not op.is_sender
        while not op.data_done.triggered:
            if live:
                self._check_live(op, participants, "data")
            if not waited:
                remaining = max(deadline - sim.now, 1e-9)
                yield AnyOf(sim, [op.data_done, Timeout(sim, remaining)])
                if op.data_done.triggered:
                    break
            waited = False
            if live:
                self._check_live(op, participants, "data")
            if trc is not None:
                trc.instant("reliability.fire", sim.now)
            if recovery_deadline_abs is None:
                op.mark_phase("recovery")
                recovery_deadline_abs = sim.now + cfg.recovery_deadline
            yield from self.run_recovery(
                op, participants, me, recovery_deadline_abs,
                monitor=participants if live else None,
            )
            deadline = sim.now + RECOVERY_ALPHA
            op.cutoff_deadline = deadline
        if cfg.adaptive_cutoff:
            if op.stats["recoveries"]:
                self.cutoff.on_recovery()
            else:
                # Karn's rule: only clean ops contribute slack samples.
                self.cutoff.observe((sim.now - armed_at) - expected)
        op.mark_phase("data")
        t_final = cf.at("final", self, op, participants, me) if multi else None
        sent = t_final is not None  # the fold has sent our MSG_FINAL
        if sent and t_final > sim.now:
            # op_done fires at the folded handshake's end and resumes this
            # rank in the same event — unless an unfold took the phase back.
            due = [op.op_done]
            sim.post_at(t_final, lambda: due and not due[0].triggered
                        and due[0].succeed_now())
            try:
                yield op.op_done
            except Interrupt:  # ControlFold.unfold: await the real token
                due.clear()
                t_final = None
        if t_final is None and multi:
            right = participants[(me + 1) % len(participants)]
            if not sent:
                self.ctrl.send(participants[(me - 1) % len(participants)],
                               MSG_FINAL, op.coll_id)
            if live:
                # Escalation here means the right neighbour is alive but its
                # MSG_FINAL was lost on a crashed element before reroute —
                # its data phase is done (it reached the final ring), so
                # completing without the token is safe.
                yield from self._recv_live(op, participants, MSG_FINAL,
                                           op.coll_id, right, "final",
                                           escalate_live=2)
            else:
                yield self.ctrl.recv(MSG_FINAL, op.coll_id, right)
        op.mark_phase("final")
        if trc is not None:
            # Per-phase spans (Fig 10 critical-path attribution), emitted
            # once the whole lifecycle is known so each span is closed.
            ph = op.phases
            t_start, t_sync = ph["start"], ph["sync"]
            t_data, t_final = ph["data"], ph["final"]
            trc.complete("phase.sync", t_start, t_sync - t_start)
            trc.complete("phase.multicast", t_sync, t_data - t_sync)
            trc.complete("phase.handshake", t_data, t_final - t_data)
        if not op.op_done.triggered:  # a death notice may have abandoned us
            op.op_done.succeed()
        return op

    # ------------------------------------------------------ fail-stop repair

    def _repair_and_complete(self, op: OpState, participants: List[int],
                             activation_succ: Optional[int], err: PeerDeadError):
        """Degraded-mode completion after a confirmed fail-stop.

        Loops until the dead set stops growing mid-repair: re-plans the
        topology, splices this rank into the broadcast chain if its
        activation never arrived, completes the data phase among the
        survivors (unrecoverable chunks voided with validity-mask
        bookkeeping), and finishes **without** a survivor barrier or final
        ring — peers that already completed the healthy lifecycle cannot
        participate in either, and agreement is already carried by the
        reliable MSG_DEATH notices.
        """
        cfg = self.config
        trc = self.trace
        if trc is not None:
            trc.instant("repair.replan", self.sim.now,
                        {"coll_id": op.coll_id, "phase": err.phase,
                         "dead": sorted(err.dead)})
        while True:
            if op.aborted:
                # A death notice voided this op from under us (e.g. a
                # partitioned rank the survivors agreed is dead) — nothing
                # left to repair.
                return op
            dead = set(self._dead_in(participants))
            survivors = [p for p in participants if p not in dead]
            if cfg.failure_policy == "abort":
                op.abandon()
                raise CollectiveAbortedError(
                    f"collective aborted on rank {self.rank}: peer(s) "
                    f"{sorted(dead)} fail-stopped",
                    rank=self.rank, coll_id=op.coll_id, kind=op.kind,
                    phase=err.phase, dead_ranks=dead,
                    missing_chunks=op.missing_chunks, n_chunks=op.n_chunks,
                )
            self.comm.repair_topology()
            try:
                if (op.is_sender and "send_done" not in op.phases
                        and len(survivors) > 1):
                    # Chain splice: our activation never arrived (the chain
                    # broke at the dead rank) — multicast now, over the
                    # repaired tree.
                    yield from self.run_send(op)
                    op.mark_phase("send_done")
                if (activation_succ is not None
                        and "activated" not in op.phases
                        and activation_succ in survivors):
                    # Keep the chain moving: our successor is still waiting
                    # on the activation we never got around to sending.
                    self.ctrl.send(activation_succ, MSG_ACTIVATE, op.coll_id)
                    op.mark_phase("activated")
                yield from self._degraded_fetch(op, survivors, dead)
                break
            except PeerDeadError as err2:
                err = err2  # the dead set grew mid-repair; replan
                continue
        op.dead_ranks |= dead
        if "sync" not in op.phases:
            op.mark_phase("sync")
        if "data" not in op.phases:
            op.mark_phase("data")
        op.mark_phase("final")
        if not op.op_done.triggered:  # a death notice may have abandoned us
            op.op_done.succeed()
        return op

    def _degraded_fetch(self, op: OpState, survivors: List[int], dead: Set[int]):
        """Finish the data phase among *survivors*: void chunks whose only
        source died, then pull everything else through the normal fetch
        ring restricted to the survivors."""
        cfg = self.config
        self._void_unrecoverable(op, survivors, dead)
        op.maybe_complete()
        if len(survivors) < 2 and not op.data_done.triggered:
            # Sole survivor: nothing left to fetch from — whatever is still
            # missing died with its only sources.
            for start, count in op.bitmap.missing_runs():
                op.mark_void(start, count)
            op.maybe_complete()
            return
        deadline_abs = self.sim.now + cfg.recovery_deadline
        me = survivors.index(self.rank)
        while not op.data_done.triggered:
            yield from self.run_recovery(op, survivors, me, deadline_abs,
                                         monitor=survivors)
            # New chunks may have propagated to (or died with) peers since
            # the last sweep; re-derive what is permanently gone.
            self._void_unrecoverable(op, survivors, dead)
            op.maybe_complete()

    def _void_unrecoverable(self, op: OpState, survivors: List[int],
                            dead: Set[int]) -> None:
        """Void every missing chunk that (a) was a dead rank's to multicast
        and (b) no survivor holds placed — its last copy died with the
        host.  Chunks outside dead send ranges are never voided: their
        (surviving) owner will still multicast or serve them."""
        dead_ranges = []
        for d in sorted(dead):
            peer_op = self.comm.engines[d].ops.get(op.coll_id)
            if peer_op is not None and peer_op.send_hi > peer_op.send_lo:
                dead_ranges.append((peer_op.send_lo, peer_op.send_hi))
        if not dead_ranges:
            return
        surv_ops = []
        for s in survivors:
            if s != self.rank:
                o = self.comm.engines[s].ops.get(op.coll_id)
                if o is not None:
                    surv_ops.append(o)
        voided = 0
        for start, count in op.bitmap.missing_runs():
            for lo, hi in dead_ranges:
                s, e = max(start, lo), min(start + count, hi)
                run_lo = None
                for p in range(s, e):
                    if any(o.placed.test(p) for o in surv_ops):
                        if run_lo is not None:
                            op.mark_void(run_lo, p - run_lo)
                            voided += p - run_lo
                            run_lo = None
                    elif run_lo is None:
                        run_lo = p
                if run_lo is not None:
                    op.mark_void(run_lo, e - run_lo)
                    voided += e - run_lo
        if voided and self.trace is not None:
            self.trace.instant("repair.void", self.sim.now,
                               {"coll_id": op.coll_id, "chunks": voided})
