"""The per-rank collective progress engine (paper §IV-B/C, §V-A).

One :class:`RankEngine` is the software stack of one participant:

* per-subgroup multicast QPs (UD or UC) with staging rings (UD),
* **receive workers** — one process per subgroup, each draining that
  subgroup's CQ: decode immediate → (collective, PSN), update the bitmap,
  issue the staging→user DMA copy, re-post the receive (flow-direction
  and packet parallelism),
* a **send worker** path — the multicast scheduler: batched WQE posting
  with doorbell moderation, one subgroup QP per doorbell, round-robin,
  and bounded outstanding batches,
* the **control plane** (RC): RNR barrier, chain activation, fetch
  ring, final handshake,
* the **op controller** — one process per collective: barrier → (optional)
  multicast send → cutoff-timed wait for data → recovery if needed →
  final handshake, and its fail-stop repair.

It derives the slow path — the cutoff's arming, recovery's fetch rounds,
the fetch server, liveness — from :class:`~repro.core.reliability.SlowPath`.

Everything charges virtual time through :class:`HostCostModel`, so a
single engine parameterization covers both the "fast CPU, cheap ops" and
"starved CPU" regimes the paper studies.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.core.chunking import ImmLayout
from repro.core.control import MSG_ACTIVATE, MSG_BARRIER, MSG_FINAL, ControlPlane
from repro.core.costmodel import HostCostModel
from repro.core.ops import OpState
from repro.core.reliability import CollectiveAbortedError, PeerDeadError, SlowPath
from repro.core.staging import StagingRing
from repro.net.dma import DmaEngine
from repro.net.nic import RecvWR, SendWR, Transport
from repro.sim.events import PASSIVE_WAIT, AnyOf, Interrupt, Timeout
from repro.sim.primitives import Resource

_INF = float("inf")

#: send batches a root may have posted and not yet seen complete
#: (§V-A).  The bound keeps each datagram's post instant, where the
#: channel decides its drops, flaps and bandwidth windows, close to its
#: wire instant.
MAX_OUTSTANDING_BATCHES = 4

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



class RankEngine(SlowPath):
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
            slab_tables=comm.ctrl_slab_tables,
        )

        cfg = self.config
        uc = cfg.transport == "uc"
        self.send_cq = self.nic.create_cq(f"send-r{rank}")
        self.sub_qps = []
        self.stagings: List[Optional[StagingRing]] = []
        # UC: the NIC places data and a receive only consumes an immediate,
        # so every slot of every subgroup QP is one zero-length WR (§V-A
        # cached re-post), validated here and posted ``staging_slots`` times.
        # UD: each subgroup's ring posts the communicator's shared table.
        self._uc_wr: Optional[RecvWR] = None
        if uc:
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
                ring = StagingRing(nic_sg, comm.recv_tables[sg])
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
        super().__init__()  # the fetch server, the cutoff, liveness
        self._send_lock = Resource(self.sim, 1)
        self._shutdown = False

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
                        if op.subgroups.is_tail(psn):
                            self._tail_in(op)
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
                if op.subgroups.is_tail(psn):
                    self._tail_in(op)
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

    def _tail_in(self, op: OpState) -> None:
        """A receive worker set the bit of one of *op*'s tails; at the last
        one, fire the trigger (:meth:`fire_tail`)."""
        op.tails_left -= 1
        if not op.tails_left:
            self.fire_tail(op)

    def fire_tail(self, op: OpState) -> None:
        """Every tail of *op* is in: over FIFO channels a chunk still
        missing now is lost, so recovery may start at once instead of at
        the cutoff — unless a recovery is under way, the fault state
        changed since launch, or a tree channel reorders (``op.tail_epoch``
        is then None).  Called by the receive worker and, for a folded
        phase, at the instant its worker would have set the last tail's
        bit (``sim/fastforward.py``)."""
        if (op.missing_chunks and not op.tail.triggered
                and not op.stats["recoveries"]
                and op.tail_epoch == self.fabric.fault_epoch):
            op.tail.succeed(self.sim.now)
            op.recovery_at = min(op.recovery_at, self.sim.now)

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
        registered collective (one may register meanwhile), or a recovery
        may start and set a bit the step expects to set — the cutoff fires,
        or the trigger has fired or fires at a tail the step sets: then the
        step's end is unknown."""
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
            if op.subgroups.is_tail(psn) and self._fires(op, new):
                break  # the trigger fires inside the step
            if uc:
                t = t + cost.recv_repost
            else:
                t = t + (cost.copy_issue + cost.recv_repost)
                copies.append((t, op.plan.bounds(psn)[1]))
        else:
            if not any(op.stats["recoveries"] or op.recovery_at <= t
                       for op, _ in new) \
                    and self.fabric.straggler_inert(self.nic.host, now, t):
                step.free = t
                return
        new.clear()
        copies.clear()

    @staticmethod
    def _fires(op: OpState, new) -> bool:
        """Whether the tail of *op* that *new* ends with is its last, with
        chunks still missing after the step's: the trigger fires then."""
        mine = [psn for o, psn in new if o is op]
        tails = sum(map(op.subgroups.is_tail, mine))
        return tails == op.tails_left and op.missing_chunks > len(mine)

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
        """Multicast root datapath (§III-A, §IV-C): zero-copy fragmentation,
        batched posting, doorbell moderation, bounded outstanding batches.
        A batch is a run of at most ``batch_size`` PSNs of one subgroup's
        block, posted with one doorbell on that subgroup's QP; batches visit
        the subgroups round-robin, so every subgroup (and rail) is fed at
        once."""
        cost = self.cost
        uc = self.config.transport == "uc"
        key = op.mr.key
        cid = op.coll_id % self.imm.max_collectives
        sub, bs = op.subgroups, self.config.batch_size
        lanes = [range(op.send_lo + lo, op.send_lo + hi)
                 for lo, hi in map(sub.chunk_range, range(sub.n_subgroups))]
        # Every subgroup's i-th batch, then its (i+1)-th: the sort is
        # stable, so the subgroups keep their order within a round.
        batches = sorted(((i, sg, lane[i : i + bs]) for sg, lane in enumerate(lanes)
                          for i in range(0, len(lane), bs)), key=lambda b: b[0])
        trc = self.trace
        yield self._send_lock.acquire()
        try:
            outstanding = 0
            for _, sg, batch in batches:
                yield Timeout(self.sim, cost.send_batch(len(batch)))
                qp, gid = self.sub_qps[sg], self.comm.mcast_gids[sg]
                items = []
                for psn in batch:
                    off, ln = op.plan.bounds(psn)
                    wr = SendWR(
                        wr_id=psn, verb="write" if uc else "send", mr_key=key,
                        offset=off, length=ln, imm=self.imm.encode(psn, cid),
                        mcast_gid=gid, remote_key=key if uc else None,
                        remote_offset=off if uc else 0, signaled=psn == batch[-1],
                    )
                    items.append((qp, wr))
                # One doorbell on one QP (its cost is the send_batch Timeout
                # above), through the NIC of that QP's rail.
                qp.nic.post_send_batch(items)
                outstanding += 1
                if trc is not None:
                    trc.counter("nic.outstanding", self.sim.now, outstanding)
                while outstanding >= MAX_OUTSTANDING_BATCHES:
                    yield self.send_cq.wait()
                    outstanding -= len(self.send_cq.poll())
                    if trc is not None:
                        trc.counter("nic.outstanding", self.sim.now, outstanding)
            while outstanding > 0:
                yield self.send_cq.wait()
                outstanding -= len(self.send_cq.poll())
                if trc is not None:
                    trc.counter("nic.outstanding", self.sim.now, outstanding)
        finally:
            self._send_lock.release()

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
            except Interrupt as unfolded:  # ControlFold.preempt
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
                     if op.is_sender else AnyOf(sim, [op.data_done, op.tail, sim.wake_at(
                         armed_at + max(deadline - armed_at, 1e-9))]))
            try:
                if not first.triggered:
                    yield first
                if sim.now < t_sync:
                    yield sim.wake_at(t_sync)
            except Interrupt as unfolded:  # before the exit: unstamp it
                del op.phases["sync"]
                op.recovery_at = op.tail_at
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
        # Wait for the data, the tail trigger or the cutoff (a receiver's
        # stamped first wait may have ended at either already), then one
        # recovery that completes or raises.
        if not (op.data_done.triggered or op.tail.triggered) and (
                first is None or op.is_sender):
            if live:
                self._check_live(op, participants, "data")
            yield AnyOf(sim, [op.data_done, op.tail,
                              Timeout(sim, max(deadline - sim.now, 1e-9))])
        landed = op.stats["chunks_received"]
        if not op.data_done.triggered:
            if live:
                self._check_live(op, participants, "data")
            op.mark_phase("recovery")
            if trc is not None:
                trc.instant("reliability.fire", sim.now, {"by": op.trigger})
            yield from self.run_recovery(
                op, participants, me, sim.now + cfg.recovery_deadline,
                monitor=participants if live else None,
            )
        if cfg.adaptive_cutoff:
            if op.stats["chunks_received"] > landed:
                # Multicast chunks came in during the recovery: the cutoff
                # fired early.  (A loss alone says nothing about it.)
                self.cutoff.on_recovery()
            elif not op.stats["recoveries"]:
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
            except Interrupt:  # ControlFold.preempt: await the real token
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
        source died, then pull everything else through the normal
        recovery (:meth:`run_recovery`) restricted to the survivors."""
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
        if not op.data_done.triggered:
            yield from self.run_recovery(
                op, survivors, survivors.index(self.rank),
                self.sim.now + cfg.recovery_deadline, monitor=survivors)

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
