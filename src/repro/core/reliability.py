"""The slow path (paper §III-C): the cutoff timer, recovery and liveness.

The paper's cutoff timer is ``N/B + α`` with a *fixed* slack α.  A
receiver whose last expected chunk of every sender block has arrived
starts recovery without it (the tail trigger, ``RankEngine.fire_tail``;
DESIGN.md §7), so the cutoff is the backstop for a lost tail or a
reordering fabric.  There a fixed slack is wrong in both directions: on
a healthy fabric it waits far longer than delivery takes, and on a slow
one it fires before delivery is done.  This module provides:

* :class:`CutoffEstimator` — a TCP-RTO-style adaptive slack: an EWMA of
  the observed slack (data-phase duration minus the expected time) plus
  a weighted mean-deviation term (RFC 6298's SRTT/RTTVAR).  Karn's rule
  applies: ops that entered recovery give no sample.  A recovery backs
  the timer off only when multicast data still landed during it (it
  fired early; a loss alone says nothing about it), and clean ops decay
  the backoff again.
* :class:`SlowPath` — the cutoff's arming, the fetch rounds over the
  per-switch tree and round the ring, the fetch server, and the liveness
  layer's probes and death notices; ``RankEngine`` derives from it.
* :class:`ReliabilityError` — the typed, diagnostic-rich failure raised
  when an op's recovery deadline expires; the alternative is a silent
  simulation hang.

The constants below are the slow path's and the liveness layer's fixed
policy; only the starting slack (``CollectiveConfig.cutoff_alpha``), the
adaptive switch, the recovery deadline and the failure policy are
configurable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.control import (FETCH_PASS, FETCH_WAKE, FETCH_WAKE_RECOVERING, MSG_DEATH,
                                MSG_FETCH_ACK, MSG_FETCH_READY, MSG_FETCH_REQ, MSG_PING,
                                MSG_PONG)
from repro.core.ops import OpState
from repro.net.nic import SendWR
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.primitives import Resource

__all__ = [
    "ReliabilityError",
    "PeerDeadError",
    "CollectiveAbortedError",
    "CutoffEstimator",
    "SlowPath",
]

#: clamp range of the adaptive cutoff slack
CUTOFF_ALPHA_MIN = 20e-6
CUTOFF_ALPHA_MAX = 2e-3
#: EWMA gains and deviation weight of the estimator (RFC 6298's α/β/K)
CUTOFF_GAIN = 0.125
CUTOFF_VAR_GAIN = 0.25
CUTOFF_VAR_WEIGHT = 4.0
#: how long a requester waits for a peer's FETCH_ACK before treating it as
#: unresponsive and escalating round the ring; also the longest it parks on
#: a ring peer's FETCH_READY, and how long a requester parked on a delegate
#: waits between liveness probes of it
FETCH_ACK_TIMEOUT = 500e-6
#: one PING round-trip allowance before a probe retry (scaled up by the
#: fabric diameter at probe time), and the unanswered PINGs before a peer
#: is confirmed dead
LIVENESS_PROBE_TIMEOUT = 500e-6
LIVENESS_PROBE_RETRIES = 3
#: floor on the no-progress suspicion timer; the effective timer is
#: ``max(this, 4 × CutoffEstimator.slack())``.  It must exceed
#: ``Fabric.sm_reroute_delay`` so a switch-down blackout cannot confirm a
#: live peer dead.
SUSPICION_TIMEOUT = 2e-3


class ReliabilityError(RuntimeError):
    """An operation's recovery deadline expired.

    Carries the diagnostic counters a post-mortem needs; ``str()`` renders
    them so a failing simulation explains itself instead of hanging.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        coll_id: int,
        kind: str,
        missing_chunks: int,
        n_chunks: int,
        elapsed: float,
        deadline: float,
        counters: Optional[Dict[str, int]] = None,
        phase: str = "recovery",
        retry_histogram: Optional[List[int]] = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.coll_id = coll_id
        self.kind = kind
        self.missing_chunks = missing_chunks
        self.n_chunks = n_chunks
        self.elapsed = elapsed
        self.deadline = deadline
        self.counters = dict(counters or {})
        self.phase = phase
        #: fetch rounds spent per recovery invocation (op.retry_histogram)
        self.retry_histogram = list(retry_histogram or [])

    def __str__(self) -> str:
        base = super().__str__()
        diag = (
            f"rank={self.rank} coll_id={self.coll_id} kind={self.kind} "
            f"missing={self.missing_chunks}/{self.n_chunks} "
            f"elapsed={self.elapsed * 1e6:.1f}µs "
            f"deadline={self.deadline * 1e6:.1f}µs"
        )
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"{base} [{diag}{' ' + extra if extra else ''}]"


class PeerDeadError(RuntimeError):
    """The liveness layer confirmed one or more peers fail-stopped.

    Raised *inside* a rank's op controller when a blocking wait (barrier,
    activation, final handshake, fetch ACK) is resolved by death
    confirmation rather than by the expected message.  The controller
    catches it and either repairs (``FailurePolicy.DEGRADE``) or converts
    it into :class:`CollectiveAbortedError` (``FailurePolicy.ABORT``) —
    it never escapes a healthy run.
    """

    def __init__(self, message: str, *, rank: int, coll_id: int, phase: str, dead) -> None:
        super().__init__(message)
        self.rank = rank
        self.coll_id = coll_id
        self.phase = phase
        self.dead = frozenset(dead)

    def __str__(self) -> str:
        base = super().__str__()
        return (
            f"{base} [rank={self.rank} coll_id={self.coll_id} "
            f"phase={self.phase} dead={sorted(self.dead)}]"
        )


class CollectiveAbortedError(RuntimeError):
    """A collective was aborted because a participant fail-stopped and the
    communicator's :class:`~repro.core.communicator.FailurePolicy` is
    ``ABORT``.

    Unlike :class:`PeerDeadError` (an internal control-flow signal) this is
    the *user-facing* outcome: it names the dead ranks, the phase the
    survivor was in, and how much of the payload had landed.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        coll_id: int,
        kind: str,
        phase: str,
        dead_ranks,
        missing_chunks: int = 0,
        n_chunks: int = 0,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.coll_id = coll_id
        self.kind = kind
        self.phase = phase
        self.dead_ranks = tuple(sorted(dead_ranks))
        self.missing_chunks = missing_chunks
        self.n_chunks = n_chunks

    def __str__(self) -> str:
        base = super().__str__()
        return (
            f"{base} [rank={self.rank} coll_id={self.coll_id} kind={self.kind} "
            f"phase={self.phase} dead_ranks={list(self.dead_ranks)} "
            f"missing={self.missing_chunks}/{self.n_chunks}]"
        )


class CutoffEstimator:
    """Adaptive cutoff slack (RFC 6298 adapted to delivery slack).

    ``slack()`` is what the op controller adds to the expected time when
    arming the cutoff timer.  With no history it equals the configured
    static α, so the first collective behaves exactly like the paper's
    fixed-timer protocol; every clean completion then tightens it toward
    ``SRTT + K·RTTVAR`` (clamped to
    ``[CUTOFF_ALPHA_MIN, CUTOFF_ALPHA_MAX]``).
    """

    def __init__(self, alpha0: float) -> None:
        self.alpha0 = alpha0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.backoff = 1.0
        self.samples = 0
        self.spurious = 0

    def slack(self) -> float:
        if self.srtt is None:
            base = self.alpha0
        else:
            base = self.srtt + CUTOFF_VAR_WEIGHT * self.rttvar
        # Floor before backing off (TCP's min-RTO still doubles): a
        # fully-tightened timer must still widen after spurious firings.
        return min(max(base, CUTOFF_ALPHA_MIN) * self.backoff, CUTOFF_ALPHA_MAX)

    def observe(self, sample: float) -> None:
        """Feed one clean (recovery-free) op's slack sample."""
        sample = max(float(sample), 0.0)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar += CUTOFF_VAR_GAIN * (abs(self.srtt - sample) - self.rttvar)
            self.srtt += CUTOFF_GAIN * (sample - self.srtt)
        # A clean op halves any recovery backoff (slow-start style decay).
        self.backoff = max(1.0, self.backoff / 2.0)
        self.samples += 1

    def on_recovery(self) -> None:
        """Multicast data landed during an op's recovery — the timer fired
        early: back it off (Karn — no sample is taken, the elapsed time
        measured recovery, not delivery)."""
        self.backoff = min(self.backoff * 2.0, 64.0)
        self.spurious += 1


class SlowPath:
    """One rank's slow path (§III-C): the cutoff's arming, the recovery's
    fetch rounds and the fetch server, and the liveness layer.
    :class:`~repro.core.progress.RankEngine` derives from it, and these
    methods read its ``comm``, ``rank``, ``sim``, ``fabric``, ``config``,
    ``nic``, ``ctrl``, ``ops``, ``trace`` and ``_shutdown``."""

    def __init__(self) -> None:
        self._fetch_proc = self.sim.spawn(self._fetch_server(),
                                          name=f"fetchsrv-r{self.rank}", parked=True)
        self.ctrl._inbox(MSG_FETCH_REQ, 0, None)[1].notify = self._fetch_proc.wake
        # Serializes recoveries so read completions on the shared control
        # QP's send CQ are attributable to exactly one controller.
        self._recovery_lock = Resource(self.sim, 1)
        #: adaptive cutoff slack, persistent across this rank's collectives
        self.cutoff = CutoffEstimator(self.config.cutoff_alpha)
        self._fetch_nonce = 0

        # --- liveness layer (only active when config.failure_policy set) ---
        #: peers this rank knows to be dead (own probes or MSG_DEATH notices)
        self.confirmed_dead: Set[int] = set()
        #: fires at this rank's next death confirmation, then is replaced
        #: (:meth:`_add_dead`); liveness-bounded waits end on it
        #: (:meth:`_wait_live`)
        self._membership = Event(self.sim)
        self._probe_nonce = 0
        self.ctrl.on_death = self._on_death_notice

    # --------------------------------------------------------------- cutoff

    def cutoff_allowance(self, op: OpState) -> Tuple[float, float]:
        """The cutoff timer's arming bound (§III-C) as ``(expected, slack)``.

        ``expected`` is the collective's chain schedule from the arm
        (:mod:`repro.models.schedule`, computed once at launch); a
        Broadcast's is the paper's N/B.  ``slack`` is the adaptive α
        (:class:`CutoffEstimator`): starts at the static α, tightens toward
        SRTT + K·RTTVAR as clean ops accumulate, backs off after spurious
        recoveries (late data, not loss); ``adaptive_cutoff=False`` is the
        paper's fixed α.  The fast-forward's deadline gates call this too,
        so they cannot drift from the timer they predict.
        """
        cfg = self.config
        slack = self.cutoff.slack() if cfg.adaptive_cutoff else cfg.cutoff_alpha
        return op.expected, slack

    def _arm(self, op: OpState, t: float) -> Tuple[float, float, float]:
        """Leave the barrier at *t* and arm the cutoff timer from there (its
        deadline, or an earlier tail trigger, published as
        ``op.recovery_at`` for :meth:`_plan_step` and the data fold):
        ``(expected, slack, deadline)``."""
        op.phases["sync"] = t
        expected, slack = self.cutoff_allowance(op)
        deadline = t + expected + slack
        op.recovery_at = min(deadline, op.tail_at)
        op.armed_timeout = expected + slack
        return expected, slack, deadline
    # ------------------------------------------------------------- recovery

    def run_recovery(self, op: OpState, participants: List[int], me: int,
                     deadline_abs: float, monitor: Optional[List[int]] = None):
        """Slow path (§III-C), hardened: selective zero-copy fetch of
        missing chunks over a recovery tree that fans out inside each
        switch group, then round the ring.  Returns once ``data_done`` has
        fired, or raises.

        The fetch is **chunk-granular**: each round reads which of our
        missing chunks the peer has *placed* (its own may still be
        recovering) and RDMA-READs exactly those.  A whole-buffer ACK
        handshake would deadlock when every rank of an Allgather lost
        something.

        Every rank derives its peer without a message
        (:meth:`_tree_peer`): ranks are grouped by attachment switch; the
        lowest missing chunk's owner (a broadcast's root, an allgather
        chunk's source rank) heads its own group, and each other group's
        **delegate** — its first live rank of *participants* — heads that
        group and fetches from the owner.  The rest of a group fetch from
        one another in a binomial fan-out under the head, so a host link
        serves at most ⌈log₂ |group|⌉ of its group, and every read but a
        delegate's stays below the group's switch.  After a productive
        round the next goes straight to the next lowest missing chunk's
        peer.

        The paper's ring — the ring-left neighbour first, then farther
        left, one round each — is the fallback only: it finishes what the
        tree could not, when the tree's peer is dead, absent from
        *participants*, silent, or has nothing for us.  Degraded completion
        runs the same tree over the survivors.

        A round against a source known to be complete — a broadcast's
        root, or a peer whose ``MSG_FETCH_READY`` woke us — is one read of
        our holes: no FETCH_REQ/ACK with the root, no bitmap read after a
        wake.  Any other round is one rendezvous, a park if the peer is
        still short of chunks, a bitmap read and one read.  Nobody polls: a
        group peer or ring peer still short of chunks wakes us with
        ``MSG_FETCH_READY`` once it has them all (:meth:`_await_ready`).  A
        group peer's park lasts until the recovery deadline, a ring peer's
        ``FETCH_ACK_TIMEOUT`` at most.

        Hardening beyond the paper's description:

        * the FETCH_ACK rendezvous, and a read from the root, are
          timeout-bounded — an unresponsive peer costs
          ``FETCH_ACK_TIMEOUT``, not a hang;
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
        # token or INC pass may be served around it.
        self.comm.fabric.preempt_folds()
        trc = self.trace
        recovery_t0 = self.sim.now
        rounds = 0
        ring = [participants[(me - d) % len(participants)]
                for d in range(1, len(participants))]
        hop = -1  # ring rounds taken; -1 while the tree serves
        up = 0  # fan-out parents that passed us on since the last round
        yield self._recovery_lock.acquire()
        try:
            yield self.comm.recovery_turn(self.rank)
            while not op.data_done.triggered:
                if monitor is not None:
                    self._check_live(op, monitor, "data")
                self._check_recovery_deadline(op, deadline_abs)
                if op.missing_chunks == 0:
                    # every chunk tracked: the last staging copies are landing
                    yield AnyOf(self.sim, [op.data_done, Timeout(
                        self.sim, max(deadline_abs - self.sim.now, 1e-9))])
                    continue
                if hop < 0:
                    peer, via, wake = self._tree_peer(op, participants, up)
                    if peer in self.confirmed_dead or peer not in participants:
                        hop = 0
                if hop >= 0:
                    # Falling back counts as one escalation, and so does
                    # every further ring peer.
                    peer, via, wake = ring[hop % len(ring)], "ring", FETCH_WAKE
                    if hop == 0 or len(ring) > 1:
                        op.stats["neighbor_escalations"] += 1
                        if trc is not None:
                            trc.instant("reliability.escalate", self.sim.now,
                                        {"peer": peer})
                    hop += 1
                # The root has held every chunk since before the barrier.
                complete = peer == op.root
                if not complete:
                    ack = yield from self._rendezvous(
                        op, peer, deadline_abs, monitor, wake)
                    if ack is None:
                        hop = max(hop, 0)  # a silent tree peer: on round the ring
                        continue
                    if ack.args[0] == FETCH_PASS:
                        up += 1  # not recovering yet: ask its own parent
                        if trc is not None:
                            trc.instant("reliability.pass", self.sim.now,
                                        {"peer": peer})
                        continue
                    if ack.args[0]:
                        complete = yield from self._await_ready(
                            op, ack, deadline_abs, monitor, via)
                        if op.data_done.triggered:
                            continue  # our own op completed meanwhile
                got = yield from self._fetch_round(
                    op, peer, via, deadline_abs, monitor, complete)
                rounds += 1
                up = 0
                if got is None:
                    hop = max(hop, 0)  # nothing for us, or silent: likewise
        finally:
            self._recovery_lock.release()
            op.retry_histogram.append(rounds)
            if trc is not None:
                trc.complete("reliability.recover", recovery_t0,
                             self.sim.now - recovery_t0,
                             {"rounds": rounds})

    def _tree_peer(self, op: OpState, participants: List[int],
                   up: int = 0) -> Tuple[int, str, int]:
        """The peer this rank fetches its lowest missing chunk from, how it
        reaches it, and the FETCH_REQ flag it asks with.  The owner comes
        from the chunk plan: the root of a broadcast, else the rank whose
        send range holds the chunk.

        This rank's switch group is ordered with its head at position 0 —
        the owner when it is in the group, else the group's delegate, its
        first rank that is in *participants* and not confirmed dead — and
        its other such ranks after it in rank order.  The delegate reads
        the owner: ``(owner, "owner", 0)``.  In a group of *n* ranks where
        a binomial tree at least halves the reads on the head's link
        (⌈log₂ n⌉ ≤ (n − 1) / 2, so from seven ranks up), position *i*
        reads position ``i − 2^⌊log₂ i⌋`` (0 serves 1, 2, 4, 8, …; 1 serves
        3, 5, 9, …); in a smaller group every rank reads the head.  *up*
        climbs that many parents further towards the head (the parents
        asked before passed us on, :data:`FETCH_PASS`).  A read of the
        owner is ``"owner"``, any other ``"group"``; a non-head parent is
        asked with :data:`FETCH_WAKE_RECOVERING`, the head with
        :data:`FETCH_WAKE`, the owner with no flag."""
        owner = op.root
        if owner is None:
            owner = op.bitmap.missing_runs()[0][0] // op.own_chunks
        group = self.comm.switch_group(self.rank)
        dead = self.confirmed_dead
        order = [r for r in group if r != owner and r not in dead
                 and r in participants]
        if owner in group:
            order.insert(0, owner)
        i = order.index(self.rank)
        if i == 0:
            return owner, "owner", 0
        fan_out = 2 * (len(order) - 1).bit_length() <= len(order) - 1
        for _ in range(up + 1):
            i = i - (1 << (i.bit_length() - 1)) if fan_out else 0
            if i == 0:
                break
        peer = order[i]
        if peer == owner:
            return owner, "owner", 0
        return peer, "group", FETCH_WAKE_RECOVERING if i else FETCH_WAKE

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

    def _fetch_key(self, op: OpState) -> int:
        """A fresh rendezvous key: the collective and a nonce, so a late
        reply to an abandoned request can never satisfy a newer one."""
        self._fetch_nonce = (self._fetch_nonce + 1) & 0xFF
        return (op.coll_id << 8) | self._fetch_nonce

    def _rendezvous(self, op: OpState, peer: int, deadline_abs: float,
                    monitor: Optional[List[int]], wake: int):
        """FETCH_REQ → FETCH_ACK with *peer*, bounded by
        ``FETCH_ACK_TIMEOUT``: the ACK (a :class:`CtrlMessage`), or
        ``None`` when the op completed meanwhile or the peer stayed silent
        (:meth:`_silent`).  With a *wake* flag, the ACK's first argument
        says whether the peer is still short of chunks and will send
        ``MSG_FETCH_READY`` once it has them all, or passes us on
        (:meth:`_fetch_server`).
        """
        key = self._fetch_key(op)
        self.ctrl.send(peer, MSG_FETCH_REQ, key, (wake,) if wake else ())
        ack = self.ctrl.recv(MSG_FETCH_ACK, key, peer)
        wait = min(FETCH_ACK_TIMEOUT, max(deadline_abs - self.sim.now, 1e-9))
        yield from self._wait_live(op, [ack, op.data_done], wait, monitor)
        if op.data_done.triggered:
            return None
        if ack.triggered:
            return ack.value
        yield from self._silent(op, peer, deadline_abs, monitor)
        return None

    def _silent(self, op: OpState, peer: int, deadline_abs: float,
                monitor: Optional[List[int]]):
        """*peer* stayed silent for ``FETCH_ACK_TIMEOUT``: count it and,
        under a *monitor*, probe it (:class:`PeerDeadError` when it is
        dead) before the caller escalates."""
        op.stats["fetch_ack_timeouts"] += 1
        if self.trace is not None:
            self.trace.instant("reliability.timeout", self.sim.now,
                               {"peer": peer})
        if monitor is not None:
            # A silent fetch server is exactly what a fail-stopped host
            # looks like from the data phase — probe before escalating
            # so a dead peer is detected promptly, not only when some
            # rank blocks on it in a control-plane wait.
            yield from self._probe_fetch_peer(op, peer, monitor)
        self._check_recovery_deadline(op, deadline_abs)

    def _probe_fetch_peer(self, op: OpState, peer: int, monitor: List[int]):
        """Probe a fetch peer that stays silent; :class:`PeerDeadError`
        when it is dead."""
        if (yield from self._probe(peer)):
            raise PeerDeadError(
                f"peer {peer} fail-stopped during fetch",
                rank=self.rank, coll_id=op.coll_id, phase="data",
                dead=self._dead_in(monitor) or {peer},
            )

    def _fetch_round(self, op: OpState, peer: int, via: str, deadline_abs: float,
                     monitor: Optional[List[int]], complete: bool):
        """One fetch round against *peer*, reached *via* ``"owner"``,
        ``"group"`` or ``"ring"``: read its bitmap — unless it is
        *complete*, holding every chunk it will ever hold — then RDMA-READ
        our missing chunks it has placed.  Returns the chunks newly
        recovered, or ``None`` when it had none of ours or, with no
        rendezvous before (a broadcast's root), stayed silent
        (:meth:`_silent`)."""
        self._check_recovery_deadline(op, deadline_abs)
        op.stats["fetch_rounds"] += 1
        op.stats["fetch_via_" + via] += 1
        if self.trace is not None:
            self.trace.instant("reliability.fetch", self.sim.now,
                               {"peer": peer, "via": via})
        if not complete:
            # The peer's bitmap: one small RDMA read (RTT + bitmap bytes on
            # the wire).
            rtt = 2 * self.fabric.one_way_delay(self.nic.host, self.comm.host_of(peer))
            bitmap_bytes = max(op.n_chunks // 8, 8)
            yield Timeout(self.sim, rtt + bitmap_bytes / self.fabric.link_bandwidth)
        runs = self._fetchable_runs(op, self.comm.engines[peer].ops.get(op.coll_id))
        if not runs:
            return None
        until = deadline_abs
        if peer == op.root:
            # No ACK showed the root alive: its read responses must start
            # within FETCH_ACK_TIMEOUT of their own serialisation time.
            size = sum(count for _, count in runs) * op.plan.chunk_size
            until = min(until, self.sim.now + FETCH_ACK_TIMEOUT
                        + size / self.fabric.link_bandwidth)
        qp = self.comm.ensure_ctrl_pair(self.rank, peer)
        got, done = yield from self._fetch_runs(op, qp, runs, until)
        if done or got:
            op.maybe_complete()
        if not done:
            self._check_recovery_deadline(op, deadline_abs)
            yield from self._silent(op, peer, deadline_abs, monitor)
            return None
        return got

    def _await_ready(self, op: OpState, ack, deadline_abs: float,
                     monitor: Optional[List[int]], via: str):
        """Park until the peer that sent *ack*, reached *via* ``"group"``
        or ``"ring"``, has all its chunks: its ``MSG_FETCH_READY`` under
        the ACK's key.  Returns whether it woke us; the park also ends
        when our own op completes, or after at most ``FETCH_ACK_TIMEOUT``
        on a ring peer (we read what it has).  A group peer's park is
        bounded only by the recovery deadline, where it raises; under a
        *monitor* a death among it ends the wait at once, and the peer is
        probed after every ``FETCH_ACK_TIMEOUT`` of silence
        (:class:`PeerDeadError` either way)."""
        peer = ack.src
        ring = via == "ring"
        ready = self.ctrl.recv(MSG_FETCH_READY, ack.key, peer)
        t0 = self.sim.now
        while True:
            wait = max(deadline_abs - self.sim.now, 1e-9)
            if monitor is not None or ring:
                wait = min(wait, FETCH_ACK_TIMEOUT)
            yield from self._wait_live(op, [ready, op.data_done], wait, monitor)
            if ready.triggered or op.data_done.triggered:
                break
            self._check_recovery_deadline(op, deadline_abs)
            if ring:
                break
            if monitor is not None:
                yield from self._probe_fetch_peer(op, peer, monitor)
        if ready.triggered and self.trace is not None:
            self.trace.instant("reliability.wake", self.sim.now,
                               {"peer": peer, "via": via,
                                "waited": self.sim.now - t0})
        return ready.triggered

    @staticmethod
    def _fetchable_runs(op: OpState, peer_op: Optional[OpState]):
        """Our missing chunks the peer has placed, as contiguous runs."""
        if peer_op is None:
            return []
        return op.bitmap.missing_runs(among=peer_op.placed)

    def _fetch_runs(self, op: OpState, qp, runs, until: float):
        """RDMA-READ the given (start, count) chunk runs from the peer
        behind *qp*, waiting until *until* at most: the number of newly
        recovered chunks, and whether every read completed.  Each read is
        tagged with a fresh nonce, so a late completion of an abandoned
        read never counts for a newer one."""
        self._fetch_nonce = tag = (self._fetch_nonce + 1) & 0xFF
        pending = {}
        for start, count in runs:
            offset = start * op.plan.chunk_size
            length = min(count * op.plan.chunk_size,
                         op.plan.buffer_len - offset)
            wr_id = (tag << 32) | start
            qp.post_send(
                SendWR(
                    wr_id=wr_id, verb="read", mr_key=op.mr.key,
                    offset=offset, length=length,
                    remote_key=op.mr.key, remote_offset=offset,
                )
            )
            pending[wr_id] = (start, count)
        done = []
        while pending and self.sim.now < until:
            # READ responses ride RC, but a dead link (flap with
            # protect_reliable=False) would strand us — bound the wait.
            yield AnyOf(self.sim, [qp.send_cq.wait(),
                                   Timeout(self.sim, until - self.sim.now)])
            for cqe in qp.send_cq.poll():
                run = pending.pop(cqe.wr_id, None)
                if run is not None:
                    done.append(run)
        got = 0
        for start, count in done:
            got += op.bitmap.set_range(start, count)
            op.placed.set_range(start, count)
        op.stats["recovered_chunks"] += got
        return got, not pending

    def _fetch_server(self):
        """Answer FETCH_REQs at once with a FETCH_ACK — the requester then
        pulls whatever chunks are placed.  A request flagged ``FETCH_WAKE``
        while our data phase is still short of chunks is remembered
        instead: the ACK says so (argument 1), and ``MSG_FETCH_READY``
        wakes the requester when the phase completes.  One flagged
        ``FETCH_WAKE_RECOVERING`` is remembered only once we have started
        recovering; before that the ACK passes it on (``FETCH_PASS``), as
        our data phase may yet wait for its cutoff.  A wake-up is sent last
        in its instant (:meth:`Simulator.post_last`), after the control
        messages of every rank whose data phase completed there, however
        the folds order those completions."""
        _, msg = self.ctrl._inbox(MSG_FETCH_REQ, 0, None)[1].try_get()  # the one that woke us
        while True:
            pending = 0
            op = self.ops.get(msg.key >> 8) if msg.args[0] else None
            if op is not None and not op.data_done.triggered:
                if msg.args[0] == FETCH_WAKE_RECOVERING and not op.stats["recoveries"]:
                    pending = FETCH_PASS
                else:
                    pending = 1
                    op.data_done.subscribe(
                        lambda _ev, msg=msg: self.sim.post_last(self._send_ready, msg))
            self.ctrl.send(msg.src, MSG_FETCH_ACK, msg.key, (pending,))
            msg = yield self.ctrl.recv(MSG_FETCH_REQ)

    def _send_ready(self, msg) -> None:
        if not self._shutdown:
            self.ctrl.send(msg.src, MSG_FETCH_READY, msg.key)

    # ------------------------------------------------------------- liveness

    def _on_death_notice(self, msg) -> None:
        """Reliable MSG_DEATH notice from a peer that confirmed a death.
        RC delivery makes membership agreement trivial: every survivor
        eventually holds the same (monotonically growing) dead set."""
        rank = msg.key
        if rank in self.confirmed_dead:
            return
        self._add_dead(rank)
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
        self._add_dead(peer)
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

    def _add_dead(self, rank: int) -> None:
        self.confirmed_dead.add(rank)
        changed, self._membership = self._membership, Event(self.sim)
        changed.succeed()

    def _dead_in(self, participants: List[int]) -> Set[int]:
        return self.confirmed_dead.intersection(participants)

    def _check_live(self, op: OpState, participants: List[int], phase: str) -> None:
        dead = self._dead_in(participants)
        if dead:
            raise PeerDeadError(
                f"peer(s) fail-stopped during {phase}",
                rank=self.rank, coll_id=op.coll_id, phase=phase, dead=dead,
            )

    def _wait_live(self, op: OpState, events: List[Event], wait: float,
                   monitor: Optional[List[int]], phase: str = "data"):
        """Wait for the first of *events*, at most *wait* seconds.  Under a
        *monitor*, a death confirmation among those ranks ends the wait at
        once (:class:`PeerDeadError`); one outside them waits on for the
        time left."""
        if monitor is None:
            yield AnyOf(self.sim, events + [Timeout(self.sim, wait)])
            return
        until = self.sim.now + wait
        while True:
            changed = self._membership
            cond = AnyOf(self.sim, events + [Timeout(self.sim, wait), changed])
            yield cond
            if cond.value is not changed:
                if changed.callbacks:  # still pending: take the wait off it
                    changed.callbacks.remove(cond._on_child)
                return
            self._check_live(op, monitor, phase)
            if any(ev.triggered for ev in events):
                return
            wait = max(until - self.sim.now, 0.0)

    def _recv_live(self, op: OpState, participants: List[int], mtype: int,
                   key: int, src: int, phase: str,
                   escalate_live: Optional[int] = None,
                   min_timeout: Optional[float] = None):
        """Liveness-bounded control receive: wait for the message, but
        convert silence into a typed :class:`PeerDeadError`.

        Any confirmed death among *participants* aborts the wait at once —
        not just *src*'s: a rank blocked on a live peer that itself detoured
        into repair would otherwise wait forever, so every membership change
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
            yield from self._wait_live(op, [ev], wait, participants, phase)
            if ev.triggered:
                return ev.value
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
