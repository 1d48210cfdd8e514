"""User-facing collective API.

A :class:`Communicator` groups a set of fabric hosts, builds the protocol
resources (multicast subgroups, progress engines, control plane) and
exposes all six collectives through one submission surface:
``submit(CollectiveRequest) -> CollectiveHandle`` dispatches on
:class:`CollectiveKind`; the per-kind methods (``broadcast``,
``allgather``, ``reduce_scatter``, ``reduce``, ``allreduce``,
``alltoall``) build the request, submit it and run it to completion.
Submitting several requests before running them overlaps the
collectives (the FSDP interleaving scenario of paper §II-A).

Example
-------
::

    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 2, 2))
    comm = Communicator(fabric)
    data = [np.full(64 * 1024, r, dtype=np.uint8) for r in range(comm.size)]
    handle = comm.submit(CollectiveRequest(kind="allgather", data=data))
    handle.wait()
    result = handle.result()
    assert result.verify_allgather(data)
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.chunking import ChunkPlan, ImmLayout
from repro.core.control import MESSAGE_BYTES, ControlFold
from repro.core.costmodel import HostCostModel
from repro.core.ops import OpState
from repro.core.progress import RankEngine
from repro.core.reliability import (
    CUTOFF_ALPHA_MAX,
    CUTOFF_ALPHA_MIN,
    CollectiveAbortedError,
)
from repro.core.request import (
    ROOTED_KINDS,
    CollectiveHandle,
    CollectiveKind,
    CollectiveRequest,
    CollectiveRequestError,
    PhaseStats,
)
from repro.core.sequencer import BroadcastSequencer, effective_chains
from repro.core.staging import recv_table
from repro.core.subgroups import SubgroupPlan
from repro.models.schedule import chain_hops, chain_schedule
from repro.net.fabric import Fabric
from repro.net.memory import PayloadBuffers, new_key
from repro.net.nic import QueuePair, RecvWR, Transport
from repro.net.topology import host_name
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceConfig, Tracer, TraceView
from repro.sim.events import AllOf, Event
from repro.sim.fastforward import FlowFastForward

__all__ = [
    "CollectiveConfig",
    "CollectiveKind",
    "CollectiveRequest",
    "CollectiveRequestError",
    "CollectiveHandle",
    "FailurePolicy",
    "Communicator",
    "OpHandle",
    "ComposedHandle",
    "PhaseBreakdown",
    "PhaseStats",
    "RankStats",
    "CollectiveResult",
    "PayloadBuffers",
]

#: the ``CollectiveResult.engine`` key of each fold's misses in the
#: fabric's ledger (``Fabric.fold_misses``)
_MISS_KEYS = {"data": "ff_misses", "control": "ctrl_fold_misses",
              "inc": "inc_fold_misses"}


class FailurePolicy(str, enum.Enum):
    """What a collective does when a participant fail-stops mid-flight.

    ``ABORT`` raises a typed
    :class:`~repro.core.reliability.CollectiveAbortedError` on every
    survivor; ``DEGRADE`` completes the collective among the survivors
    (allgather results carry per-rank validity masks with the dead rank's
    shards marked missing; a broadcast whose root survives completes in
    full).  The config default of ``None`` disables the liveness layer
    entirely — a crash then surfaces as a recovery-deadline
    :class:`~repro.core.reliability.ReliabilityError` or a watchdog dump,
    exactly as before this layer existed.
    """

    ABORT = "abort"
    DEGRADE = "degrade"

    def __str__(self) -> str:
        return self.value


@dataclass
class CollectiveConfig:
    """Tunables of the multicast collective stack (paper §IV–V).

    Two groups: the paper's protocol knobs (what :mod:`repro.tune`
    searches) and the reliability policy.  The slow path's and the
    liveness layer's remaining timers, gains and budgets are constants of
    :mod:`repro.core.reliability`.  No field selects an engine: the folds
    (DESIGN.md §6d, §6i, §6j) always try and decline phase by phase with a
    typed reason, and ``Fabric(reference=True)`` is the per-packet oracle.
    """

    # --- protocol -------------------------------------------------------
    #: chunk/datagram payload size; must be ≤ fabric MTU for UD transport
    chunk_size: int = 4096
    #: multicast subgroups — packet parallelism (§IV-C); each subgroup
    #: has one receive worker per rank
    n_subgroups: int = 1
    #: parallel broadcast chains M in the Allgather sequencer (§IV-A)
    n_chains: int = 1
    #: 'ud' (staging + copy) or 'uc' (direct placement, §V-B)
    transport: str = "ud"
    #: multicast send requests per doorbell (§V-A batching)
    batch_size: int = 32
    #: staging-ring slots per subgroup (receive queue depth)
    staging_slots: int = 256

    # --- reliability ----------------------------------------------------
    #: cutoff-timer slack α (§III-C): timeout = N/B_link + α
    cutoff_alpha: float = 200e-6
    #: adapt the cutoff slack from observed delivery (TCP-RTO-style EWMA,
    #: clamped to ``[CUTOFF_ALPHA_MIN, CUTOFF_ALPHA_MAX]``), backing off
    #: only after a recovery during which multicast data still landed; the
    #: first op on a communicator always uses the static ``cutoff_alpha``
    adaptive_cutoff: bool = True
    #: total virtual time an op may spend in recovery before raising a
    #: :class:`~repro.core.reliability.ReliabilityError` instead of hanging
    recovery_deadline: float = 0.25
    #: fail-stop handling: ``None`` (liveness layer off, the default),
    #: :attr:`FailurePolicy.ABORT` or :attr:`FailurePolicy.DEGRADE`
    #: (accepts the strings "abort"/"degrade")
    failure_policy: Optional["FailurePolicy"] = None

    #: software datapath cost model
    cost: HostCostModel = field(default_factory=HostCostModel)

    def validate(self, fabric: Fabric) -> None:
        if self.transport not in ("ud", "uc"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "ud" and self.chunk_size > fabric.mtu:
            raise ValueError(
                f"UD chunk_size {self.chunk_size} exceeds fabric MTU {fabric.mtu}"
            )
        for name in ("chunk_size", "n_subgroups", "n_chains", "batch_size",
                     "staging_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cutoff_alpha < 0:
            raise ValueError("cutoff_alpha must be >= 0")
        if self.adaptive_cutoff and not (
            CUTOFF_ALPHA_MIN <= self.cutoff_alpha <= CUTOFF_ALPHA_MAX
        ):
            # The estimator clamps its *adapted* slack to this range; a
            # starting point outside it would be silently overridden from
            # the second op on — reject the contradiction instead.
            raise ValueError(
                f"cutoff_alpha {self.cutoff_alpha} outside the adaptive clamp "
                f"range [{CUTOFF_ALPHA_MIN}, {CUTOFF_ALPHA_MAX}]; "
                "disable adaptive_cutoff"
            )
        if self.recovery_deadline <= 0:
            raise ValueError("recovery_deadline must be > 0")
        if self.failure_policy is not None:
            # Accept the plain strings; normalize so engines compare enums.
            self.failure_policy = FailurePolicy(self.failure_policy)


@dataclass
class PhaseBreakdown:
    """Per-rank critical-path decomposition (paper Fig 10)."""

    sync: float  #: RNR synchronization barrier
    multicast: float  #: datapath (multicast + any recovery)
    handshake: float  #: final handshake in the reliable ring
    total: float

    @property
    def sync_fraction(self) -> float:
        return self.sync / self.total if self.total else 0.0


@dataclass
class RankStats:
    rank: int
    phases: Dict[str, float]
    breakdown: PhaseBreakdown
    counters: Dict[str, int]
    #: fetch rounds spent per recovery invocation on this rank
    retry_histogram: List[int] = field(default_factory=list)
    #: the cutoff timer's armed timeout (expected + slack)
    armed_timeout: float = 0.0
    #: what started this rank's recovery: ``"tail"`` (its last tail came
    #: in with chunks missing), ``"cutoff"``, or None (none did)
    trigger: Optional[str] = None


@dataclass
class CollectiveResult:
    """Outcome of one collective across all ranks."""

    kind: str  #: a :class:`CollectiveKind` (str-valued for compatibility)
    comm_size: int
    send_bytes: int  #: per-rank contribution (bcast: buffer size)
    chunk_size: int
    transport: str
    t_begin: float
    t_end: float
    ranks: List[RankStats]
    #: per-rank result regions (``buffers[r]`` materialises rank *r*'s
    #: array on access; the ``verify_*`` checks materialise none)
    buffers: PayloadBuffers
    traffic: Dict[str, int]
    #: simulator engine telemetry for this collective: events processed
    #: (``sim_events``), receive CQEs for no registered collective
    #: (``stray_cqes``), data phases folded
    #: (``ff_phases``) or declined, by gate reason (``ff_misses``, a
    #: ``{reason: count}`` dict summing to ``ff_aborts``; DESIGN.md §6d), the
    #: control-plane bring-up it paid (``ctrl_pairs``,
    #: ``ctrl_recv_posted``, ``ctrl_srq_refills``, ``ctrl_parked``), the
    #: control phases folded (``ctrl_folds``) or declined, by gate reason
    #: (``ctrl_fold_misses``, a ``{reason: count}`` dict; DESIGN.md §6i), the
    #: INC passes folded (``inc_folds``) or declined (``inc_fold_misses``,
    #: DESIGN.md §6j), and
    #: its payload cost (``payload_bytes_copied`` / ``payload_bytes_placed``
    #: / ``payload_regions_materialized``, DESIGN.md §6h)
    engine: Dict[str, int] = field(default_factory=dict)
    #: trace snapshot clipped to this collective's window, when the
    #: communicator was built with ``trace=TraceConfig(...)``
    trace: Optional[TraceView] = None
    #: ranks that fail-stopped during (or before) this collective; their
    #: ``buffers`` entries are meaningless and absent from ``ranks``
    dead_ranks: List[int] = field(default_factory=list)
    #: per-rank chunk-validity masks for degraded completions:
    #: ``validity[r]`` is a bool array over chunks (True = real payload) or
    #: ``None`` when every chunk landed; dead ranks also get ``None``
    validity: Optional[List[Optional[np.ndarray]]] = None
    #: root rank for the rooted kinds (broadcast, reduce); ``None`` otherwise
    root: Optional[int] = None
    #: per-phase timeline — one entry per sub-collective for composed kinds
    #: (allreduce: reduce_scatter → allgather), else a single entry; see
    #: :attr:`phases`
    phase_stats: List[PhaseStats] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_begin

    @property
    def phases(self) -> List[PhaseStats]:
        """Uniform phase timeline across all six kinds: composed
        collectives report one entry per sub-collective, simple kinds a
        single entry spanning the whole window (a copy of the handle's
        ``phases`` at completion)."""
        return list(self.phase_stats)

    @property
    def degraded(self) -> bool:
        return bool(self.dead_ranks)

    @property
    def recv_bytes_per_rank(self) -> int:
        kind = CollectiveKind(self.kind)  # raises ValueError on unknown
        if kind is CollectiveKind.ALLGATHER:
            return self.send_bytes * (self.comm_size - 1)
        if kind is CollectiveKind.BROADCAST:
            return self.send_bytes  # broadcast leaf
        if kind is CollectiveKind.REDUCE_SCATTER:
            return self.send_bytes // self.comm_size  # one reduced shard
        if kind is CollectiveKind.REDUCE:
            return self.send_bytes  # the root drains the whole reduction
        if kind is CollectiveKind.ALLREDUCE:
            # RS shard down (N/P) + allgather of the other shards
            # (N·(P−1)/P) = the full reduced buffer.
            return self.send_bytes
        if kind is CollectiveKind.ALLTOALL:
            # every remote block; the local block never touches the wire
            return self.send_bytes - self.send_bytes // self.comm_size
        raise ValueError(f"no payload accounting for kind {kind!r}")

    @property
    def throughput(self) -> float:
        """Per-process receive throughput in bytes/s (paper Fig 11 metric:
        collective payload over completion time)."""
        kind = CollectiveKind(self.kind)  # raises ValueError on unknown
        if kind is CollectiveKind.BROADCAST:
            total = self.send_bytes
        elif kind in (CollectiveKind.ALLGATHER, CollectiveKind.REDUCE_SCATTER,
                      CollectiveKind.REDUCE, CollectiveKind.ALLREDUCE,
                      CollectiveKind.ALLTOALL):
            total = self.send_bytes * self.comm_size
        else:
            raise ValueError(f"no payload accounting for kind {kind!r}")
        return total / self.duration if self.duration > 0 else float("inf")

    def phase_means(self) -> PhaseBreakdown:
        n = len(self.ranks)
        if n == 0:
            return PhaseBreakdown(sync=0.0, multicast=0.0, handshake=0.0, total=0.0)
        return PhaseBreakdown(
            sync=sum(r.breakdown.sync for r in self.ranks) / n,
            multicast=sum(r.breakdown.multicast for r in self.ranks) / n,
            handshake=sum(r.breakdown.handshake for r in self.ranks) / n,
            total=sum(r.breakdown.total for r in self.ranks) / n,
        )

    def counter_total(self, name: str) -> int:
        return sum(r.counters.get(name, 0) for r in self.ranks)

    def reliability_summary(self) -> Dict[str, object]:
        """Aggregate slow-path telemetry across ranks: recovery/round
        counters, escalations, the fetch rounds by the peer they read
        (``fetch_sources``: a chunk's ``owner``, another rank of the
        requester's switch ``group``, or the ``ring`` fallback; DESIGN.md
        §7), the retry histogram —
        ``{fetch rounds: recovery invocations}`` over every rank's
        invocations — and ``recovery_triggers``, how many ranks' recoveries
        the tail trigger and the cutoff started (DESIGN.md §7 "Tail
        trigger"; a degraded completion's recovery counts under neither)."""
        histogram: Dict[int, int] = {}
        for r in self.ranks:
            for rounds in r.retry_histogram:
                histogram[rounds] = histogram.get(rounds, 0) + 1
        return {
            "recoveries": self.counter_total("recoveries"),
            "recovered_chunks": self.counter_total("recovered_chunks"),
            "fetch_rounds": self.counter_total("fetch_rounds"),
            "fetch_sources": {via: self.counter_total(f"fetch_via_{via}")
                              for via in ("owner", "group", "ring")},
            "fetch_ack_timeouts": self.counter_total("fetch_ack_timeouts"),
            "neighbor_escalations": self.counter_total("neighbor_escalations"),
            "retry_histogram": dict(sorted(histogram.items())),
            "recovery_triggers": {by: sum(r.trigger == by for r in self.ranks)
                                  for by in ("tail", "cutoff")},
        }

    def _holds(self, r: int, expected: np.ndarray, memo: Dict[object, List[int]],
               lo: int = 0, hi: Optional[int] = None) -> bool:
        """Exact check that bytes ``[lo, hi)`` (default: all) of rank *r*'s
        region equal ``expected``'s, segment-wise through its pieces,
        materialising nothing; *memo* (one per *expected*) shares
        comparisons of a common source."""
        region = self.buffers.regions[r]
        if hi is None and region.nbytes != expected.nbytes:
            return False
        return region.equals(expected, memo, lo, hi)

    def _survivors_hold(self, expected: np.ndarray) -> bool:
        dead = set(self.dead_ranks)
        memo: Dict[object, List[int]] = {}
        return all(self._holds(r, expected, memo)
                   for r in range(len(self.buffers)) if r not in dead)

    def verify_allgather(self, send_data: Sequence[np.ndarray]) -> bool:
        return self._survivors_hold(
            np.concatenate([np.ascontiguousarray(d).view(np.uint8).ravel()
                            for d in send_data]))

    def verify_broadcast(self, data: np.ndarray) -> bool:
        return self._survivors_hold(
            np.ascontiguousarray(data).view(np.uint8).ravel())

    def verify_allgather_degraded(self, send_data: Sequence[np.ndarray]) -> bool:
        """Degraded-mode allgather check: on every *surviving* rank, every
        chunk marked valid must hold the contributor's bytes, and every
        chunk marked missing must belong to a dead rank's shard."""
        expected = np.concatenate([np.ascontiguousarray(d).view(np.uint8).ravel()
                                   for d in send_data])
        memo: Dict[object, List[int]] = {}
        return self._valid_chunks_match(
            len(expected),
            lambda r, lo, hi: self._holds(r, expected, memo, lo, hi))

    def _valid_chunks_match(self, n: int, match) -> bool:
        """Whether every surviving rank's region matches: wholly
        (``match(r, 0, None)``) without a validity mask, else chunk by
        chunk over ``[lo, hi)`` of its *n* units, where a chunk marked
        missing must belong to a dead rank's shard.  Shards are
        chunk-aligned by construction, so chunk i's owner is i // (chunks
        per rank)."""
        dead = set(self.dead_ranks)
        for r in range(len(self.buffers)):
            if r in dead:
                continue
            mask = self.validity[r] if self.validity is not None else None
            if mask is None:
                if not match(r, 0, None):
                    return False
                continue
            chunks_per_rank = len(mask) // self.comm_size
            per_chunk = -(-n // len(mask))
            for i, valid in enumerate(mask):
                lo = i * per_chunk
                if valid:
                    if not match(r, lo, min(lo + per_chunk, n)):
                        return False
                elif i // chunks_per_rank not in dead:
                    return False  # hole outside any dead rank's shard
        return True

    def verify_reduce_scatter(self, send_data: Sequence[np.ndarray],
                              rtol: float = 1e-3, atol: float = 1e-3) -> bool:
        """True when each rank holds its reduced float32 shard (within
        floating-point accumulation-order tolerance)."""
        total = _sum_f32(send_data)
        shard = total.size // self.comm_size
        return len(self.buffers) == self.comm_size and all(
            self._close(r, total[r * shard:(r + 1) * shard], {}, rtol, atol)
            for r in range(self.comm_size))

    def verify_reduce(self, send_data: Sequence[np.ndarray],
                      rtol: float = 1e-3, atol: float = 1e-3) -> bool:
        """True when the root holds the full reduced float32 buffer and
        every other rank holds nothing (rooted Reduce)."""
        total = _sum_f32(send_data)
        return all(
            self._close(r, total, {}, rtol, atol) if r == self.root
            else not region.nbytes
            for r, region in enumerate(self.buffers.regions))

    def verify_allreduce(self, send_data: Sequence[np.ndarray],
                         rtol: float = 1e-3, atol: float = 1e-3) -> bool:
        """True when every surviving rank holds the reduced float32 sum of
        all contributions.  Degraded completions (a rank fail-stopped during
        the allgather phase) are checked through the validity masks: valid
        chunks must match the reduction, missing chunks must belong to a
        dead rank's shard."""
        total = _sum_f32(send_data)
        memo: Dict[object, List[int]] = {}
        return self._valid_chunks_match(
            total.size,
            lambda r, lo, hi: self._close(r, total, memo, rtol, atol, lo, hi))

    def _close(self, r: int, total: np.ndarray, memo: Dict[object, List[int]],
               rtol: float, atol: float, lo: int = 0,
               hi: Optional[int] = None) -> bool:
        """Whether float32 elements ``[lo, hi)`` (default: all) of rank *r*'s
        region are within ``rtol`` / ``atol`` of *total*'s, piece-wise,
        materialising nothing; *memo* (one per *total* and tolerance)
        shares comparisons of a common source."""
        region = self.buffers.regions[r]
        if hi is None:
            if region.nbytes != total.nbytes:
                return False
            hi = total.size
        return region.allclose(total, memo, rtol, atol, 4 * lo, 4 * hi)

    def verify_alltoall(self, send_data: Sequence[np.ndarray]) -> bool:
        """True when rank *r*'s receive buffer is the concatenation of
        block *r* of every rank's contribution."""
        payloads = [np.ascontiguousarray(d).reshape(-1).view(np.uint8)
                    for d in send_data]
        block = payloads[0].nbytes // self.comm_size
        dead = set(self.dead_ranks)
        return all(
            self._holds(r, np.concatenate(
                [pl[r * block:(r + 1) * block] for pl in payloads]), {})
            for r in range(len(self.buffers)) if r not in dead)


def _sum_f32(send_data: Sequence[np.ndarray]) -> np.ndarray:
    """The float32 sum of every rank's contribution, in rank order."""
    arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1)
              for d in send_data]
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    return total


class OpHandle(CollectiveHandle):
    """An in-flight engine-backed collective: per-rank op states + an
    all-done event."""

    def __init__(self, comm: "Communicator", kind: Union[str, CollectiveKind],
                 coll_id: int, ops: List[OpState],
                 send_bytes: int, root: Optional[int] = None):
        self.comm = comm
        self.kind = CollectiveKind(kind)
        self.coll_id = coll_id
        self.ops = ops
        self.buffers = PayloadBuffers([op.mr for op in ops])
        self.send_bytes = send_bytes
        self.chunk_size = comm.config.chunk_size
        self.transport = comm.config.transport
        self.root = root
        self.t_submit = comm.sim.now
        #: all-ranks-finished event (``done()`` — the protocol method —
        #: answers the non-blocking bool; this is the raw simulator event)
        self.done_event = AllOf(comm.sim, [op.op_done for op in ops])
        for op in ops:
            op.handle = self

    @property
    def complete(self) -> bool:
        return self.done_event.triggered

    @property
    def wait_events(self) -> List:
        """The events :meth:`Communicator.run` must drain for this handle."""
        return [self.done_event]

    def _live_ops(self) -> List[OpState]:
        """The surviving ranks' ops.  Dead ranks' ops are abandoned, not
        completed: their phase records stop at the crash instant and are
        excluded from the statistics."""
        return [op for op in self.ops if not op.aborted]

    @property
    def phases(self) -> List[PhaseStats]:
        live = self._live_ops()
        if self.complete and live:
            t_begin = min(op.phases["start"] for op in live)
            t_end = max(op.phases["final"] for op in live)
        else:
            t_begin, t_end = self.t_submit, self.comm.sim.now
        return [PhaseStats(str(self.kind), str(self.kind), t_begin, t_end)]

    def _release(self) -> None:
        for engine in self.comm.engines:
            engine.release_op(self.coll_id)
        self.comm._op_procs.pop(self.coll_id, None)
        self.comm.cf.forget(self.coll_id)

    @staticmethod
    def _payload_cost(live_ops: List[OpState]) -> Dict[str, int]:
        """What the payload cost the simulator host (DESIGN.md §6h), read
        off the op regions at result time.  A chunk lands exactly once
        (``chunks_received`` + ``recovered_chunks`` count unique PSNs), and
        every landing — a NIC write, a DMA copy, a fold commit — is a
        placement, so a rank's landed bytes are placements while its
        region is still lazy.  They were memcpy'd once it is not: a region
        materialises only on a byte-level touch (``buffers[r]``, an
        explicit ``view``) or when its piece map outgrows its bytes, and
        from then on every landing copies."""
        copied = placed = materialized = 0
        for op in live_ops:
            plan = op.plan
            last = plan.n_chunks - 1
            landed = (op.stats["chunks_received"]
                      + op.stats["recovered_chunks"]) * plan.chunk_size
            if not op.send_lo <= last < op.send_hi and op.placed.test(last):
                landed -= plan.chunk_size - plan.bounds(last)[1]
            if op.mr.materialized:
                materialized += 1
                copied += landed
            else:
                placed += landed
        return {"payload_bytes_copied": copied, "payload_bytes_placed": placed,
                "payload_regions_materialized": materialized}

    def _outcome(self) -> Dict[str, object]:
        live_ops = self._live_ops()
        if not live_ops:
            raise RuntimeError("collective has no surviving ranks")
        ranks = []
        for op in live_ops:
            ph = op.phases
            breakdown = PhaseBreakdown(
                sync=ph["sync"] - ph["start"],
                multicast=ph["data"] - ph["sync"],
                handshake=ph["final"] - ph["data"],
                total=ph["final"] - ph["start"],
            )
            ranks.append(
                RankStats(
                    op.rank, dict(ph), breakdown, dict(op.stats),
                    retry_histogram=list(op.retry_histogram),
                    armed_timeout=op.armed_timeout, trigger=op.trigger,
                )
            )
        dead = sorted(
            {op.rank for op in self.ops if op.aborted}
            | {r for op in live_ops for r in op.dead_ranks}
        )
        validity = None
        if any(op.valid_mask is not None for op in live_ops):
            by_rank = {op.rank: op for op in live_ops}
            validity = [
                (by_rank[r].valid_mask.copy()
                 if r in by_rank and by_rank[r].valid_mask is not None else None)
                for r in range(self.comm.size)
            ]
        return {"ranks": ranks, "dead_ranks": dead, "validity": validity,
                "engine": self._payload_cost(live_ops)}


class ComposedHandle(CollectiveHandle):
    """Allreduce: a reduce-scatter chained into an allgather inside one
    submission, the reduced shards handed on by reference as the
    allgather's contributions (paper Appendix B).

    A driver process launches the reduce-scatter (*reduce_scatter*), then
    the allgather (*allgather*, given the finished reduce-scatter handle)
    at the exact instant the former's last rank process completes — the
    instant a caller chaining ``comm.reduce_scatter(...)`` then
    ``comm.allgather(...)`` observes — so the composed collective is
    **bit-identical in virtual time** to manual chaining.  The driver never
    advances the clock; each phase is one ordinary collective to the
    reliability layer and the folds.  The phases are read through the
    handle protocol only.
    """

    def __init__(self, comm: "Communicator", send_bytes: int,
                 reduce_scatter: Callable[[], CollectiveHandle],
                 allgather: Callable[[CollectiveHandle], CollectiveHandle]) -> None:
        self.comm = comm
        self.kind = CollectiveKind.ALLREDUCE
        self.send_bytes = send_bytes
        self.chunk_size = comm.config.chunk_size
        self.transport = f"rc+{comm.config.transport}"
        self._subs: List[CollectiveHandle] = []  # launched phases, in order
        self._proc = comm.sim.spawn(self._drive(reduce_scatter, allgather),
                                    name=f"{self.kind}-driver")

    def _launched(self, sub: CollectiveHandle) -> CollectiveHandle:
        """A phase just launched: it runs under this handle's id, which the
        folds' exclusivity rule reads (:meth:`Fabric.fold_gate`)."""
        sub.handle_id = self.handle_id
        self._subs.append(sub)
        return sub

    def _drive(self, reduce_scatter, allgather):
        rs = self._launched(reduce_scatter())
        for ev in rs.wait_events:
            yield ev
        if rs.error is not None:
            dead = list(rs.error.dead_ranks)
            raise CollectiveAbortedError(
                f"{self.kind} aborted: rank(s) {dead} fail-stopped during "
                f"the {rs.kind} phase (reductions cannot degrade)",
                rank=-1, coll_id=-1, kind=str(self.kind), phase=str(rs.kind),
                dead_ranks=dead,
            )
        ag = self._launched(allgather(rs))
        # The allgather ran over the reduced shards, so every surviving
        # rank's gather buffer *is* the full reduced vector.
        self.buffers = PayloadBuffers(ag.buffers.regions, dtype=np.float32)
        for ev in ag.wait_events:
            yield ev
        return self.comm.sim.now

    @property
    def complete(self) -> bool:
        return self._proc.triggered

    @property
    def wait_events(self) -> List:
        return [self._proc]

    @property
    def phases(self) -> List[PhaseStats]:
        return [ph for sub in self._subs for ph in sub.phases]

    def _current(self) -> Optional[CollectiveHandle]:
        """The phase in flight (``None`` before launch and once done)."""
        return self._subs[-1] if self._subs and not self.complete else None

    def on_crash(self, rank: int) -> None:
        # A baseline (reduction) phase applies the failure policy and
        # records its abort, which the driver raises; engine-phase crashes
        # are handled by the liveness protocol instead.
        sub = self._current()
        if sub is not None:
            sub.on_crash(rank)

    def _release(self) -> None:
        for sub in self._subs:
            sub._release()

    def _outcome(self) -> Dict[str, object]:
        if not self._proc.ok:
            raise self._proc.value
        ag = self._subs[-1].result()
        return {"ranks": ag.ranks, "dead_ranks": ag.dead_ranks,
                "validity": ag.validity, "engine": ag.engine}


class Communicator:
    """A group of ranks with a shared multicast collective stack."""

    def __init__(
        self,
        fabric: Fabric,
        hosts: Optional[Sequence[int]] = None,
        config: Union[CollectiveConfig, str, None] = None,
        trace: Optional[TraceConfig] = None,
    ) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.hosts: List[int] = list(hosts) if hosts is not None else list(range(fabric.n_hosts))
        if len(set(self.hosts)) != len(self.hosts):
            raise ValueError("duplicate hosts in communicator")
        self.size = len(self.hosts)
        if isinstance(config, str):
            # config="auto": resolve the tuned profile for this fabric
            # through the persistent store (falls back to the stock
            # default when no profile matches — see repro.tune).
            if config != "auto":
                raise ValueError(
                    f"unknown config preset {config!r} (only 'auto')")
            from repro.tune.search import resolve_config

            config = resolve_config(fabric, n_hosts=self.size)
        self.config = config or CollectiveConfig()
        self.config.validate(fabric)
        # Observability plane (DESIGN.md §8): build + install the tracer
        # before the engines so each RankEngine picks up its rank track.
        self.tracer: Optional[Tracer] = None
        if trace is not None and trace.enabled and obs_trace.ENABLED:
            self.tracer = Tracer(trace)
            fabric.install_tracer(self.tracer)
        self.imm = ImmLayout()
        # Replicated multicast groups — the subgroups of §IV-C.
        self.mcast_gids: List[int] = (
            [fabric.create_mcast_group(self.hosts) for _ in range(self.config.n_subgroups)]
            if self.size >= 2
            else []
        )
        #: UD: per subgroup, the receive WRs every rank's staging ring
        #: posts, under one symmetric key per subgroup (a host registers
        #: every subgroup's ring in its one memory, whatever the rail)
        self.recv_tables: Tuple[Tuple[RecvWR, ...], ...] = (
            tuple(recv_table(self.config.staging_slots, self.config.chunk_size)
                  for _ in range(self.config.n_subgroups))
            if self.config.transport == "ud" else ())
        self._ctrl_pairs: Dict[tuple, QueuePair] = {}
        #: control messages sent and not yet served, over every rank
        self.ctrl_in_flight = [0]
        #: per slab index, the receive WRs every rank's control plane posts
        #: for that slab (grown by the first plane to need it)
        self.ctrl_slab_tables: List[Tuple[RecvWR, ...]] = []
        self.engines: List[RankEngine] = []
        for r in range(self.size):
            self.engines.append(RankEngine(self, r))
        self._coll_ids = itertools.count(0)
        # In-flight handles live on the fabric (``fabric.collectives``), so
        # the folds' exclusivity tests see every communicator's.
        self._api_track = None  # lazy obs track for submission tracepoints
        #: the data fold (DESIGN.md §6d) and the control-plane fold (§6i);
        #: on a ``Fabric(reference=True)`` both decline every phase
        self.ff = FlowFastForward(self)
        self.cf = ControlFold(self)
        # --- fail-stop state -------------------------------------------
        #: ranks whose hosts fail-stopped (grows monotonically)
        self.dead_ranks: Set[int] = set()
        #: op-controller processes by coll_id, as (rank, process) pairs —
        #: a crash must tear down the dead host's software immediately
        self._op_procs: Dict[int, List[tuple]] = {}
        self._repair_key = None
        self._repair_track = None
        #: rail currently carrying the RC control plane (multi-rail only;
        #: migrated by the SM sweep when its plane stops spanning the
        #: survivors — IB-style automatic path migration)
        self._ctrl_rail = 0
        #: per rank, the ranks on its attachment switch (the recovery
        #: tree's groups), built at the first recovery
        self._switch_groups: Optional[List[Tuple[int, ...]]] = None
        #: ``(rank, event)`` of the recoveries starting at this instant
        #: (:meth:`recovery_turn`)
        self._recovery_turns: List[Tuple[int, Event]] = []
        fabric.on_crash(self._on_fabric_crash)
        fabric.sweep_listeners.append(self._on_sm_sweep)
        self.sim.add_watchdog_diagnostic(self._watchdog_diagnostic)

    # ------------------------------------------------------------- plumbing

    def host_of(self, rank: int) -> int:
        return self.hosts[rank]

    def switch_group(self, rank: int) -> Tuple[int, ...]:
        """The ranks attached to *rank*'s switch, in rank order: its group
        of the recovery tree (DESIGN.md §7).  Ranks of one group share the
        tuple, so ``switch_group(a) is switch_group(b)`` tests membership."""
        groups = self._switch_groups
        if groups is None:
            topo = self.fabric.topology
            by_switch: Dict[str, List[int]] = {}
            for r in range(self.size):
                by_switch.setdefault(topo.attach_point(self.host_of(r)), []).append(r)
            groups = self._switch_groups = [()] * self.size
            for members in by_switch.values():
                group = tuple(members)
                for r in group:
                    groups[r] = group
        return groups[rank]

    def recovery_turn(self, rank: int) -> Event:
        """An event that fires, in rank order, once every recovery that
        starts at this instant has asked for its turn.

        Recoveries can start at one instant — the cutoff timers of ranks
        that left the barrier together, tail triggers that coincide — in
        an order the two paths do not share: the barrier's delivery order
        at packet level, the rank order when the barrier folded, the
        fold's posting order for a trigger.  Their first fetch requests
        meet at one peer, whose fetch server serves them in arrival
        order, so recovery starts in rank order on both paths (DESIGN.md
        §7)."""
        turns = self._recovery_turns
        if not turns:
            self.sim.post_later(0.0, self._start_recoveries)
        ev = Event(self.sim)
        turns.append((rank, ev))
        return ev

    def _start_recoveries(self) -> None:
        turns, self._recovery_turns = self._recovery_turns, []
        for _, ev in sorted(turns, key=lambda turn: turn[0]):
            ev.succeed_now()

    def ensure_ctrl_pair(self, a: int, b: int) -> QueuePair:
        """Return rank *a*'s control QP toward rank *b*, creating the
        connected pair on first use.  Both ends attach to their rank's
        shared receive queue, so a new pair posts no receives of its own."""
        qp = self._ctrl_pairs.get((a, b))
        if qp is not None:
            return qp
        ea, eb = self.engines[a], self.engines[b]
        # Create on the control plane's *current* NIC — after a rail
        # migration, lazily-created pairs must land on the surviving plane.
        qa = ea.ctrl.nic.create_qp(Transport.RC, recv_cq=ea.ctrl.recv_cq, srq=ea.ctrl.srq)
        qb = eb.ctrl.nic.create_qp(Transport.RC, recv_cq=eb.ctrl.recv_cq, srq=eb.ctrl.srq)
        qa.connect(self.host_of(b), qb.qpn)
        qb.connect(self.host_of(a), qa.qpn)
        ea.ctrl.adopt_qp(b, qa)
        eb.ctrl.adopt_qp(a, qb)
        self._ctrl_pairs[(a, b)] = qa
        self._ctrl_pairs[(b, a)] = qb
        return qa

    # ------------------------------------------------------------ fail-stop

    @property
    def survivors(self) -> List[int]:
        return [r for r in range(self.size) if r not in self.dead_ranks]

    def _on_fabric_crash(self, spec) -> None:
        """Fabric listener, invoked at the crash instant.

        Only the *dead* host's local software is torn down here (software
        dies with the host); surviving ranks must learn about the death
        through the liveness protocol — PING probes and reliable MSG_DEATH
        notices — never from this oracle.
        """
        if spec.host is None:
            return
        host = self.fabric._resolve_host(spec.host)
        try:
            rank = self.hosts.index(host)
        except ValueError:
            return  # crashed host is not a member of this communicator
        self.dead_ranks.add(rank)
        engine = self.engines[rank]
        engine.shutdown()
        for procs in self._op_procs.values():
            for r, proc in procs:
                if r == rank and proc.alive:
                    proc.kill()
        for op in list(engine.ops.values()):
            op.abandon()
        # Baseline-substrate and composed handles manage their own rank
        # processes; let each apply the failure policy to its current phase.
        for handle in self._in_flight():
            handle.on_crash(rank)

    def _on_sm_sweep(self) -> None:
        """SM sweep listener (multi-rail only): when the plane carrying the
        RC control plane no longer spans the surviving hosts, migrate every
        survivor's control QPs to the lowest plane that does — the model's
        analogue of IB automatic path migration, driven by the omniscient
        subnet manager rather than the (now partitioned) control plane
        itself.  Data-plane subgroup QPs follow their group's re-planned
        rail in the same pass, so a whole-plane death heals end to end:
        sweep re-plans trees onto survivors, this listener re-homes QPs,
        and cutoff/fetch recovery re-delivers what the dead plane ate."""
        topo = self.fabric.topology
        if topo.rails <= 1 or not self.engines:
            return
        live = [r for r in self.survivors
                if not self.fabric.host_isolated(self.hosts[r])]
        if len(live) >= 2:
            dead = self.fabric.dead_node_names()
            rail = topo.connected_rail(
                [self.hosts[r] for r in live], dead, prefer=self._ctrl_rail)
            if rail is not None and rail != self._ctrl_rail:
                self._migrate_ctrl_plane(rail, live)
        # Groups may have been re-planned onto another rail by the sweep.
        for r in live:
            for sg in range(len(self.mcast_gids)):
                self.engines[r].rebind_subgroup(sg)

    def _migrate_ctrl_plane(self, rail: int, live: List[int]) -> None:
        """Re-home every live rank's control QPs onto *rail*'s NIC and
        re-connect the pairs with their migrated QPNs (both ends move —
        planes only meet at hosts, so a half-migrated pair is unroutable)."""
        live_set = set(live)
        for r in live:
            eng = self.engines[r]
            nic = self.fabric.rail_nic(self.hosts[r], rail)
            for qp in eng.ctrl.qps.values():
                nic.adopt_qp(qp)
            eng.ctrl.nic = nic
        for r in live:
            for peer, qp in self.engines[r].ctrl.qps.items():
                if peer in live_set:
                    peer_qp = self.engines[peer].ctrl.qps.get(r)
                    if peer_qp is not None:
                        qp.connect(self.hosts[peer], peer_qp.qpn)
        self._ctrl_rail = rail
        if self.tracer is not None:
            if self._repair_track is None:
                self._repair_track = self.tracer.track("comm", "repair")
            self._repair_track.instant(
                "repair.ctrl_migrate", self.sim.now, {"rail": rail})

    def note_death(self, rank: int) -> None:
        """Protocol-level death confirmation (called by a survivor's engine
        after probes went unanswered).  Idempotent."""
        self.dead_ranks.add(rank)
        engine = self.engines[rank]
        for op in list(engine.ops.values()):
            if not op.aborted:
                op.abandon()

    def repair_topology(self) -> None:
        """Re-plan routing and every multicast tree around the current dead
        set (idempotent per dead-set value; survivors racing into repair
        after the same confirmation do the work once)."""
        key = (frozenset(self.fabric.dead_node_names()), frozenset(self.dead_ranks))
        if key == self._repair_key:
            return
        self._repair_key = key
        self.fabric.reroute_unicast()
        # Hosts orphaned by an access-switch death are unreachable even
        # though their rank is not (yet) confirmed dead — planning around
        # them now keeps the surviving tree spanning; the liveness
        # protocol confirms their death and re-repairs afterwards.
        live_hosts = [self.hosts[r] for r in self.survivors
                      if not self.fabric.host_isolated(self.hosts[r])]
        exclude = self.fabric.dead_node_names()
        for gid in self.mcast_gids:
            if len(live_hosts) >= 2:
                try:
                    self.fabric.rebuild_mcast_group(gid, live_hosts, exclude)
                except ValueError:
                    # Partitioned group (no surviving tree spans the
                    # members): leave the stale tree; the collective layer
                    # degrades or aborts through the normal policy.
                    pass
        if self.fabric.topology.rails > 1:
            # A re-plan may have failed a group over to a surviving plane
            # (whole-rail death): migrate survivors' QPs to the new rail.
            for r in self.survivors:
                for sg in range(len(self.mcast_gids)):
                    self.engines[r].rebind_subgroup(sg)
        if self.tracer is not None:
            if self._repair_track is None:
                self._repair_track = self.tracer.track("comm", "repair")
            self._repair_track.instant(
                "repair.replan", self.sim.now,
                {"dead_ranks": sorted(self.dead_ranks),
                 "dead_nodes": sorted(exclude)},
            )

    def _watchdog_diagnostic(self) -> str:
        """Per-rank state dump for the simulator hang watchdog."""
        lines = [f"communicator: size={self.size} dead_ranks={sorted(self.dead_ranks)}"]
        for r, engine in enumerate(self.engines):
            host = self.hosts[r]
            status = "DEAD" if r in self.dead_ranks else "live"
            lines.append(
                f"rank {r} ({host_name(host)}, {status}): "
                f"ctrl sent={engine.ctrl.messages_sent} "
                f"recv={engine.ctrl.messages_received}"
            )
            for cid, op in sorted(engine.ops.items()):
                holes = op.bitmap.missing_runs()
                hole_str = ", ".join(f"[{lo},{lo + n})" for lo, n in holes[:4])
                if len(holes) > 4:
                    hole_str += f", … (+{len(holes) - 4} runs)"
                last_phase = max(op.phases.items(), key=lambda kv: kv[1])[0] \
                    if op.phases else "-"
                lines.append(
                    f"  op c{cid} {op.kind}: {op.bitmap.count}/{op.n_chunks} chunks "
                    f"({op.placed.count} placed, {op.outstanding_copies} copies in "
                    f"flight), holes: {hole_str or 'none'}; last phase: {last_phase}; "
                    f"cutoff armed {op.armed_timeout * 1e6:.1f}µs, "
                    f"{op.tails_left} tails due, recovery by: {op.trigger or '-'}"
                )
        return "\n".join(lines)

    def _next_coll_id(self) -> int:
        for _ in range(self.imm.max_collectives):
            cid = next(self._coll_ids) % self.imm.max_collectives
            if all(cid not in e.ops for e in self.engines):
                return cid
        raise RuntimeError("no free collective ids (too many in-flight collectives)")

    @staticmethod
    def _as_bytes(data: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(data)
        return arr.reshape(-1).view(np.uint8)

    # ------------------------------------------------------------ submission

    def submit(self, request: CollectiveRequest) -> CollectiveHandle:
        """Launch the collective described by *request*; returns a handle.

        The one entry point for all six kinds: the request has already
        validated its field combinations eagerly; this checks the parts
        that need the communicator (root range, contribution count) and
        dispatches on :class:`CollectiveKind`; the blocking per-kind methods
        build a request and run it through here.
        """
        if not isinstance(request, CollectiveRequest):
            raise CollectiveRequestError(
                f"submit() takes a CollectiveRequest, got "
                f"{type(request).__name__}; build one instead of passing "
                "raw kind strings"
            )
        kind = request.kind
        if kind in ROOTED_KINDS and not 0 <= request.root < self.size:
            raise CollectiveRequestError(
                f"root {request.root} out of range for {self.size} ranks")
        if kind is not CollectiveKind.BROADCAST and len(request.data) != self.size:
            raise CollectiveRequestError(
                f"{kind} needs {self.size} send buffers, got {len(request.data)}")
        if kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.REDUCE,
                    CollectiveKind.ALLREDUCE, CollectiveKind.ALLTOALL) \
                and self.dead_ranks:
            # The baseline substrates have no degraded mode: a reduction
            # missing a contributor poisons every element, and the INC tree
            # would wait forever for the dead rank's segments.  Fail the
            # submission instead of hanging the simulation.
            raise CollectiveAbortedError(
                f"{kind} cannot start: rank(s) {sorted(self.dead_ranks)} "
                "already fail-stopped and the substrate cannot degrade",
                rank=-1, coll_id=-1, kind=str(kind), phase="submit",
                dead_ranks=sorted(self.dead_ranks),
            )
        # Every fold on the fabric, this communicator's or another's, hands
        # back before a second collective's packets can observe channel
        # state; the overlap is only detected at the *next* fold hook — too
        # late.
        self.fabric.preempt_folds()
        if kind is CollectiveKind.BROADCAST:
            handle = self._launch_broadcast(request.root, request.data)
        elif kind is CollectiveKind.ALLGATHER:
            handle = self._launch_allgather(request.data)
        elif kind is CollectiveKind.REDUCE_SCATTER:
            handle = self._launch_reduce_scatter(
                request.data, request.algorithm or "inc", request.cost,
                request.segment_bytes)
        elif kind is CollectiveKind.REDUCE:
            handle = self._launch_reduce(request.data, request.root,
                                         request.cost, request.segment_bytes)
        elif kind is CollectiveKind.ALLREDUCE:
            handle = self._launch_allreduce(
                request.data, request.algorithm or "inc", request.cost,
                request.segment_bytes)
        elif kind is CollectiveKind.ALLTOALL:
            handle = self._launch_alltoall(request.data, request.cost,
                                           request.chunk_bytes)
        else:  # pragma: no cover - CollectiveRequest already validated
            raise CollectiveRequestError(f"no dispatch for kind {kind!r}")
        return self._register(handle)

    def _register(self, handle: CollectiveHandle) -> CollectiveHandle:
        handle.handle_id = self.fabric.admit(handle)
        if self.tracer is not None:
            if self._api_track is None:
                self._api_track = self.tracer.track("comm", "api")
            self._api_track.instant(
                "comm.submit", self.sim.now,
                {"kind": str(handle.kind), "handle": handle.handle_id},
            )
        return handle

    def _expected(self, nbytes: int, root_bytes: int = 0, hops=()) -> float:
        """The cutoff timer's expected term (:mod:`repro.models.schedule`):
        *nbytes* received, roots of *root_bytes* activated along *hops*."""
        cfg, fabric = self.config, self.fabric
        return chain_schedule(
            nbytes, fabric.link_bandwidth, cfg.cost, chunk=cfg.chunk_size,
            uc=cfg.transport == "uc", n_subgroups=cfg.n_subgroups,
            root_bytes=root_bytes, batch_size=cfg.batch_size, hops=hops,
            mtu=fabric.mtu, header_bytes=fabric.header_bytes,
            ctrl_bytes=MESSAGE_BYTES + fabric.header_bytes,
            link_latency=fabric.link_latency,
            switch_delay=fabric.switch_delay).expected

    def _tail_epoch(self) -> Optional[int]:
        """The fault epoch a collective launched now arms its tail trigger
        for, or None when a channel of its multicast trees may reorder
        datagrams: then a tail may overtake a chunk of its block, and only
        the cutoff starts recovery (DESIGN.md §7 "Tail trigger")."""
        fabric = self.fabric
        return None if fabric.reorders(self.mcast_gids) else fabric.fault_epoch

    # ------------------------------------------------------------ broadcast

    def _launch_broadcast(self, root: int, data: np.ndarray) -> OpHandle:
        """Build + start a Broadcast of *data* from rank *root*."""
        payload = self._as_bytes(data)
        nbytes = payload.nbytes
        if nbytes == 0:
            raise ValueError("cannot broadcast an empty buffer")
        cid = self._next_coll_id()
        plan = ChunkPlan(nbytes, self.config.chunk_size)
        if plan.n_chunks > self.imm.max_psns:
            raise ValueError("buffer needs more PSNs than the immediate layout provides")
        sub = SubgroupPlan(plan.n_chunks, self.config.n_subgroups)
        if root in self.dead_ranks:
            raise ValueError(f"broadcast root {root} fail-stopped earlier")
        ops, procs = [], []
        participants = self.survivors
        position = {p: i for i, p in enumerate(participants)}
        expected = self._expected(nbytes)
        # Snapshot once per collective: a placement must never alias
        # caller-owned memory (DESIGN.md §6h).
        image = payload.copy()
        key = new_key()
        epoch = self._tail_epoch()
        for r in range(self.size):
            engine = self.engines[r]
            mr = engine.nic.memory.register(nbytes, key=key)
            if r == root:
                mr.place(0, image, 0, nbytes)
            op = OpState(
                sim=self.sim, coll_id=cid, kind="broadcast", rank=r,
                comm_size=self.size, mr=mr, plan=plan, subgroups=sub,
                send_lo=0, send_hi=plan.n_chunks if r == root else 0, root=root,
                expected=expected,
            )
            if r != root:
                op.expect_tails(1, epoch)
            if r in self.dead_ranks:
                op.abandon()  # a dead host runs no software
            else:
                engine.register_op(op)
                proc = self.sim.spawn(
                    engine.run_op(op, participants, position[r]),
                    name=f"bcast-c{cid}-r{r}")
                procs.append((r, proc))
            ops.append(op)
        self._op_procs[cid] = procs
        return OpHandle(self, "broadcast", cid, ops, nbytes, root=root)

    # ------------------------------------------------------------ allgather

    def _launch_allgather(self, send_data: Sequence[np.ndarray]) -> OpHandle:
        """Build + start an Allgather over per-rank contributions.

        All contributions must have equal byte size, divisible by the chunk
        size so shard boundaries align with chunk boundaries.  A
        :class:`PayloadBuffers` (an earlier result's regions, such as a
        reduce-scatter's shards) is taken by reference: each rank's own
        shard is copied region to region and nothing materialises.
        """
        if isinstance(send_data, PayloadBuffers):
            shards = send_data.regions
            sizes = [mr.nbytes for mr in shards]

            def place_own(r: int, mr) -> None:
                shards[r].copy_to(0, mr, r * nbytes, nbytes)
        else:
            payloads = [self._as_bytes(d) for d in send_data]
            sizes = [p.nbytes for p in payloads]
            # One snapshot of every contribution per collective: placements
            # must never alias caller-owned memory (DESIGN.md §6h).
            image = np.concatenate(payloads)

            def place_own(r: int, mr) -> None:
                mr.place(r * nbytes, image, r * nbytes, nbytes)
        nbytes = sizes[0]
        if nbytes == 0:
            raise ValueError("cannot allgather empty buffers")
        if any(n != nbytes for n in sizes):
            raise ValueError("all send buffers must have the same size")
        # Small contributions shrink the chunk so shards stay chunk-aligned.
        chunk = min(self.config.chunk_size, nbytes)
        if self.size > 1 and nbytes % chunk != 0:
            raise ValueError(
                f"send size {nbytes} must be a multiple of the chunk size "
                f"{chunk} so shards align with chunk boundaries"
            )
        cid = self._next_coll_id()
        total = nbytes * self.size
        plan = ChunkPlan(total, chunk)
        if plan.n_chunks > self.imm.max_psns:
            raise ValueError("buffer needs more PSNs than the immediate layout provides")
        chunks_per_rank = max(nbytes // chunk, 1)
        sub = SubgroupPlan(chunks_per_rank, self.config.n_subgroups)
        participants = self.survivors
        if len(participants) < 1:
            raise RuntimeError("allgather has no surviving ranks")
        # The chain schedule runs over the *survivors*; ranks that died
        # before submission never multicast and their shards are voided
        # up front on every survivor.
        n_chains = effective_chains(len(participants), self.config.n_chains)
        seq = BroadcastSequencer(len(participants), n_chains)
        chain_index = {r: i for i, r in enumerate(participants)}
        expected = self._expected(total, nbytes, chain_hops(
            self.fabric.topology, [self.hosts[r] for r in participants], n_chains))
        ops, procs = [], []
        key = new_key()
        epoch = self._tail_epoch()
        for r in range(self.size):
            engine = self.engines[r]
            mr = engine.nic.memory.register(total, key=key)
            # Own shard is placed locally — the paper's roots never receive
            # their own multicast back (the tree excludes the ingress port).
            place_own(r, mr)
            op = OpState(
                sim=self.sim, coll_id=cid, kind="allgather", rank=r,
                comm_size=self.size, mr=mr, plan=plan, subgroups=sub,
                send_lo=r * chunks_per_rank, send_hi=(r + 1) * chunks_per_rank,
                expected=expected,
            )
            if r in self.dead_ranks:
                op.abandon()
                ops.append(op)
                continue
            for d in sorted(self.dead_ranks):
                op.mark_void(d * chunks_per_rank, chunks_per_rank)
                op.dead_ranks.add(d)
            op.maybe_complete()
            op.expect_tails(len(participants) - 1, epoch)
            idx = chain_index[r]
            pred = seq.predecessor(idx)
            succ = seq.successor(idx)
            engine.register_op(op)
            proc = self.sim.spawn(
                engine.run_op(
                    op,
                    participants,
                    idx,
                    activation_pred=participants[pred] if pred is not None else None,
                    activation_succ=participants[succ] if succ is not None else None,
                ),
                name=f"ag-c{cid}-r{r}",
            )
            procs.append((r, proc))
            ops.append(op)
        self._op_procs[cid] = procs
        return OpHandle(self, "allgather", cid, ops, nbytes)

    # -------------------------------------------------------- reduce-scatter

    def _launch_reduce_scatter(
        self,
        send_data: Sequence[np.ndarray],
        algorithm: str,
        cost: Optional[HostCostModel],
        segment_bytes: int,
    ) -> CollectiveHandle:
        from repro.core.baselines.reduce import (
            inc_reduce_scatter,
            ring_reduce_scatter,
        )

        if algorithm == "inc":
            pending = inc_reduce_scatter(
                self.fabric, send_data, self.hosts, cost,
                segment_bytes=segment_bytes, defer=True,
            )
        elif algorithm == "ring":
            pending = ring_reduce_scatter(
                self.fabric, send_data, self.hosts, cost, defer=True,
            )
        else:
            raise ValueError(f"unknown reduce-scatter algorithm {algorithm!r}")
        pending.comm = self
        return pending

    def reduce_scatter(
        self,
        send_data: Sequence[np.ndarray],
        algorithm: str = "inc",
        cost: Optional[HostCostModel] = None,
        segment_bytes: int = 4096,
    ) -> CollectiveResult:
        """Reduce-Scatter; runs the simulation to completion.
        ``send_data[r]`` is rank *r*'s float32 contribution and rank *r*
        ends up with reduced shard *r*.

        ``algorithm`` picks the substrate: ``"inc"`` (in-network compute,
        paper Fig 3 — the FSDP companion of multicast Allgather) or
        ``"ring"``.  ``cost`` defaults to the baseline
        :class:`HostCostModel` (RS runs on the RC P2P datapath, not this
        communicator's multicast engine, so its cost model is independent).
        """
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.REDUCE_SCATTER, data=send_data,
            algorithm=algorithm, cost=cost, segment_bytes=segment_bytes)))

    # ---------------------------------------------------------------- reduce

    def _launch_reduce(
        self,
        send_data: Sequence[np.ndarray],
        root: int,
        cost: Optional[HostCostModel],
        segment_bytes: int,
    ) -> CollectiveHandle:
        from repro.core.baselines.reduce import inc_reduce

        pending = inc_reduce(self.fabric, send_data, root, self.hosts, cost,
                             segment_bytes=segment_bytes, defer=True)
        pending.comm = self
        return pending

    def reduce(
        self,
        send_data: Sequence[np.ndarray],
        root: int,
        cost: Optional[HostCostModel] = None,
        segment_bytes: int = 4096,
    ) -> CollectiveResult:
        """Rooted Reduce on the INC substrate; runs the simulation to
        completion.  Every rank contributes float32 data; rank *root* ends
        up with the full reduced buffer (everyone else holds nothing)."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.REDUCE, data=send_data, root=root,
            cost=cost, segment_bytes=segment_bytes)))

    # ------------------------------------------------------------- allreduce

    def _launch_allreduce(
        self,
        send_data: Sequence[np.ndarray],
        algorithm: str,
        cost: Optional[HostCostModel],
        segment_bytes: int,
    ) -> ComposedHandle:
        if algorithm not in ("inc", "ring"):
            raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
        arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1)
                  for d in send_data]
        elems = arrays[0].size
        if any(a.size != elems for a in arrays):
            raise ValueError("all contributions must have the same length")
        if elems % self.size:
            raise ValueError(
                f"element count {elems} must divide into {self.size} shards")
        shard_bytes = (elems // self.size) * 4
        chunk = min(self.config.chunk_size, shard_bytes) if shard_bytes else 0
        if self.size > 1 and shard_bytes % max(chunk, 1):
            raise ValueError(
                f"allreduce shard size {shard_bytes} must be a multiple of "
                f"the chunk size {chunk} so the allgather phase stays "
                "chunk-aligned")
        # The reduced shards feed the allgather by reference — the
        # regions a manual RS → AG chain would pass.
        return ComposedHandle(
            self, elems * 4,
            lambda: self._launch_reduce_scatter(arrays, algorithm, cost,
                                                segment_bytes),
            lambda rs: self._launch_allgather(rs.buffers))

    def allreduce(
        self,
        send_data: Sequence[np.ndarray],
        algorithm: str = "inc",
        cost: Optional[HostCostModel] = None,
        segment_bytes: int = 4096,
    ) -> CollectiveResult:
        """Allreduce composed as reduce-scatter → allgather inside one
        submission (paper Appendix B): the INC tree reduces and shards,
        then the multicast engine gathers the reduced shards.  ``algorithm``
        picks the reduce-scatter substrate ("inc" or "ring").  Runs the
        simulation to completion."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.ALLREDUCE, data=send_data,
            algorithm=algorithm, cost=cost, segment_bytes=segment_bytes)))

    # -------------------------------------------------------------- alltoall

    def _launch_alltoall(
        self,
        send_data: Sequence[np.ndarray],
        cost: Optional[HostCostModel],
        chunk_bytes: Optional[int],
    ) -> CollectiveHandle:
        from repro.core.baselines.alltoall import p2p_alltoall
        from repro.core.baselines.base import P2PNet

        if chunk_bytes is None and self.size:
            # Default to the communicator's chunking discipline when it
            # divides the block evenly and fits the RC notification pool;
            # otherwise fall back to one write per block.
            nbytes = int(np.ascontiguousarray(send_data[0]).nbytes)
            block = nbytes // self.size
            c = min(self.config.chunk_size, block) if block else 0
            if c and block % c == 0 and block // c <= P2PNet._DUMMY_POOL:
                chunk_bytes = c
        pending = p2p_alltoall(self.fabric, send_data, self.hosts, cost,
                               chunk_bytes=chunk_bytes, defer=True)
        pending.comm = self
        return pending

    def alltoall(
        self,
        send_data: Sequence[np.ndarray],
        cost: Optional[HostCostModel] = None,
        chunk_bytes: Optional[int] = None,
    ) -> CollectiveResult:
        """Alltoall (MoE expert-parallel traffic); runs the simulation to
        completion.  ``send_data[r]`` holds P equal blocks; block *i* lands
        as block *r* of rank *i*'s receive buffer.  Runs over unicast RC
        QPs with a rotation schedule so the instantaneous traffic matrix
        stays a permutation."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.ALLTOALL, data=send_data, cost=cost,
            chunk_bytes=chunk_bytes)))

    # ------------------------------------------------------------ execution

    def run(self, *handles: CollectiveHandle) -> None:
        """Advance the simulation until every handle completes."""
        targets = handles or self._in_flight()
        self.sim.drain([ev for h in targets for ev in h.wait_events])

    def release(self, handle: CollectiveHandle) -> None:
        """Free the op's registered buffers and id (after completion)."""
        handle._release()
        self.fabric.collectives.pop(handle.handle_id, None)

    def _in_flight(self) -> List[CollectiveHandle]:
        """This communicator's handles submitted and not yet released."""
        return [h for h in self.fabric.collectives.values() if h.comm is self]

    def _snapshot(self) -> Dict[str, int]:
        return {
            "switch_bytes": self.fabric.switch_egress_bytes(),
            "switch_payload_bytes": self.fabric.switch_egress_bytes(payload_only=True),
            "host_injected_bytes": self.fabric.host_injected_bytes(),
            "fabric_drops": self.fabric.total_drops(),
            "rnr_drops": self.fabric.total_rnr_drops(),
        }

    def _engine_snapshot(self) -> Dict[str, object]:
        ff = self.ff
        return {
            "sim_events": self.sim.events_processed,
            # Retired counters of the deleted packet trains and CQE
            # batches, kept at 0 for their one reader, the perf ledger
            # (benchmarks/perf/harness.py).
            "trains": 0,
            "train_packets": 0,
            "cqe_batches": 0,
            "batched_cqes": 0,
            "stray_cqes": sum(e.stray_cqes for e in self.engines),
            "ff_phases": ff.ff_phases,
            "ff_skipped_events": ff.ff_skipped_events,
            # ... and the phases it declined (by reason: ``ff_misses``)
            "ff_aborts": sum(self.fabric.fold_misses["data"].values()),
            # Control-plane bring-up (DESIGN.md §6g): pairs created, WRs
            # posted to the per-rank SRQs, slabs added by the low-watermark
            # rule, messages that found an SRQ dry and were parked.
            "ctrl_pairs": len(self._ctrl_pairs) // 2,
            "ctrl_recv_posted": sum(e.ctrl.srq.posted for e in self.engines),
            "ctrl_srq_refills": sum(e.ctrl.srq_refills for e in self.engines),
            "ctrl_parked": sum(e.ctrl.srq.parked_total for e in self.engines),
            # Control-plane folds (DESIGN.md §6i) and INC folds (§6j)
            "ctrl_folds": self.cf.folds,
            "inc_folds": self.fabric.inc_folds,
        }

    def _run_sync(self, handle: CollectiveHandle) -> CollectiveResult:
        before = self._snapshot()
        eng_before = self._engine_snapshot()
        ledger = {fold: dict(misses)
                  for fold, misses in self.fabric.fold_misses.items()}
        try:
            self.run(handle)
            after = self._snapshot()
            eng_after = self._engine_snapshot()
            traffic = {k: after[k] - before[k] for k in before}
            engine = {k: eng_after[k] - eng_before[k] for k in eng_before}
            for fold, misses in self.fabric.fold_misses.items():
                was = ledger[fold]
                engine[_MISS_KEYS[fold]] = {
                    reason: n - was.get(reason, 0)
                    for reason, n in misses.items() if n != was.get(reason, 0)}
            return handle.result(traffic, engine)
        finally:  # a collective that aborted or raised is released too
            self.release(handle)

    def broadcast(self, root: int, data: np.ndarray) -> CollectiveResult:
        """Broadcast *data* from *root*; runs the simulation to completion."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.BROADCAST, data=data, root=root)))

    def allgather(self, send_data: Sequence[np.ndarray]) -> CollectiveResult:
        """Allgather; ``send_data[r]`` is rank *r*'s contribution.  Runs the
        simulation to completion."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.ALLGATHER, data=send_data)))
