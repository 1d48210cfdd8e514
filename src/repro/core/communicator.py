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
from collections import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np

from repro.core.chunking import ChunkPlan, ImmLayout
from repro.core.control import MESSAGE_BYTES, ControlFold
from repro.core.costmodel import HostCostModel
from repro.core.ops import OpState, RKEY_BASE
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
from repro.core.subgroups import SubgroupPlan
from repro.models.schedule import chain_hops, chain_schedule
from repro.net.fabric import Fabric
from repro.net.memory import MemoryRegion
from repro.net.nic import QueuePair, Transport
from repro.net.topology import host_name
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceConfig, Tracer, TraceView
from repro.sim.events import AllOf
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
    "BaselineHandle",
    "ComposedHandle",
    "ReduceScatterHandle",
    "PhaseBreakdown",
    "PhaseStats",
    "RankStats",
    "CollectiveResult",
    "PayloadBuffers",
]


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
    #: bounded in-flight batches on the send path
    max_outstanding_batches: int = 4
    #: staging-ring slots per subgroup (receive queue depth)
    staging_slots: int = 256

    # --- reliability ----------------------------------------------------
    #: cutoff-timer slack α (§III-C): timeout = N/B_link + α
    cutoff_alpha: float = 200e-6
    #: adapt the cutoff slack from observed delivery (TCP-RTO-style EWMA,
    #: clamped to ``[CUTOFF_ALPHA_MIN, CUTOFF_ALPHA_MAX]``); the first op
    #: always uses the static ``cutoff_alpha``
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
                     "max_outstanding_batches", "staging_slots"):
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
    #: (virtual time, timeout armed, reason) — cutoff/recovery decisions
    timer_trace: List[tuple] = field(default_factory=list)


class PayloadBuffers(abc.Sequence):
    """``CollectiveResult.buffers`` of an engine-backed collective: a
    read-only sequence over the per-rank op regions (DESIGN.md §6h).
    ``buffers[r]`` is rank *r*'s array and materialises exactly that rank;
    the ``verify_*`` checks go through the regions and materialise none."""

    def __init__(self, regions: List[MemoryRegion], dtype=np.uint8) -> None:
        self.regions = regions
        self.dtype = dtype

    def __len__(self) -> int:
        return len(self.regions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.regions)))]
        buf = self.regions[index].buf
        return buf if self.dtype == np.uint8 else buf.view(self.dtype)


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
    #: per-rank result arrays; a :class:`PayloadBuffers` for the
    #: engine-backed kinds (``buffers[r]`` materialises rank *r* on access)
    buffers: Sequence[np.ndarray]
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
        single entry spanning the whole window."""
        if self.phase_stats:
            return list(self.phase_stats)
        return [PhaseStats(str(self.kind), str(self.kind),
                           self.t_begin, self.t_end)]

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
        counters, escalations, and the merged per-rank retry histogram."""
        histogram: Dict[int, int] = {}
        for r in self.ranks:
            for invocation, rounds in enumerate(r.retry_histogram):
                histogram[invocation] = histogram.get(invocation, 0) + rounds
        return {
            "recoveries": self.counter_total("recoveries"),
            "recovered_chunks": self.counter_total("recovered_chunks"),
            "fetch_rounds": self.counter_total("fetch_rounds"),
            "fetch_ack_timeouts": self.counter_total("fetch_ack_timeouts"),
            "neighbor_escalations": self.counter_total("neighbor_escalations"),
            "retry_histogram": histogram,
            "max_timer_rearms": max(
                (len(r.timer_trace) for r in self.ranks), default=0
            ),
        }

    def _holds(self, r: int, expected: np.ndarray, memo: Dict[object, List[int]],
               lo: int = 0, hi: Optional[int] = None) -> bool:
        """Exact check that bytes ``[lo, hi)`` (default: all) of rank *r*'s
        buffer equal ``expected``'s.  Engine-backed results compare
        segment-wise through the op regions, materialising nothing; *memo*
        (one per *expected*) shares comparisons of a common source."""
        bufs = self.buffers
        if isinstance(bufs, PayloadBuffers):
            region = bufs.regions[r]
            if hi is None and region.nbytes != expected.nbytes:
                return False
            return region.equals(expected, memo, lo, hi)
        if hi is None:
            return bool(np.array_equal(bufs[r], expected))
        return bool(np.array_equal(bufs[r][lo:hi], expected[lo:hi]))

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
        dead = set(self.dead_ranks)
        memo: Dict[object, List[int]] = {}
        for r in range(len(self.buffers)):
            if r in dead:
                continue
            mask = self.validity[r] if self.validity is not None else None
            if mask is None:
                if not self._holds(r, expected, memo):
                    return False
                continue
            n_chunks = len(mask)
            # Shards are chunk-aligned by construction, so the owner of
            # chunk i is i // (chunks per rank).
            chunks_per_rank = n_chunks // self.comm_size
            chunk = (len(expected) + n_chunks - 1) // n_chunks
            for i in range(n_chunks):
                lo = i * chunk
                hi = min(lo + chunk, len(expected))
                if mask[i]:
                    if not self._holds(r, expected, memo, lo, hi):
                        return False
                elif i // chunks_per_rank not in dead:
                    return False  # hole outside any dead rank's shard
        return True

    def verify_reduce_scatter(self, send_data: Sequence[np.ndarray],
                              rtol: float = 1e-3, atol: float = 1e-3) -> bool:
        """True when each rank holds its reduced float32 shard (within
        floating-point accumulation-order tolerance)."""
        arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1)
                  for d in send_data]
        total = arrays[0].copy()
        for a in arrays[1:]:
            total += a
        shard = total.size // self.comm_size
        return all(
            np.allclose(self.buffers[r], total[r * shard:(r + 1) * shard],
                        rtol=rtol, atol=atol)
            for r in range(self.comm_size)
        )

    def verify_reduce(self, send_data: Sequence[np.ndarray],
                      rtol: float = 1e-3, atol: float = 1e-3) -> bool:
        """True when the root holds the full reduced float32 buffer and
        every other rank holds nothing (rooted Reduce)."""
        arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1)
                  for d in send_data]
        total = arrays[0].copy()
        for a in arrays[1:]:
            total += a
        for r, buf in enumerate(self.buffers):
            vals = np.asarray(buf)
            if vals.dtype != np.float32:
                vals = vals.view(np.float32)
            if r == self.root:
                if not np.allclose(vals, total, rtol=rtol, atol=atol):
                    return False
            elif vals.size:
                return False
        return True

    def verify_allreduce(self, send_data: Sequence[np.ndarray],
                         rtol: float = 1e-3, atol: float = 1e-3) -> bool:
        """True when every surviving rank holds the reduced float32 sum of
        all contributions.  Degraded completions (a rank fail-stopped during
        the allgather phase) are checked through the validity masks: valid
        chunks must match the reduction, missing chunks must belong to a
        dead rank's shard.  Engine-backed buffers are compared through their
        regions (:meth:`MemoryRegion.allclose`) and none is materialised."""
        arrays = [np.ascontiguousarray(d, dtype=np.float32).reshape(-1)
                  for d in send_data]
        total = arrays[0].copy()
        for a in arrays[1:]:
            total += a
        dead = set(self.dead_ranks)
        memo: Dict[object, List[int]] = {}
        for r in range(len(self.buffers)):
            if r in dead:
                continue
            mask = self.validity[r] if self.validity is not None else None
            if mask is None:
                if not self._close(r, total, memo, rtol, atol):
                    return False
                continue
            n_chunks = len(mask)
            chunks_per_rank = n_chunks // self.comm_size
            elems = (total.size + n_chunks - 1) // n_chunks
            for i in range(n_chunks):
                lo = i * elems
                hi = min(lo + elems, total.size)
                if mask[i]:
                    if not self._close(r, total, memo, rtol, atol, lo, hi):
                        return False
                elif i // chunks_per_rank not in dead:
                    return False  # hole outside any dead rank's shard
        return True

    def _close(self, r: int, total: np.ndarray, memo: Dict[object, List[int]],
               rtol: float, atol: float, lo: int = 0,
               hi: Optional[int] = None) -> bool:
        """Whether float32 elements ``[lo, hi)`` (default: all) of rank *r*'s
        buffer are within ``rtol`` / ``atol`` of *total*'s.  Engine-backed
        results compare piece-wise through the op regions, materialising
        nothing; *memo* (one per *total* and tolerance) shares comparisons
        of a common source."""
        bufs = self.buffers
        if isinstance(bufs, PayloadBuffers):
            region = bufs.regions[r]
            if hi is None:
                if region.nbytes != total.nbytes:
                    return False
                hi = total.size
            return region.allclose(total, memo, rtol, atol, 4 * lo, 4 * hi)
        vals = np.asarray(bufs[r])
        if vals.dtype != np.float32:
            vals = vals.view(np.float32)
        if hi is None:
            return bool(np.allclose(vals, total, rtol=rtol, atol=atol))
        return bool(np.allclose(vals[lo:hi], total[lo:hi], rtol=rtol, atol=atol))

    def verify_alltoall(self, send_data: Sequence[np.ndarray]) -> bool:
        """True when rank *r*'s receive buffer is the concatenation of
        block *r* of every rank's contribution."""
        payloads = [np.ascontiguousarray(d).reshape(-1).view(np.uint8)
                    for d in send_data]
        block = payloads[0].nbytes // self.comm_size
        dead = set(self.dead_ranks)
        for r, buf in enumerate(self.buffers):
            if r in dead:
                continue
            expected = np.concatenate(
                [pl[r * block:(r + 1) * block] for pl in payloads])
            if not np.array_equal(np.asarray(buf).view(np.uint8), expected):
                return False
        return True


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
        self.root = root
        self.t_submit = comm.sim.now
        #: all-ranks-finished event (``done()`` — the protocol method —
        #: answers the non-blocking bool; this is the raw simulator event)
        self.done_event = AllOf(comm.sim, [op.op_done for op in ops])

    @property
    def complete(self) -> bool:
        return self.done_event.triggered

    @property
    def wait_events(self) -> List:
        """The events :meth:`Communicator.run` must drain for this handle."""
        return [self.done_event]

    @property
    def phases(self) -> List[PhaseStats]:
        return [PhaseStats(str(self.kind), str(self.kind), self.t_submit,
                           self.comm.sim.now)]

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

    def result(self, traffic: Optional[Dict[str, int]] = None,
               engine: Optional[Dict[str, int]] = None) -> CollectiveResult:
        if not self.complete:
            raise RuntimeError("collective has not completed")
        # Dead ranks' ops are abandoned, not completed — their phase records
        # stop at the crash instant and are excluded from the statistics.
        live_ops = [op for op in self.ops if not op.aborted]
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
                    timer_trace=list(op.timer_trace),
                )
            )
        t_begin = min(op.phases["start"] for op in live_ops)
        t_end = max(op.phases["final"] for op in live_ops)
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
        tracer = self.comm.tracer
        return CollectiveResult(
            kind=self.kind,
            comm_size=self.comm.size,
            send_bytes=self.send_bytes,
            chunk_size=self.comm.config.chunk_size,
            transport=self.comm.config.transport,
            t_begin=t_begin,
            t_end=t_end,
            ranks=ranks,
            buffers=self.buffers,
            traffic=traffic or {},
            engine={**(engine or {}), **self._payload_cost(live_ops)},
            trace=tracer.view(t_begin, t_end) if tracer is not None else None,
            dead_ranks=dead,
            validity=validity,
            root=self.root,
            phase_stats=[PhaseStats(str(self.kind), str(self.kind),
                                    t_begin, t_end)],
        )


class BaselineHandle(CollectiveHandle):
    """An in-flight baseline-substrate collective (Reduce-Scatter, rooted
    Reduce, Alltoall — anything running on the RC P2P / INC datapaths
    rather than the multicast engine).

    Quacks like :class:`OpHandle` (``complete`` / ``wait_events`` /
    ``result()``) so every kind rides the one Communicator surface —
    including mixed waits like ``comm.run(ag_handle, rs_handle)`` for the
    FSDP {AG, RS} pair.  ``wait_events`` exposes the underlying rank
    processes directly (a :class:`~repro.sim.process.Process` *is* an
    Event), deliberately not wrapping them in an ``AllOf``: resolution of
    an AllOf schedules one extra simulator event, which would perturb the
    exact event counts the speedometer perf gate pins.

    ``coll_id`` is ``None``: baseline collectives own no immediate-data id
    (the old negative-id convention is gone); handles are tracked by their
    communicator-local ``handle_id``.

    A fail-stop during a baseline collective tears down the dead rank's
    process unconditionally (software dies with the host).  When the
    communicator has a :class:`FailurePolicy`, the *whole* collective is
    failed fast at the crash instant — a reduction missing a contributor
    poisons every element, and the unicast exchange has no validity-mask
    story — and :meth:`result` raises a typed
    :class:`~repro.core.reliability.CollectiveAbortedError`.  Without a
    policy, survivors hang until the watchdog fires, exactly like the
    engine path with the liveness layer off.
    """

    def __init__(self, comm: "Communicator", kind: Union[str, CollectiveKind],
                 pending, transport: str = "rc",
                 root: Optional[int] = None) -> None:
        self.comm = comm
        self.kind = CollectiveKind(kind)
        self.coll_id = None
        self.pending = pending
        self.send_bytes = pending.send_bytes
        self.root = root
        self.transport = transport
        self.t_submit = comm.sim.now
        self._base = None
        self._crash_dead: Set[int] = set()
        self._crash_aborted = False

    @property
    def complete(self) -> bool:
        return self.pending.complete

    @property
    def wait_events(self) -> List:
        return list(self.pending.procs)

    @property
    def phases(self) -> List[PhaseStats]:
        t_end = self._base.t_end if self._base is not None else self.comm.sim.now
        return [PhaseStats(str(self.kind), str(self.kind),
                           self.pending.t_begin, t_end)]

    def on_crash(self, rank: int) -> None:
        procs = self.pending.procs
        if self.complete or rank >= len(procs):
            return
        if procs[rank].alive:
            procs[rank].kill()
        if self.comm.config.failure_policy is not None:
            self._crash_dead.add(rank)
            self._crash_aborted = True
            for p in procs:
                if p.alive:
                    p.kill()

    def _finish(self):
        """Materialize the baseline result (idempotent; a no-op drain when
        everything already triggered — bit-identical payloads either way)."""
        if self._base is None:
            self._base = self.pending.finish()
        return self._base

    def result(self, traffic: Optional[Dict[str, int]] = None,
               engine: Optional[Dict[str, int]] = None) -> CollectiveResult:
        if not self.complete:
            raise RuntimeError("collective has not completed")
        if self._crash_aborted:
            dead = sorted(self._crash_dead)
            raise CollectiveAbortedError(
                f"{self.kind} aborted: rank(s) {dead} fail-stopped "
                "mid-collective and the baseline substrate cannot degrade",
                rank=-1, coll_id=-1, kind=str(self.kind),
                phase=str(self.kind), dead_ranks=dead,
            )
        base = self._finish()
        ranks = []
        for r, t in enumerate(base.rank_times):
            elapsed = t - base.t_begin
            ranks.append(
                RankStats(
                    r,
                    {"start": base.t_begin, "final": t},
                    PhaseBreakdown(sync=0.0, multicast=elapsed,
                                   handshake=0.0, total=elapsed),
                    {},
                )
            )
        tracer = self.comm.tracer
        return CollectiveResult(
            kind=self.kind,
            comm_size=base.comm_size,
            send_bytes=base.send_bytes,
            chunk_size=self.comm.config.chunk_size,
            transport=self.transport,
            t_begin=base.t_begin,
            t_end=base.t_end,
            ranks=ranks,
            buffers=base.buffers,
            traffic=dict(base.traffic) if traffic is None else traffic,
            engine=engine or {},
            trace=(tracer.view(base.t_begin, base.t_end)
                   if tracer is not None else None),
            root=self.root,
            phase_stats=[PhaseStats(str(self.kind), str(self.kind),
                                    base.t_begin, base.t_end)],
        )


class ReduceScatterHandle(BaselineHandle):
    """Back-compat constructor: a Reduce-Scatter :class:`BaselineHandle`."""

    def __init__(self, comm: "Communicator", pending) -> None:
        super().__init__(comm, CollectiveKind.REDUCE_SCATTER, pending)


class ComposedHandle(CollectiveHandle):
    """A collective composed from a plan of sub-collectives run
    back-to-back inside one submission — allreduce is the INC
    reduce-scatter chained into the multicast allgather, the reduced
    shards serving directly as the allgather's staging buffers
    (paper Appendix B).

    A driver process walks the plan: it launches phase *k+1* at the exact
    instant phase *k*'s last rank process completes — the same instant a
    caller chaining ``comm.reduce_scatter(...)`` then
    ``comm.allgather(...)`` observes from ``run()`` — so the composed
    collective is **bit-identical in virtual time** to manual chaining.
    The driver itself never advances the clock (process resumption is a
    zero-delay callback at the completion instant); it only sequences
    launches.  Each phase reuses the full per-phase machinery: the
    reliability/liveness layer and the flow-level fast-forward see one
    ordinary collective at a time.
    """

    def __init__(self, comm: "Communicator", kind: Union[str, CollectiveKind],
                 plan: List, send_bytes: int) -> None:
        self.comm = comm
        self.kind = CollectiveKind(kind)
        self.coll_id = None
        self.send_bytes = send_bytes
        self.t_submit = comm.sim.now
        self._plan = list(plan)
        self._subs: List = []  # launched (name, handle) pairs
        self._current: Optional[CollectiveHandle] = None
        self._abort_dead: Optional[Set[int]] = None
        self._proc = comm.sim.spawn(self._drive(), name=f"{self.kind}-driver")

    def _drive(self):
        prev = None
        for name, factory in self._plan:
            sub = factory(prev)
            self._subs.append((name, sub))
            self._current = sub
            for ev in sub.wait_events:
                yield ev
            self._current = None
            if self._abort_dead is not None:
                break
            prev = sub
        if self._abort_dead is not None:
            dead = sorted(self._abort_dead)
            phase = self._subs[-1][0]
            raise CollectiveAbortedError(
                f"{self.kind} aborted: rank(s) {dead} fail-stopped during "
                f"the {phase} phase (reductions cannot degrade)",
                rank=-1, coll_id=-1, kind=str(self.kind), phase=phase,
                dead_ranks=dead,
            )
        return self.comm.sim.now

    @property
    def complete(self) -> bool:
        return self._proc.triggered

    @property
    def wait_events(self) -> List:
        return [self._proc]

    @property
    def phases(self) -> List[PhaseStats]:
        return [PhaseStats(name, str(sub.kind), sub.t_submit,
                           self.comm.sim.now)
                for name, sub in self._subs]

    def exclusive_coll_id(self) -> Optional[int]:
        sub = self._current
        return sub.exclusive_coll_id() if sub is not None else None

    def on_crash(self, rank: int) -> None:
        sub = self._current
        if sub is None or self.complete:
            return
        sub.on_crash(rank)
        if getattr(sub, "_crash_aborted", False):
            # Baseline (reduction) phase: the sub-handle already tore all
            # ranks down; surface the abort from the driver.  Engine-phase
            # crashes are handled by the liveness protocol instead.
            dead = set(sub._crash_dead)
            self._abort_dead = (self._abort_dead or set()) | dead

    def _release(self) -> None:
        for _name, sub in self._subs:
            sub._release()

    def result(self, traffic: Optional[Dict[str, int]] = None,
               engine: Optional[Dict[str, int]] = None) -> CollectiveResult:
        if not self.complete:
            raise RuntimeError("collective has not completed")
        if not self._proc.ok:
            raise self._proc.value
        (rs_name, rs), (ag_name, ag) = self._subs[0], self._subs[-1]
        rs_base = rs._finish()
        ag_res = ag.result()
        tracer = self.comm.tracer
        # The allgather ran over the reduced shards, so every surviving
        # rank's gather buffer *is* the full reduced vector.
        buffers = PayloadBuffers(ag_res.buffers.regions, dtype=np.float32)
        return CollectiveResult(
            kind=self.kind,
            comm_size=self.comm.size,
            send_bytes=self.send_bytes,
            chunk_size=self.comm.config.chunk_size,
            transport=f"rc+{self.comm.config.transport}",
            t_begin=rs_base.t_begin,
            t_end=ag_res.t_end,
            ranks=ag_res.ranks,
            buffers=buffers,
            traffic=traffic or {},
            # ag_res.engine holds the allgather phase's payload cost
            engine={**ag_res.engine, **(engine or {})},
            trace=(tracer.view(rs_base.t_begin, ag_res.t_end)
                   if tracer is not None else None),
            dead_ranks=ag_res.dead_ranks,
            validity=ag_res.validity,
            phase_stats=[
                PhaseStats(rs_name, str(rs.kind), rs_base.t_begin,
                           rs_base.t_end),
                PhaseStats(ag_name, str(ag.kind), ag_res.t_begin,
                           ag_res.t_end),
            ],
        )


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
        self._ctrl_pairs: Dict[tuple, QueuePair] = {}
        #: control messages sent and not yet served, over every rank
        self.ctrl_in_flight = [0]
        self.engines: List[RankEngine] = []
        for r in range(self.size):
            self.engines.append(RankEngine(self, r))
        self._coll_ids = itertools.count(0)
        self._handle_ids = itertools.count(0)
        #: in-flight handles by handle_id (one id space for every kind;
        #: engine-backed sub-ops additionally carry an immediate-data
        #: coll_id, but that is an engine detail, not the tracking key)
        self._active: Dict[int, CollectiveHandle] = {}
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
        fabric.on_crash(self._on_fabric_crash)
        fabric.sweep_listeners.append(self._on_sm_sweep)
        self.sim.add_watchdog_diagnostic(self._watchdog_diagnostic)

    # ------------------------------------------------------------- plumbing

    def host_of(self, rank: int) -> int:
        return self.hosts[rank]

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
        for handle in list(self._active.values()):
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
                last_timer = op.timer_trace[-1] if op.timer_trace else None
                lines.append(
                    f"  op c{cid} {op.kind}: {op.bitmap.count}/{op.n_chunks} chunks "
                    f"({op.placed.count} placed, {op.outstanding_copies} copies in "
                    f"flight), holes: {hole_str or 'none'}; last phase: {last_phase}; "
                    f"last timer: {last_timer}"
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
        # A deferred-commit fast-forward session must flush before a second
        # collective's packets can observe channel state; the overlap is
        # only detected at the *next* fold hook — too late.
        self.ff.preempt()
        # ... and a folded control phase hands back its unserved tokens
        self.cf.unfold()
        self.fabric.unfold_inc()  # ... and so does a folded INC pass
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
        handle.handle_id = next(self._handle_ids)
        self._active[handle.handle_id] = handle
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
        for r in range(self.size):
            engine = self.engines[r]
            mr = engine.nic.memory.register(nbytes, key=RKEY_BASE + cid)
            if r == root:
                mr.place(0, image, 0, nbytes)
            op = OpState(
                sim=self.sim, coll_id=cid, kind="broadcast", rank=r,
                comm_size=self.size, mr=mr, plan=plan, subgroups=sub,
                send_lo=0, send_hi=plan.n_chunks if r == root else 0, root=root,
                expected=expected,
            )
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
        size so shard boundaries align with chunk boundaries.
        """
        payloads = [self._as_bytes(d) for d in send_data]
        nbytes = payloads[0].nbytes
        if nbytes == 0:
            raise ValueError("cannot allgather empty buffers")
        if any(p.nbytes != nbytes for p in payloads):
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
        # One snapshot of every contribution per collective: placements
        # must never alias caller-owned memory (DESIGN.md §6h).
        image = np.concatenate(payloads)
        for r in range(self.size):
            engine = self.engines[r]
            mr = engine.nic.memory.register(total, key=RKEY_BASE + cid)
            # Own shard is placed locally — the paper's roots never receive
            # their own multicast back (the tree excludes the ingress port).
            mr.place(r * nbytes, image, r * nbytes, nbytes)
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
    ) -> ReduceScatterHandle:
        from repro.core.baselines.reduce import (
            inc_reduce_scatter,
            ring_reduce_scatter,
        )

        if algorithm == "inc":
            pending = inc_reduce_scatter(
                self.fabric, send_data, self.hosts, cost,
                segment_bytes=segment_bytes, defer=True, exclusive=self._alone,
            )
        elif algorithm == "ring":
            pending = ring_reduce_scatter(
                self.fabric, send_data, self.hosts, cost, defer=True,
            )
        else:
            raise ValueError(f"unknown reduce-scatter algorithm {algorithm!r}")
        return ReduceScatterHandle(self, pending)

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
    ) -> BaselineHandle:
        from repro.core.baselines.reduce import inc_reduce

        pending = inc_reduce(self.fabric, send_data, root, self.hosts, cost,
                             segment_bytes=segment_bytes, defer=True,
                             exclusive=self._alone)
        return BaselineHandle(self, CollectiveKind.REDUCE, pending, root=root)

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

        def rs_phase(_prev) -> BaselineHandle:
            return self._launch_reduce_scatter(arrays, algorithm, cost,
                                               segment_bytes)

        def ag_phase(rs_handle) -> OpHandle:
            # The reduced float32 shards feed the allgather directly —
            # byte-for-byte the buffers a manual RS → AG chain would pass.
            return self._launch_allgather(rs_handle._finish().buffers)

        return ComposedHandle(
            self, CollectiveKind.ALLREDUCE,
            [("reduce_scatter", rs_phase), ("allgather", ag_phase)],
            send_bytes=elems * 4,
        )

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
    ) -> BaselineHandle:
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
        return BaselineHandle(self, CollectiveKind.ALLTOALL, pending)

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
        targets = handles or tuple(self._active.values())
        self.sim.drain([ev for h in targets for ev in h.wait_events])

    def release(self, handle: CollectiveHandle) -> None:
        """Free the op's registered buffers and id (after completion)."""
        handle._release()
        self._active.pop(handle.handle_id, None)

    def ff_exclusive(self, coll_id: int) -> bool:
        """True when engine op *coll_id* is the only collective in flight —
        the flow-level fast-forward's single-collective gate (the fold
        cannot serialize link contention between concurrent collectives).
        A composed collective counts as exclusive while its *current* phase
        is exactly this engine op; a completed handle not yet released is
        not in flight."""
        live = [h for h in self._active.values() if not h.complete]
        return len(live) == 1 and live[0].exclusive_coll_id() == coll_id

    def _alone(self) -> bool:
        """The INC fold's exclusivity test: one collective in flight."""
        return len(self._active) == 1

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
            "ff_aborts": ff.ff_aborts,
            # ... and the phases it declined, by gate reason
            "ff_misses": dict(ff.misses),
            # Control-plane bring-up (DESIGN.md §6g): pairs created, WRs
            # posted to the per-rank SRQs, slabs added by the low-watermark
            # rule, messages that found an SRQ dry and were parked.
            "ctrl_pairs": len(self._ctrl_pairs) // 2,
            "ctrl_recv_posted": sum(e.ctrl.srq.posted for e in self.engines),
            "ctrl_srq_refills": sum(e.ctrl.srq_refills for e in self.engines),
            "ctrl_parked": sum(e.ctrl.srq.parked_total for e in self.engines),
            # Control-plane fold (DESIGN.md §6i): phases folded, and the
            # phases declined by gate reason.
            "ctrl_folds": self.cf.folds,
            "ctrl_fold_misses": dict(self.cf.misses),
            # INC passes folded (DESIGN.md §6j), and declined by reason
            "inc_folds": self.fabric.inc_folds,
            "inc_fold_misses": dict(self.fabric.inc_fold_misses),
        }

    def _run_sync(self, handle: CollectiveHandle) -> CollectiveResult:
        before = self._snapshot()
        eng_before = self._engine_snapshot()
        self.run(handle)
        after = self._snapshot()
        eng_after = self._engine_snapshot()
        traffic = {k: after[k] - before[k] for k in before}
        engine = {k: eng_after[k] - eng_before[k] for k in eng_before
                  if not k.endswith("_misses")}
        for key in ("ff_misses", "ctrl_fold_misses", "inc_fold_misses"):
            was = eng_before[key]
            engine[key] = {reason: n - was.get(reason, 0)
                           for reason, n in eng_after[key].items()
                           if n != was.get(reason, 0)}
        result = handle.result(traffic, engine)
        self.release(handle)
        return result

    def broadcast(self, root: int, data: np.ndarray) -> CollectiveResult:
        """Broadcast *data* from *root*; runs the simulation to completion."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.BROADCAST, data=data, root=root)))

    def allgather(self, send_data: Sequence[np.ndarray]) -> CollectiveResult:
        """Allgather; ``send_data[r]`` is rank *r*'s contribution.  Runs the
        simulation to completion."""
        return self._run_sync(self.submit(CollectiveRequest(
            kind=CollectiveKind.ALLGATHER, data=send_data)))
