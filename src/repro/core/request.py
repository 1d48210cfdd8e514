"""The unified collective submission surface.

Every collective a :class:`~repro.core.communicator.Communicator` can run
is described by one :class:`CollectiveRequest` — a validated, declarative
record of *what* to run (kind, payload, root) plus the
substrate knobs the baseline-backed kinds need (cost model, segment/chunk
sizes).  ``Communicator.submit(request)`` dispatches on
:class:`CollectiveKind` and returns a :class:`CollectiveHandle`; the
per-kind convenience methods (``broadcast``, ``allgather``, …) are thin
wrappers that build the request for you.

Validation is *eager*: illegal kind/root/dtype combinations
raise :class:`CollectiveRequestError` at construction time, long before
any simulator state is touched — a rejected request never half-registers
buffers or burns a collective id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.communicator import CollectiveResult

__all__ = [
    "CollectiveKind",
    "CollectiveRequest",
    "CollectiveRequestError",
    "CollectiveHandle",
    "PhaseStats",
    "ROOTED_KINDS",
    "REDUCING_KINDS",
]


class CollectiveKind(str, enum.Enum):
    """The collectives a :class:`Communicator` can run.

    A ``str`` subclass so existing ``result.kind == "allgather"``
    comparisons keep working, while payload accounting dispatches on the
    enum and **raises** on unknown kinds instead of silently falling back
    to broadcast math.
    """

    BROADCAST = "broadcast"
    ALLGATHER = "allgather"
    REDUCE_SCATTER = "reduce_scatter"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    ALLTOALL = "alltoall"

    def __str__(self) -> str:  # "broadcast", not "CollectiveKind.BROADCAST"
        return self.value


#: kinds that take (and require) a root rank
ROOTED_KINDS = frozenset({CollectiveKind.BROADCAST, CollectiveKind.REDUCE})
#: kinds that apply a reduction operator to float payloads
REDUCING_KINDS = frozenset(
    {CollectiveKind.REDUCE_SCATTER, CollectiveKind.REDUCE, CollectiveKind.ALLREDUCE}
)


class CollectiveRequestError(ValueError):
    """A :class:`CollectiveRequest` combined fields illegally (unknown
    kind, missing/forbidden root, unsupported dtype).

    A ``ValueError`` subclass so pre-existing ``except ValueError``
    call sites keep working, but typed so new code can catch request
    mistakes specifically.
    """


@dataclass(frozen=True)
class CollectiveRequest:
    """A validated description of one collective to submit.

    Parameters
    ----------
    kind:
        A :class:`CollectiveKind` or its string value.  Unknown strings
        raise :class:`CollectiveRequestError` — the old habit of threading
        raw ``kind=`` strings into op state is deprecated; requests are the
        one place a kind string may enter the system.
    data:
        Broadcast takes the root's single array; every other kind takes a
        sequence of per-rank contributions (length checked at submit time
        against the communicator size).
    root:
        Required for the rooted kinds (broadcast, reduce); must be left
        ``None`` for the symmetric kinds (allgather, reduce_scatter,
        allreduce, alltoall).  Range-checked at submit time.
    algorithm:
        Substrate selector where one exists (reduce_scatter/allreduce:
        ``"inc"`` or ``"ring"``); ``None`` picks the kind's default.
    cost:
        Host cost model for the baseline-substrate kinds (RC P2P / INC
        datapaths are independent of the multicast engine's model).
    segment_bytes:
        INC tree segment size (reducing kinds).
    chunk_bytes:
        RDMA write size for alltoall blocks (defaults to one whole block).
    """

    kind: CollectiveKind
    data: Any
    root: Optional[int] = None
    algorithm: Optional[str] = None
    cost: Optional[Any] = None
    segment_bytes: int = 4096
    chunk_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            kind = CollectiveKind(self.kind)
        except ValueError:
            raise CollectiveRequestError(
                f"unknown collective kind {self.kind!r}; valid kinds: "
                f"{', '.join(k.value for k in CollectiveKind)}"
            ) from None
        object.__setattr__(self, "kind", kind)

        if kind in ROOTED_KINDS:
            if self.root is None:
                raise CollectiveRequestError(f"{kind} requires a root rank")
            if not isinstance(self.root, (int, np.integer)) or self.root < 0:
                raise CollectiveRequestError(
                    f"{kind} root must be a non-negative rank, got {self.root!r}"
                )
        elif self.root is not None:
            raise CollectiveRequestError(
                f"{kind} is rootless; root={self.root!r} is not allowed"
            )

        if kind in REDUCING_KINDS:
            for arr in self._arrays():
                dt = np.asarray(arr).dtype
                if not (np.issubdtype(dt, np.floating) or np.issubdtype(dt, np.integer)):
                    raise CollectiveRequestError(
                        f"{kind} reduces float32 sums; dtype {dt} is not castable"
                    )

        if self.algorithm is not None and kind not in (
            CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLREDUCE
        ):
            raise CollectiveRequestError(
                f"{kind} has a fixed substrate; algorithm={self.algorithm!r} "
                "is not allowed"
            )
        if self.segment_bytes < 1:
            raise CollectiveRequestError("segment_bytes must be >= 1")
        if self.chunk_bytes is not None:
            if kind is not CollectiveKind.ALLTOALL:
                raise CollectiveRequestError(
                    f"chunk_bytes applies only to alltoall, not {kind}")
            if self.chunk_bytes < 1:
                raise CollectiveRequestError("chunk_bytes must be >= 1")

        if kind is CollectiveKind.BROADCAST:
            if not isinstance(self.data, np.ndarray):
                raise CollectiveRequestError(
                    "broadcast takes the root's single ndarray payload"
                )
        else:
            if isinstance(self.data, np.ndarray) or not isinstance(self.data, Sequence):
                raise CollectiveRequestError(
                    f"{kind} takes a sequence of per-rank contributions"
                )
            if len(self.data) == 0:
                raise CollectiveRequestError(f"{kind} needs at least one contribution")

    def _arrays(self) -> List[Any]:
        if isinstance(self.data, np.ndarray):
            return [self.data]
        return list(self.data) if isinstance(self.data, Sequence) else [self.data]


@dataclass
class PhaseStats:
    """One phase of a collective on the virtual timeline.

    Simple kinds report a single phase named after the kind; composed
    kinds (allreduce = reduce_scatter → allgather) report one entry per
    sub-collective, so ``result.phases`` has a uniform shape everywhere.
    """

    name: str  #: phase label ("reduce_scatter", "allgather", "broadcast", …)
    kind: str  #: CollectiveKind value of the sub-collective
    t_begin: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_begin


class CollectiveHandle:
    """The protocol every in-flight collective satisfies.

    One shape for all six kinds — engine-backed (:class:`OpHandle`),
    baseline-substrate (:class:`~repro.core.baselines.base.PendingBaseline`)
    and composed (:class:`ComposedHandle`) collectives all expose::

        handle.kind          # CollectiveKind
        handle.done()        # bool, non-blocking
        handle.wait()        # advance the simulation until complete
        handle.result()      # CollectiveResult (after completion)
        handle.phases        # launched sub-phases, uniform shape
        handle.buffers       # per-rank result regions (PayloadBuffers)

    ``wait_events`` is the driver-facing face: the simulator events
    :meth:`Communicator.run` must drain for this handle.  Handles are
    tracked by a fabric-wide ``handle_id``; only engine-backed (sub-)ops
    carry an immediate-data ``coll_id``.

    :meth:`result` is built here, once for every kind: the completion
    check, the time span (from :attr:`phases`, which stop at each phase's
    end once it completed), the trace view and the merge of the caller's
    traffic / engine snapshots.  A handle supplies only what differs: the
    attributes below and :meth:`_outcome` (rank stats, dead ranks,
    validity masks, its own engine counters and traffic).
    """

    kind: CollectiveKind
    comm: Any = None
    handle_id: int = -1
    #: immediate-data collective id for engine-backed handles, else None
    coll_id: Optional[int] = None
    root: Optional[int] = None
    send_bytes: int  #: per-rank contribution (broadcast: the buffer)
    chunk_size: int
    transport: str
    buffers: Any = None  #: per-rank result regions (a ``PayloadBuffers``)
    #: the typed abort a failure policy raised for this collective, if any
    #: (:meth:`result` raises it)
    error: Optional[Exception] = None

    @property
    def complete(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def wait_events(self) -> List:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def phases(self) -> List[PhaseStats]:
        """Sub-phases launched so far (single entry for simple kinds); a
        phase still running ends at ``sim.now``."""
        raise NotImplementedError  # pragma: no cover - overridden

    def done(self) -> bool:
        """Non-blocking completion check."""
        return self.complete

    def wait(self) -> None:
        """Advance the simulation until this handle completes."""
        self.comm.run(self)

    def result(self, traffic: Optional[Dict[str, int]] = None,
               engine: Optional[Dict[str, object]] = None) -> CollectiveResult:
        """The :class:`~repro.core.communicator.CollectiveResult` of a
        completed collective.  *traffic* and *engine* are the caller's
        fabric and simulator snapshot deltas over the run (the blocking
        ``Communicator`` calls pass them); *traffic* defaults to what the
        handle measured itself (a baseline: the fabric's delta since its
        start)."""
        if not self.complete:
            raise RuntimeError("collective has not completed")
        from repro.core import communicator  # it imports this module

        fields = self._outcome()
        own_traffic = fields.pop("traffic", {})
        counters = fields.pop("engine", {})
        phases = self.phases
        t_begin, t_end = phases[0].t_begin, phases[-1].t_end
        tracer = getattr(self.comm, "tracer", None)
        return communicator.CollectiveResult(
            kind=self.kind, comm_size=len(self.buffers),
            send_bytes=self.send_bytes, chunk_size=self.chunk_size,
            transport=self.transport, t_begin=t_begin, t_end=t_end,
            buffers=self.buffers,
            traffic=own_traffic if traffic is None else traffic,
            engine={**(engine or {}), **counters},
            trace=tracer.view(t_begin, t_end) if tracer is not None else None,
            root=self.root, phase_stats=phases, **fields)

    # ------------------------------------------------------------- internals

    def _outcome(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        """The result fields this kind of handle decides: ``ranks`` (a
        ``RankStats`` per surviving rank), and optionally ``dead_ranks``,
        ``validity``, ``engine`` (counters merged over the caller's) and
        ``traffic`` (the default when the caller passes none).  Raises the
        collective's typed failure, if it had one."""
        raise NotImplementedError

    def on_crash(self, rank: int) -> None:
        """Fabric-crash notification (the dead host's software is already
        torn down by the communicator); handles with baseline-substrate
        phases use this to apply the communicator's failure policy."""

    def _release(self) -> None:
        """Free the collective's registered memory (and engine op state)."""
