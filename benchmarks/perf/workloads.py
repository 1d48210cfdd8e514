"""The four workloads: fabric, config, payload, request, check and bound.

Everything here is built from ``repro`` top-level names only, so the
scenarios survive a reshuffle of the package's internals.  The full-size
scenarios are the speedometer's ``bcast1024`` / ``ag1024`` / ``ar188`` (same
virtual time and event count) plus a lossy broadcast the speedometer runs
at a coarser grain.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from repro import (
    CollectiveConfig,
    CollectiveKind,
    CollectiveRequest,
    Communicator,
    Fabric,
    FaultSpec,
    GilbertElliott,
    RandomStreams,
    Simulator,
    Topology,
)
from repro.units import KiB, MiB, gbit_per_s

__all__ = ["Workload", "WORKLOAD_NAMES", "workloads", "build_config",
           "config_applied", "scenario", "build_fabric", "make_payload",
           "make_request", "run_sync", "verify", "time_bound_s",
           "delivered_bytes"]

LINK_BANDWIDTH = gbit_per_s(56)  #: bytes/s on every link
MTU = 4096

#: Loss model of ``bcast188lossy`` (bursty: ~0.4 % stationary loss).
LOSS = GilbertElliott(p_good_bad=0.01, p_bad_good=0.3,
                      drop_good=0.001, drop_bad=0.10)
#: Seed of the loss streams.  Fixed, not ``--seed``: one root-uplink drop
#: sends recovery all the way round the ring, so across loss seeds the
#: workload is bimodal (3.6 ms or 12-15 ms simulated, 78 k-110 k events) and
#: no per-run median of a few realisations is steady enough to compare two
#: commits.  Seed 0 is a typical slow-mode pattern.
LOSS_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  #: one line; copied into BENCHMARK.json
    kind: CollectiveKind
    #: ``Topology`` factory name and its arguments
    topology: Tuple[str, Tuple[int, ...]]
    #: broadcast: message size; allgather / allreduce: per-rank contribution
    message_bytes: int
    #: protocol knobs passed to ``CollectiveConfig`` (no engine selection)
    config: Dict[str, Any] = field(default_factory=dict)
    #: ask for the exact flow-level fast-forward while the knob exists
    fast_forward: bool = False
    lossy: bool = False


def workloads(smoke: bool = False) -> Tuple[Workload, ...]:
    """The workload table; ``smoke`` swaps in 16-host fabrics of the same
    four shapes (same names, numbers not comparable)."""
    big = ("leaf_spine", (16, 2, 2) if smoke else (1024, 64, 32))
    bed = ("leaf_spine", (16, 2, 2)) if smoke else ("testbed_188", ())
    bed_ranks = 16 if smoke else 188
    return (
        Workload(
            "bcast1024",
            "one folded 512 KiB UC broadcast on 1024 hosts: host time is "
            "per-rank datapath bring-up plus fold commit, not the event loop",
            CollectiveKind.BROADCAST, big, (64 if smoke else 512) * KiB,
            {"chunk_size": 4 * KiB, "transport": "uc"}, fast_forward=True),
        Workload(
            "ag1024",
            "1024 folded allgather phases of 1 KiB per rank: fold plus P^2 "
            "payload materialisation, the largest resident set",
            CollectiveKind.ALLGATHER, big, KiB,
            {"chunk_size": KiB, "transport": "uc",
             "adaptive_cutoff": False, "cutoff_alpha": 10e-3},
            fast_forward=True),
        Workload(
            "ar188",
            "composed INC allreduce on the 188-host testbed: all packet "
            "level, nothing folds, so it bypasses fold and payload changes",
            CollectiveKind.ALLREDUCE, bed, bed_ranks * 1024 * 4,
            {"chunk_size": 4 * KiB, "n_chains": bed_ranks}),
        Workload(
            "bcast188lossy",
            "1 MiB UD broadcast under Gilbert-Elliott loss on every link: "
            "the slow path and recovery set the result, nothing folds",
            CollectiveKind.BROADCAST, bed, MiB,
            {"chunk_size": 4 * KiB}, lossy=True),
    )


WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in workloads())


def build_config(w: Workload) -> CollectiveConfig:
    """The one place a config is built.  ``fast_forward`` is the only
    engine-selection field ever set, and only while ``CollectiveConfig``
    still declares it; every other engine choice is the library default."""
    kwargs = dict(w.config)
    declared = {f.name for f in dataclasses.fields(CollectiveConfig)}
    if w.fast_forward and "fast_forward" in declared:
        kwargs["fast_forward"] = "exact"
    return CollectiveConfig(**kwargs)


def build_fabric(w: Workload, seed: int) -> Fabric:
    factory, args = w.topology
    fabric = Fabric(
        Simulator(), getattr(Topology, factory)(*args),
        link_bandwidth=LINK_BANDWIDTH, mtu=MTU,
        streams=RandomStreams(LOSS_SEED if w.lossy else seed))
    if w.lossy:
        fabric.set_fault_all(lambda src, dst: FaultSpec(gilbert_elliott=LOSS))
    return fabric


def make_payload(w: Workload, seed: int, n_ranks: int) -> Any:
    """Seeded payload: bytes for broadcast / allgather, small integers as
    float32 for allreduce (their sums are exact, so the check is too)."""
    rng = np.random.default_rng(seed)
    if w.kind is CollectiveKind.BROADCAST:
        return rng.integers(0, 256, w.message_bytes, dtype=np.uint8)
    if w.kind is CollectiveKind.ALLGATHER:
        return list(rng.integers(0, 256, (n_ranks, w.message_bytes),
                                 dtype=np.uint8))
    return list(rng.integers(0, 256, (n_ranks, w.message_bytes // 4),
                             dtype=np.uint8).astype(np.float32))


def make_request(w: Workload, data: Any) -> CollectiveRequest:
    """The request the sync call of :func:`run_sync` submits."""
    if w.kind is CollectiveKind.BROADCAST:
        return CollectiveRequest(kind=w.kind, data=data, root=0)
    if w.kind is CollectiveKind.ALLREDUCE:
        return CollectiveRequest(kind=w.kind, data=data, algorithm="inc")
    return CollectiveRequest(kind=w.kind, data=data)


def run_sync(w: Workload, comm: Communicator, data: Any):
    """The collective through its sync public call."""
    if w.kind is CollectiveKind.BROADCAST:
        return comm.broadcast(0, data)
    if w.kind is CollectiveKind.ALLREDUCE:
        return comm.allreduce(data, algorithm="inc")
    return comm.allgather(data)


def verify(w: Workload, result, data: Any) -> bool:
    if w.kind is CollectiveKind.BROADCAST:
        return bool(result.verify_broadcast(data))
    if w.kind is CollectiveKind.ALLREDUCE:
        return bool(result.verify_allreduce(data))
    return bool(result.verify_allgather(data))


def time_bound_s(w: Workload, n_ranks: int) -> float:
    """Analytic lower bound on simulated time: ``N/B`` broadcast,
    ``(P-1)*n/B`` allgather, ``2*N/B`` allreduce."""
    if w.kind is CollectiveKind.BROADCAST:
        return w.message_bytes / LINK_BANDWIDTH
    if w.kind is CollectiveKind.ALLGATHER:
        return (n_ranks - 1) * w.message_bytes / LINK_BANDWIDTH
    return 2 * w.message_bytes / LINK_BANDWIDTH


def delivered_bytes(w: Workload, result) -> int:
    """Payload bytes that reached receivers (every rank but a broadcast's
    root receives)."""
    receivers = result.comm_size - (w.kind is CollectiveKind.BROADCAST)
    return receivers * result.recv_bytes_per_rank


def config_applied(cfg: CollectiveConfig) -> Dict[str, Any]:
    """Every field of the config as run, defaults included, so a changed
    default or a dropped knob shows in the output document."""
    out: Dict[str, Any] = dataclasses.asdict(cfg)
    return {k: v if isinstance(v, (bool, int, float, str, dict, type(None)))
            else str(v) for k, v in out.items()}


def scenario(w: Workload) -> Dict[str, Any]:
    factory, args = w.topology
    return {"topology": f"Topology.{factory}{args}", "kind": str(w.kind),
            "message_bytes": w.message_bytes, "link_gbit_per_s": 56,
            "mtu": MTU, "lossy": w.lossy,
            "loss_seed": LOSS_SEED if w.lossy else None}
