"""The FSDP interleaving scenario: concurrent Allgather + Reduce-Scatter.

In the FSDP pipeline (paper §II-A) an Allgather fetching the next layer's
parameters runs concurrently with the Reduce-Scatter synchronizing the
previous layer's gradients.  Both compete for NIC injection bandwidth.
Appendix B derives the speedup of the bandwidth-optimal pair
{AG_multicast, RS_INC} over {AG_ring, RS_ring} as ``S = 2 − 2/P``.

:func:`run_concurrent_pair` measures exactly that on the packet-level
simulator: both collectives are started at t=0 on the *same* fabric and
hosts, so they genuinely contend for the simulated links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baselines import ring_allgather, ring_reduce_scatter
from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.request import CollectiveKind, CollectiveRequest
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric

__all__ = ["FsdpPairResult", "pair_payloads", "run_concurrent_pair",
           "run_fsdp_backward_pipeline"]


@dataclass
class FsdpPairResult:
    """Makespan of one concurrent {Allgather, Reduce-Scatter} pair."""

    mode: str  # 'ring' | 'optimal'
    comm_size: int
    ag_bytes: int  #: per-rank Allgather contribution
    makespan: float  #: completion time of the slower collective
    ag_duration: float
    rs_duration: float
    correct: bool


def _ag_data(p: int, nbytes: int, seed: int = 0) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(p)]


def _rs_data(p: int, nbytes: int, seed: int = 1) -> List[np.ndarray]:
    elems = (nbytes // 4 // p) * p
    rng = np.random.default_rng(seed)
    return [rng.normal(size=elems).astype(np.float32) for _ in range(p)]


def pair_payloads(p: int, ag_bytes: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The seeded inputs of one pair: *p* Allgather shards of *ag_bytes*
    and *p* float32 Reduce-Scatter contributions of ``ag_bytes · p``."""
    return _ag_data(p, ag_bytes), _rs_data(p, ag_bytes * p)


def run_concurrent_pair(
    fabric: Fabric,
    mode: str,
    ag_bytes: int,
    hosts: Optional[Sequence[int]] = None,
    config: Optional[CollectiveConfig] = None,
    cost: Optional[HostCostModel] = None,
    verify: bool = True,
    payloads: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None,
) -> FsdpPairResult:
    """Run {Allgather, Reduce-Scatter} concurrently in the given *mode*.

    ``mode='ring'`` runs ring AG + ring RS; ``mode='optimal'`` runs the
    multicast AG (the paper's protocol) + INC RS.  The RS input size
    matches the AG receive size (Appendix B's symmetric setup): the RS
    contribution is ``ag_bytes · P`` so each RS shard is ``ag_bytes``.
    ``payloads`` is the pair's :func:`pair_payloads`, made here if omitted.
    """
    sim = fabric.sim
    hosts = list(hosts) if hosts is not None else list(range(fabric.n_hosts))
    p = len(hosts)
    ag_data, rs_data = payloads or pair_payloads(p, ag_bytes)
    t0 = sim.now

    if mode == "ring":
        ag_pending = ring_allgather(fabric, ag_data, hosts, cost, defer=True)
        rs_pending = ring_reduce_scatter(fabric, rs_data, hosts, cost, defer=True)
        ag_res = ag_pending.finish()
        rs_res = rs_pending.finish()
    elif mode == "optimal":
        # Both collectives run through the unified submission surface: the
        # multicast AG engine and the INC RS substrate started together,
        # drained by a single run() over the pair.  (Asserted bit-identical
        # in virtual time to submitting the pair by hand by
        # tests/test_submit_api.py.)
        comm = Communicator(fabric, hosts, config)
        ag = comm.submit(CollectiveRequest(
            kind=CollectiveKind.ALLGATHER, data=ag_data))
        rs = comm.submit(CollectiveRequest(
            kind=CollectiveKind.REDUCE_SCATTER, data=rs_data,
            algorithm="inc", cost=cost))
        comm.run(ag, rs)
        rs_res = rs.result()
        ag_res = ag.result()
        comm.release(ag)  # free the op's symmetric rkeys on every NIC
        comm.release(rs)
    else:
        raise ValueError(f"unknown mode {mode!r} (use 'ring' or 'optimal')")

    return FsdpPairResult(
        mode=mode,
        comm_size=p,
        ag_bytes=ag_bytes,
        makespan=max(ag_res.t_end, rs_res.t_end) - t0,
        ag_duration=ag_res.duration,
        rs_duration=rs_res.duration,
        correct=not verify or (ag_res.verify_allgather(ag_data)
                               and rs_res.verify_reduce_scatter(rs_data)),
    )


def run_fsdp_backward_pipeline(
    fabric: Fabric,
    mode: str,
    layer_shards: Sequence[int],
    hosts: Optional[Sequence[int]] = None,
    config: Optional[CollectiveConfig] = None,
    cost: Optional[HostCostModel] = None,
    payloads: Optional[Sequence[Tuple[List[np.ndarray], List[np.ndarray]]]] = None,
) -> float:
    """A multi-layer FSDP backward pass: for each layer ``i`` the gradient
    Reduce-Scatter overlaps the parameter Allgather of layer ``i−1``
    (backward prefetch), paper §II-A's pipeline.  Returns the total
    communication time of the step.

    Layers are processed back-to-front; each stage launches the pair for
    its layer concurrently and waits for both before moving on (the
    compute between stages is not modeled — this isolates the
    communication pipeline the paper optimizes).  ``payloads`` holds each
    layer's :func:`pair_payloads`, in layer order (made here if omitted).
    """
    shards = list(layer_shards)
    total = 0.0
    t0 = fabric.sim.now
    for shard, data in reversed(list(zip(shards, payloads or [None] * len(shards)))):
        res = run_concurrent_pair(fabric, mode, shard, hosts=hosts,
                                  config=config, cost=cost, verify=False,
                                  payloads=data)
        total = fabric.sim.now - t0
        if not res.correct:  # pragma: no cover - verify=False above
            raise AssertionError("pipeline data corruption")
    return total
