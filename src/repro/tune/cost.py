"""Analytic pre-pruning: rank candidates with the closed-form models.

Simulating a knob point at 188 nodes costs seconds of wall-clock; the
analytic models cost microseconds.  This module combines the paper's
models — the alpha-beta collective times (:mod:`repro.models.speedup`),
the node-boundary byte counts (:mod:`repro.models.boundary`), and the
protocol footprint (:mod:`repro.models.footprint`) — with the
:class:`~repro.core.costmodel.HostCostModel` software roofline into a
single completion-time estimate per candidate, then keeps only the most
promising points for simulation.

The estimate is a *ranking* device, not a clock: the fidelity contract
(enforced by ``tests/test_tune_fidelity.py``) is rank correlation with
simulated runtimes over the tuner's grid, so pre-pruning cannot silently
discard the true optimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.reliability import CUTOFF_ALPHA_MIN
from repro.models.boundary import node_boundary_table
from repro.models.footprint import ProtocolFootprint
from repro.models.speedup import (
    time_composed_allreduce,
    time_mcast_allgather,
    time_mcast_bcast,
    time_p2p_alltoall,
)
from repro.net.topology import Topology
from repro.tune.scenario import Scenario
from repro.tune.store import config_from_knobs
from repro.units import gbit_per_s

__all__ = ["CostEstimate", "predict_time", "prune"]

#: wire parameters mirrored from the Fabric defaults the evaluator uses
LINK_LATENCY = 1e-6
SWITCH_DELAY = 0.1e-6
HEADER_BYTES = 64
#: base calibration granularity of the software cost model
BASE_CHUNK = 4096

#: effective per-packet loss probability of each named fault profile —
#: feeds the expected-recovery term so cutoff knobs rank on lossy keys
EFFECTIVE_LOSS = {"clean": 0.0, "bernoulli": 1e-3, "burst": 0.01}

_HOPS_CACHE: Dict[Tuple[str, int, str], int] = {}


def _host_hops(scenario: Scenario) -> int:
    """Worst-case host-to-host hop count of the scenario's topology
    (links on the path, switches included as hops via their delay)."""
    key = (scenario.resolved_topo, scenario.n_hosts, scenario.topo_params)
    if key not in _HOPS_CACHE:
        topo: Topology = scenario._topology()
        # Farthest pair from host 0 is representative on the symmetric
        # shapes the tuner targets (star / leaf-spine / testbed).
        hops = max(len(topo.path(0, d)) - 1 for d in range(1, topo.n_hosts))
        _HOPS_CACHE[key] = hops
    return _HOPS_CACHE[key]


@dataclass(frozen=True)
class CostEstimate:
    """Decomposed completion-time prediction for one candidate."""

    wire: float  #: serialization of the bottleneck NIC direction
    software: float  #: worker-loop roofline (receive + send posting)
    sequencing: float  #: chain-activation / barrier critical path
    fill: float  #: batch-assembly and store-and-forward pipeline fill
    recovery: float  #: expected slow-path cost under the fault profile
    staging_risk: float  #: overrun risk premium for undersized staging

    @property
    def total(self) -> float:
        """The scalar the pruner ranks on: a roofline of wire vs
        software, plus the additive latency terms."""
        return (max(self.wire, self.software) + self.sequencing
                + self.fill + self.recovery + self.staging_risk)

    def breakdown(self) -> Dict[str, float]:
        return {
            "wire": self.wire,
            "software": self.software,
            "sequencing": self.sequencing,
            "fill": self.fill,
            "recovery": self.recovery,
            "staging_risk": self.staging_risk,
            "total": self.total,
        }


def predict_time(scenario: Scenario, knobs: Dict[str, object]) -> CostEstimate:
    """Analytic completion-time estimate for one knob assignment."""
    cfg = config_from_knobs(knobs)
    p = scenario.n_hosts
    n = scenario.bucket
    bandwidth = gbit_per_s(scenario.link_gbit)
    chunk = cfg.chunk_size
    uc = scenario.transport == "uc"
    hops = _host_hops(scenario)
    hop_latency = hops * LINK_LATENCY + max(hops - 1, 0) * SWITCH_DELAY

    # --- wire: the Fig 3 node-boundary bytes through the bottleneck
    # direction, inflated by per-datagram header overhead.  UD datagrams
    # carry one chunk; UC chunks are split at the base MTU on the wire.
    datagram = chunk if not uc else min(chunk, BASE_CHUNK)
    header_factor = 1.0 + HEADER_BYTES / datagram
    boundary = node_boundary_table(n, p)[("allgather", "mcast")]
    if scenario.collective == "allgather":
        # Receive path absorbs every peer's buffer; the sequenced chain
        # keeps the shared tree busy with P·N total serialized payload.
        wire = time_mcast_allgather(
            n * header_factor, p, bandwidth, latency=0.0, n_chains=cfg.n_chains)
        recv_bytes = boundary.recv
    elif scenario.collective == "allreduce":
        # INC reduce-scatter serializes the full contribution up the tree,
        # then the multicast allgather redistributes the N/P shards — the
        # composed chain moves ~2N through the bottleneck NIC.
        wire = time_composed_allreduce(
            n * header_factor, p, bandwidth, n_chains=cfg.n_chains)
        recv_bytes = n
    elif scenario.collective == "alltoall":
        # Rotation-scheduled unicast: (P−1) permutation steps of one
        # N/P block each; receive and send demands are symmetric.
        wire = time_p2p_alltoall(n * header_factor, p, bandwidth)
        recv_bytes = n - n // p
    else:
        wire = time_mcast_bcast(n * header_factor, p, bandwidth)
        recv_bytes = n

    # Multi-rail striping: subgroup g plans its tree on plane g mod rails,
    # so the bottleneck NIC direction is split across min(subgroups, rails)
    # independent planes.  Without this term the pruner ranks every striped
    # candidate behind n_subgroups=1 and the true optimum never simulates.
    if scenario.resolved_topo == "multi_rail" and scenario.collective != "alltoall":
        rails = int(scenario._params().get("n_rails", 1))
        planes = min(max(cfg.n_subgroups, 1), max(rails, 1))
        if planes > 1:
            wire /= planes

    # --- software roofline: worker time to drain the receive path plus
    # the root/sender posting costs.  UD coarse candidates keep per-byte
    # cost constant (coarse_config rescales per-chunk costs); UC pays
    # per-CQE costs once per chunk — the Fig 15 amortization.
    if uc:
        n_recv_chunks = recv_bytes / chunk
        per_chunk = cfg.cost.per_recv_chunk_uc
    else:
        # cfg.cost is the coarse-calibrated model (per-chunk costs scaled
        # by chunk/BASE_CHUNK), so normalize back to per-base-unit cost.
        n_recv_chunks = recv_bytes / BASE_CHUNK
        per_chunk = cfg.cost.per_recv_chunk / max(chunk / BASE_CHUNK, 1.0)
    recv_cpu = n_recv_chunks * per_chunk / cfg.n_subgroups  # one worker each
    send_chunks = (n if scenario.collective == "allgather" else n) / chunk
    n_batches = math.ceil(send_chunks / cfg.batch_size)
    send_cpu = send_chunks * cfg.cost.send_wqe + n_batches * cfg.cost.doorbell
    software = max(recv_cpu, send_cpu)

    # --- sequencing: allgather roots activate in ceil(P / chains) steps,
    # each a control message over the fabric; broadcast pays one barrier.
    step = cfg.cost.ctrl_message + hop_latency
    if scenario.collective == "allgather":
        steps = math.ceil(p / max(cfg.n_chains, 1))
        sequencing = steps * step
    elif scenario.collective == "allreduce":
        # One INC-tree completion barrier, then the shard allgather's
        # chain activations.
        steps = math.ceil(p / max(cfg.n_chains, 1))
        sequencing = (steps + 1) * step
    else:
        # broadcast's start barrier / alltoall's rotation kickoff
        sequencing = step

    # --- pipeline fill: assembling the first send batch before the
    # doorbell rings, plus store-and-forward of one datagram per hop.
    wqe = cfg.cost.send_wqe
    fill = (min(cfg.batch_size, send_chunks) * wqe + cfg.cost.doorbell
            + hops * (datagram + HEADER_BYTES) / bandwidth)

    # --- expected recovery: lost chunks wait out the cutoff slack and a
    # fetch round-trip on the reliable ring (§III-C).
    loss = EFFECTIVE_LOSS[scenario.fault_profile]
    recovery = 0.0
    # alltoall rides reliable RC queue pairs — the UD cutoff/fetch slow
    # path never arms, so lossy keys add no expected-recovery term.
    if loss > 0.0 and scenario.collective != "alltoall":
        total_chunks = (p if scenario.collective == "allgather" else 1) * n / chunk
        expected_lost = loss * total_chunks
        slack = CUTOFF_ALPHA_MIN if cfg.adaptive_cutoff else cfg.cutoff_alpha
        fetch_rtt = 2 * hop_latency + 2 * cfg.cost.ctrl_message
        recovery = slack + expected_lost * (fetch_rtt + chunk / bandwidth)

    # --- staging risk: rings smaller than the in-flight demand of one
    # sender block RNR-drop under bursts; scale a mild premium by the
    # shortfall against the Fig 3 receive burst of one chunk per peer.
    staging_risk = 0.0
    if not uc and scenario.collective != "alltoall":
        fp = ProtocolFootprint(
            recv_buffer_bytes=n * (p if scenario.collective == "allgather" else 1),
            chunk_bytes=chunk,
            staging_slots=cfg.staging_slots,
            n_subgroups=cfg.n_subgroups,
        )
        burst_bytes = min(p - 1, cfg.staging_slots * 4) * chunk
        if fp.staging_bytes < burst_bytes:
            deficit = (burst_bytes - fp.staging_bytes) / bandwidth
            staging_risk = deficit

    return CostEstimate(
        wire=wire,
        software=software,
        sequencing=sequencing,
        fill=fill,
        recovery=recovery,
        staging_risk=staging_risk,
    )


def prune(
    scenario: Scenario,
    candidates: List[Dict[str, object]],
    keep: int,
) -> List[Tuple[Dict[str, object], CostEstimate]]:
    """Rank *candidates* by predicted time; return the best *keep*.

    Candidates with the same predicted total are indistinguishable to
    the model — evaluating more than one of them wastes simulation
    budget, so each predicted-time level sends a single representative
    and the budget spreads across genuinely different operating points.
    Ordering is fully deterministic: ties break on the canonical JSON of
    the knob dict, so repeated searches evaluate the same points.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    scored = [(knobs, predict_time(scenario, knobs)) for knobs in candidates]
    scored.sort(key=lambda item: (item[1].total,
                                  json.dumps(item[0], sort_keys=True, default=str)))
    seen = set()
    out: List[Tuple[Dict[str, object], CostEstimate]] = []
    for knobs, est in scored:
        signature = round(est.total, 12)
        if signature in seen:
            continue
        seen.add(signature)
        out.append((knobs, est))
        if len(out) == keep:
            break
    return out
