"""Analytic pre-pruning: rank candidates with the closed-form models.

Simulating a knob point at 188 nodes costs seconds of wall-clock; the
analytic models cost microseconds.  This module takes the collective's
chain schedule (:mod:`repro.models.schedule` — wire, receive software,
chain activations and pipeline fill, the same terms the cutoff timer
arms from) and adds two terms of its own, the expected recovery under
the scenario's fault profile and the staging-ring risk
(:mod:`repro.models.footprint`), into a single completion-time estimate
per candidate, then keeps only the most promising points for simulation.

The estimate is a *ranking* device, not a clock: the fidelity contract
(enforced by ``tests/test_tune_fidelity.py``) is rank correlation with
simulated runtimes over the tuner's grid, so pre-pruning cannot silently
discard the true optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.core.control import MESSAGE_BYTES
from repro.core.sequencer import effective_chains
from repro.models.footprint import ProtocolFootprint
from repro.models.schedule import Schedule, chain_hops, chain_schedule
from repro.models.speedup import time_inc_reduce_scatter
from repro.tune.scenario import Scenario
from repro.tune.store import config_from_knobs
from repro.units import gbit_per_s

__all__ = ["CostEstimate", "predict_time", "prune"]

#: wire parameters mirrored from the Fabric defaults the evaluator uses
LINK_LATENCY = 1e-6
SWITCH_DELAY = 0.1e-6
HEADER_BYTES = 64
#: the evaluator's fabric MTU: one UD datagram, one wire packet
BASE_CHUNK = 4096

#: effective per-packet loss probability of each named fault profile —
#: feeds the expected-recovery term so cutoff knobs rank on lossy keys
EFFECTIVE_LOSS = {"clean": 0.0, "bernoulli": 1e-3, "burst": 0.01}

@lru_cache(maxsize=None)
def _host_hops(scenario: Scenario) -> int:
    """Worst-case host-to-host hop count of the scenario's topology
    (links on the path, switches included as hops via their delay).
    The farthest pair from host 0 is representative on the symmetric
    shapes the tuner targets (star / leaf-spine / testbed)."""
    topo = scenario._topology()
    return max(topo.hops(0, d) for d in range(1, topo.n_hosts))


@lru_cache(maxsize=None)
def _chain_hops(scenario: Scenario, n_chains: int) -> List[List[int]]:
    """The activation routes of the scenario's chains (rank *r* on host
    *r*, as the evaluator builds them)."""
    return chain_hops(scenario._topology(), range(scenario.n_hosts), n_chains)


@dataclass(frozen=True)
class CostEstimate(Schedule):
    """Decomposed completion-time prediction for one candidate: the chain
    schedule's terms, then the tuner's own two."""

    recovery: float  #: expected slow-path cost under the fault profile
    staging_risk: float  #: overrun risk premium for undersized staging

    @property
    def total(self) -> float:
        """The scalar the pruner ranks on: the schedule's whole data
        phase, plus the expected recovery and the staging risk."""
        return super().total + self.recovery + self.staging_risk

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
    """Analytic completion-time estimate for one knob assignment: the
    collective's chain schedule (:func:`repro.models.schedule.chain_schedule`)
    plus the expected recovery and staging-risk terms."""
    cfg = config_from_knobs(knobs)
    p = scenario.n_hosts
    n = scenario.bucket
    bandwidth = gbit_per_s(scenario.link_gbit)
    chunk = cfg.chunk_size
    uc = scenario.transport == "uc"
    hops = _host_hops(scenario)
    hop_latency = hops * LINK_LATENCY + max(hops - 1, 0) * SWITCH_DELAY

    # The receive path and the roots as the communicator launches them: P
    # shards (an allreduce's reduced N/P ones, after its INC reduce-scatter),
    # a block per peer (alltoall) or one root's buffer (broadcast).
    if scenario.collective in ("allgather", "allreduce"):
        root_bytes = n if scenario.collective == "allgather" else n // 4 // p * 4
        nbytes = p * root_bytes
        chains = _chain_hops(scenario, effective_chains(p, cfg.n_chains))
    else:
        root_bytes, chains = n, ()
        nbytes = n - n // p if scenario.collective == "alltoall" else n
    sent = min(chunk, root_bytes)  # a shard below the chunk is one chunk
    sched = chain_schedule(
        nbytes, bandwidth, cfg.cost, chunk=sent, uc=uc,
        n_subgroups=cfg.n_subgroups, root_bytes=root_bytes,
        batch_size=cfg.batch_size, hops=chains, depth=hops,
        mtu=BASE_CHUNK, header_bytes=HEADER_BYTES,
        ctrl_bytes=MESSAGE_BYTES + HEADER_BYTES, link_latency=LINK_LATENCY,
        switch_delay=SWITCH_DELAY)
    wire = sched.wire
    if scenario.collective == "allreduce":
        wire += time_inc_reduce_scatter(n, p, bandwidth)

    # Multi-rail striping: subgroup g plans its tree on plane g mod rails,
    # so the bottleneck NIC direction is split across min(subgroups, rails)
    # independent planes.  Without this term the pruner ranks every striped
    # candidate behind n_subgroups=1 and the true optimum never simulates.
    if scenario.resolved_topo == "multi_rail" and scenario.collective != "alltoall":
        rails = int(scenario._params().get("n_rails", 1))
        planes = min(max(cfg.n_subgroups, 1), max(rails, 1))
        if planes > 1:
            wire /= planes

    # --- expected recovery: lost chunks wait out the cutoff slack and a
    # fetch round-trip on the reliable ring (§III-C).
    loss = EFFECTIVE_LOSS[scenario.fault_profile]
    recovery = 0.0
    # alltoall rides reliable RC queue pairs — the UD cutoff/fetch slow
    # path never arms, so lossy keys add no expected-recovery term.
    if loss > 0.0 and scenario.collective != "alltoall":
        total_chunks = (p if scenario.collective == "allgather" else 1) * n / chunk
        expected_lost = loss * total_chunks
        # the evaluator's one op on a fresh communicator arms the static α
        fetch_rtt = 2 * hop_latency + 2 * cfg.cost.ctrl_message
        recovery = cfg.cutoff_alpha + expected_lost * (fetch_rtt + chunk / bandwidth)

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

    return CostEstimate(wire, sched.software, sched.sequencing, sched.fill,
                        recovery=recovery, staging_risk=staging_risk)


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
