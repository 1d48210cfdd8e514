"""Simulation-in-the-loop candidate scoring.

Each surviving candidate runs one short seeded collective through the
production engine, folds included (the same plumbing the benchmark
harness uses), with the observability plane attached so the paper's
evaluation metrics — link utilization and staging-ring occupancy —
become secondary objectives: at equal completion time the tuner prefers
headroom in the staging ring and a busier bottleneck link.  Link
utilization is read off the channels' byte counters, which a folded phase
commits exactly; staging occupancy off the trace, where a folded session
records each receiver's peak of held slots (DESIGN.md §6d) and the
packet-level worker samples each slot at its CQE's poll instant: both
read the per-CQE reference's count, so folded and unfolded candidates
compare on one scale.

Tracing perturbs nothing (DESIGN.md §8 pins zero virtual-time
perturbation with the tracer attached), so a tuned profile's measured
duration is exactly what an untraced production run would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.communicator import Communicator
from repro.obs.trace import TraceConfig, TraceView
from repro.tune.scenario import Scenario
from repro.tune.store import config_from_knobs

__all__ = ["Measurement", "evaluate"]


@dataclass(frozen=True)
class Measurement:
    """One candidate's simulated outcome."""

    duration: float  #: collective completion time (seconds, virtual)
    throughput: float  #: the paper's Fig 11 metric (bytes/s)
    sim_events: int  #: engine events processed (search-cost accounting)
    verified: bool  #: payload correctness of the run
    link_util_peak: float  #: busiest link's busy fraction over the run
    staging_peak_frac: float  #: peak held staging slots / capacity

    def summary(self) -> Dict[str, object]:
        """JSON-safe dict for profiles and search logs."""
        return {
            "duration": float(self.duration),
            "throughput": float(self.throughput),
            "sim_events": int(self.sim_events),
            "verified": bool(self.verified),
            "link_util_peak": float(self.link_util_peak),
            "staging_peak_frac": float(self.staging_peak_frac),
        }

    def score(self):
        """Ordering key: completion time first, then staging headroom,
        then (negated) link utilization.  Unverified runs sort last."""
        return (
            not self.verified,
            self.duration,
            self.staging_peak_frac,
            -self.link_util_peak,
        )


def _link_util_peak(fabric, duration: float) -> float:
    """The busiest channel's serialization time over the run's duration
    (a fresh fabric per evaluation, so its counters are this run's)."""
    if duration <= 0:
        return 0.0
    busy = max(ch.bytes_sent / ch.bandwidth for ch in fabric.channels.values())
    return min(1.0, busy / duration)


def _staging_peak(view: Optional[TraceView]) -> int:
    if view is None:
        return 0
    held = [r.value for r in view.select(name="staging.hold", ph="C")]
    return int(max(held)) if held else 0


def evaluate(
    scenario: Scenario,
    knobs: Dict[str, object],
    trace: bool = True,
) -> Measurement:
    """Run the scenario once under *knobs* and measure it.

    Deterministic end to end: the fabric, fault schedules and payloads
    all derive from ``scenario.seed``, so re-evaluating a candidate is
    bit-reproducible.
    """
    cfg = config_from_knobs(knobs)
    fabric = scenario.build_fabric()
    comm = Communicator(
        fabric, config=cfg, trace=TraceConfig() if trace else None)
    payloads = scenario.make_payload()
    if scenario.collective == "broadcast":
        result = comm.broadcast(0, payloads[0])
        verified = result.verify_broadcast(payloads[0])
    elif scenario.collective == "allreduce":
        result = comm.allreduce(payloads, algorithm="inc")
        verified = result.verify_allreduce(payloads)
    elif scenario.collective == "alltoall":
        result = comm.alltoall(payloads)
        verified = result.verify_alltoall(payloads)
    else:
        result = comm.allgather(payloads)
        verified = result.verify_allgather(payloads)
    capacity = cfg.staging_slots * cfg.n_subgroups
    peak = _staging_peak(result.trace)
    return Measurement(
        duration=result.duration,
        throughput=result.throughput,
        sim_events=int(result.engine.get("sim_events", 0)),
        verified=verified,
        link_util_peak=(_link_util_peak(fabric, result.duration)
                        if trace else 0.0),
        staging_peak_frac=peak / capacity if capacity else 0.0,
    )
