"""The metric registry: every name the harness emits, with unit and direction.

``BENCHMARK.json`` at the repo root lists the same names; the self-test
holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["Metric", "EXACT", "END_TO_END", "PER_LAYER", "LAYERS",
           "contract_end_to_end", "benchmark_json_lists"]

#: Bound of a metric that repeats bit-for-bit at a fixed seed.  The
#: pipeline reads a bound as a share of the parent's median, so "exact" is
#: spelled as a share far below the smallest real change (one nanosecond
#: of a 100 us collective is 1e-5).
EXACT = 1e-6


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    #: end-to-end only: share of the parent's median it may worsen by
    bound: Optional[float] = None
    #: end-to-end only: deterministic at a fixed seed (simulated time,
    #: counts), so ``--compare`` holds it to bit-equality there
    exact: bool = False
    #: end-to-end only: listed in BENCHMARK.json
    contract: bool = True


#: End-to-end metrics, per workload.  ``virtual_s`` and ``ops_failed`` are
#: emitted and compared by this harness but kept out of BENCHMARK.json
#: (contract=False): a simulated time reads the same on every run, which the
#: pipeline refuses from a time, and ``bound_efficiency`` is the same
#: number over a constant; ``ops_failed`` is 0 on a healthy run and travels
#: as the result line's ``failed`` / ``attempted``.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.05),
    Metric("virtual_s", "sim_s", "lower", EXACT, exact=True, contract=False),
    Metric("bound_efficiency", "ratio", "higher", EXACT, exact=True),
    Metric("switch_bytes_per_delivered_byte", "ratio", "lower", EXACT,
           exact=True),
    Metric("ops_failed", "count", "lower", 0.0, exact=True, contract=False),
)

#: Layers of the profile, in table order.  ``other`` is the residual of
#: the run span and is always printed.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.fastforward", "net.link", "net.nic", "net.memory",
    "net.fabric", "net.inc", "core.progress", "core.control",
    "core.reliability", "core.communicator", "obs", "builtins", "other",
)


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better)


PER_LAYER: Tuple[Metric, ...] = (
    # -- host-time brackets of the untraced timed iterations (means, in
    #    calibrated seconds; calibration_s and run_wall_raw_s are raw)
    Metric("net.fabric.build_s", "s", "lower"),
    Metric("core.communicator.build_s", "s", "lower"),
    Metric("core.communicator.verify_s", "s", "lower"),
    Metric("harness.payload_gen_s", "s", "lower"),
    Metric("harness.cold_iter_s", "s", "lower"),
    Metric("harness.calibration_s", "s", "lower"),
    Metric("harness.run_wall_raw_s", "s", "lower"),
    Metric("mem.minor_faults_warm", "count", "lower"),
    Metric("mem.minor_faults_cold", "count", "lower"),
    # -- exact counts and simulated times of the untraced run
    _count("sim.engine.events"),
    Metric("sim.engine.events_per_s", "1/s", "higher"),
    _count("net.link.trains", "higher"),
    _count("net.link.train_packets", "higher"),
    _count("net.link.fabric_drops"),
    _count("net.link.switch_egress_bytes"),
    _count("net.nic.rnr_drops"),
    _count("net.nic.host_injected_bytes"),
    _count("sim.fastforward.ff_phases", "higher"),
    _count("sim.fastforward.ff_skipped_events", "higher"),
    _count("sim.fastforward.ff_aborts"),
    Metric("sim.fastforward.fold_success_ratio", "ratio", "higher"),
    _count("core.progress.cqe_batches", "higher"),
    _count("core.progress.batched_cqes", "higher"),
    _count("core.progress.chunks_received"),
    _count("core.progress.duplicates"),
    _count("core.reliability.recoveries"),
    _count("core.reliability.recovered_chunks"),
    _count("core.reliability.fetch_rounds"),
    _count("core.reliability.fetch_ack_timeouts"),
    _count("core.reliability.neighbor_escalations"),
    Metric("core.communicator.virtual_s", "sim_s", "lower"),
    Metric("core.communicator.virt_phase_rs_s", "sim_s", "lower"),
    Metric("core.communicator.virt_phase_ag_s", "sim_s", "lower"),
    Metric("core.progress.virt_sync_s", "sim_s", "lower"),
    Metric("core.progress.virt_multicast_s", "sim_s", "lower"),
    Metric("core.progress.virt_handshake_s", "sim_s", "lower"),
    # -- traced run: split-call spans and the cProfile layer table
    Metric("core.communicator.submit_s", "s", "lower"),
    Metric("sim.engine.drain_s", "s", "lower"),
    Metric("core.communicator.result_s", "s", "lower"),
    Metric("harness.trace_overhead_ratio", "ratio", "lower"),
    *(Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *(Metric(f"{layer}.self_share", "ratio", "lower")
      for layer in LAYERS),
)


def contract_end_to_end() -> Tuple[Metric, ...]:
    """The end-to-end metrics BENCHMARK.json lists."""
    return tuple(m for m in END_TO_END if m.contract)


def benchmark_json_lists() -> Dict[str, list]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in contract_end_to_end()],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }
