"""Run one workload in this interpreter and measure it on both clocks.

Closed loop, one client, one thread.  Every iteration is one *op*: a fresh
``Topology -> Fabric -> Communicator``, a seeded payload, one collective
through the sync public call, and a payload check.  Op 0 is cold and kept
out of the statistics; the timed iterations follow.  With tracing on, three
more ops run the same collective as ``submit`` / ``run`` / ``result`` so
each stage gets a span, the last two under cProfile for the per-layer self
times.

Host times are reported as the **mean of the timed iterations, in
calibrated seconds**.  The box this was built on is a shared 2-vCPU VM whose
speed swings by up to 2.8x, from one second to the next and for minutes at
a time, so raw seconds do not repeat from run to run whatever statistic is
taken (README, "Steadiness").  A short fixed piece of interpreter work runs
three times around every op; the mean of those samples is how fast the box
ran over the phase, and host times are scaled by it against the reference
box's speed.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import repro
from repro import Communicator

from benchmarks.perf import workloads as wl
from benchmarks.perf.layers import self_time_by_layer
from benchmarks.perf.metrics import END_TO_END, LAYERS, PER_LAYER

__all__ = ["MIN_TIMED", "run_workload", "calibrate"]

#: Fewest timed iterations behind a host-time number.  The issue asked for
#: seven or more after a cold and a warm-up op; those nine ops a workload
#: measured 3312 s for the pipeline's 92 runs against its 3420 s cap, on a
#: box that is at times twice as slow again.  Four after the cold op
#: measure about 2200 s, and the run-to-run spread is the same with four,
#: five or seven (README, "Steadiness"): it comes from how well the
#: calibration tracks the box, not from the iteration count.  No separate
#: warm-up op: the second op differs from the later ones only by page
#: faults worth a tenth of its run time.
MIN_TIMED = 4
PROFILED_ITERATIONS = 2
CALIBRATION_TICKS = 100_000
#: What one :func:`calibrate` sample takes on the reference box (2-vCPU
#: Xeon VM at 2.10 GHz, Python 3.11) at the quiet end of its range.  A host
#: time is reported as seconds at that speed: ``raw *
#: REFERENCE_CALIBRATION_S / mean calibration sample of the phase``.
REFERENCE_CALIBRATION_S = 0.034


class Spans:
    """In-memory span log (id, parent id, name, start, end), written out
    when the run ends.  Times are ``time.perf_counter`` seconds."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.records),
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _seconds(record: Dict[str, Any]) -> float:
    return record["end"] - record["start"]


class _Node:
    __slots__ = ("name", "peers", "count", "queue")

    def __init__(self, name: int) -> None:
        self.name = name
        self.peers: List["_Node"] = []
        self.count = 0
        self.queue: List[Any] = []


def calibrate() -> float:
    """Host seconds for a fixed piece of interpreter work: how fast this box
    runs Python right now.  It is shaped like the simulator (a heap of
    timed events hopping between small objects: attribute access, dict
    lookups, short-lived tuples and lists), so that a noisy neighbour slows
    it about as much as it slows the workloads; a tight arithmetic loop is
    slowed more.  It shares no code with ``repro`` on purpose: host times
    are divided by it, so it must not move when the engine does."""
    nodes = [_Node(i) for i in range(64)]
    for i, node in enumerate(nodes):
        node.peers = [nodes[(i * 7 + k) % 64] for k in (1, 2, 3)]
    table = dict(enumerate(nodes))
    heap: List[Any] = [(0.0, 0, 0)]
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    t0 = time.perf_counter()
    while seq < CALIBRATION_TICKS:
        when, _, name = pop(heap)
        node = table[name]
        node.count += 1
        node.queue.append((when, seq))
        if len(node.queue) > 8:
            node.queue = node.queue[4:]
        seq += 1
        push(heap, (when + 1e-9 * (1 + seq % 5), seq,
                    node.peers[node.count % 3].name))
    return time.perf_counter() - t0


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _exact_metrics(w: wl.Workload, result) -> Dict[str, float]:
    """Everything the simulator decides: identical on every iteration."""
    engine, traffic = result.engine, result.traffic
    phases = {p.name: p.duration for p in result.phases}
    means = result.phase_means()
    folds = engine["ff_phases"] + engine["ff_aborts"]
    return {
        "virtual_s": result.duration,
        "bound_efficiency":
            wl.time_bound_s(w, result.comm_size) / result.duration,
        "switch_bytes_per_delivered_byte":
            traffic["switch_bytes"] / wl.delivered_bytes(w, result),
        "sim.engine.events": engine["sim_events"],
        "net.link.trains": engine["trains"],
        "net.link.train_packets": engine["train_packets"],
        "net.link.fabric_drops": traffic["fabric_drops"],
        "net.link.switch_egress_bytes": traffic["switch_bytes"],
        "net.nic.rnr_drops": traffic["rnr_drops"],
        "net.nic.host_injected_bytes": traffic["host_injected_bytes"],
        "sim.fastforward.ff_phases": engine["ff_phases"],
        "sim.fastforward.ff_skipped_events": engine["ff_skipped_events"],
        "sim.fastforward.ff_aborts": engine["ff_aborts"],
        "sim.fastforward.fold_success_ratio":
            engine["ff_phases"] / folds if folds else 0.0,
        "core.progress.cqe_batches": engine["cqe_batches"],
        "core.progress.batched_cqes": engine["batched_cqes"],
        "core.progress.chunks_received":
            result.counter_total("chunks_received"),
        "core.progress.duplicates": result.counter_total("duplicates"),
        **{f"core.reliability.{name}": result.counter_total(name)
           for name in ("recoveries", "recovered_chunks", "fetch_rounds",
                        "fetch_ack_timeouts", "neighbor_escalations")},
        "core.communicator.virtual_s": result.duration,
        "core.communicator.virt_phase_rs_s":
            phases.get("reduce_scatter", 0.0),
        "core.communicator.virt_phase_ag_s":
            phases.get("allgather", 0.0) if len(phases) > 1 else 0.0,
        "core.progress.virt_sync_s": means.sync,
        "core.progress.virt_multicast_s": means.multicast,
        "core.progress.virt_handshake_s": means.handshake,
    }


class _Run:
    """The ops of one workload: shared span log, failure ledger, calibration
    samples, and the first op's simulator outputs, which every later op
    must reproduce."""

    def __init__(self, w: wl.Workload, seed: int) -> None:
        self.w = w
        self.seed = seed
        self.spans = Spans()
        self.ops_total = 0
        self.failures: List[Dict[str, Any]] = []
        self.reference: Optional[Dict[str, float]] = None
        self.config_applied: Dict[str, Any] = {}
        #: raw host times of every op that completed, in order (the data
        #: behind the statistics)
        self.samples: List[Dict[str, Any]] = []
        #: every calibration sample so far: before each op's set-up, before
        #: its run and after its run
        self.calibrations: List[float] = []

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def scale(self, first: int = 0) -> float:
        """Raw -> calibrated seconds, from the samples since index *first*."""
        return REFERENCE_CALIBRATION_S / statistics.mean(
            self.calibrations[first:])

    def op(self, phase: str, split: bool = False,
           profile: Optional[cProfile.Profile] = None
           ) -> Optional[Dict[str, Any]]:
        """One collective, counted.  Returns its sample, or ``None`` after
        recording why it failed (the run goes on)."""
        index = self.ops_total
        self.ops_total += 1
        first = len(self.calibrations)
        try:
            sample = self._iteration(index, split, profile)
        except Exception as exc:  # typed library errors and anything else
            if profile is not None:
                profile.disable()
            self._fail(index, type(exc).__name__, str(exc))
            return None
        if not sample.pop("verified"):
            self._fail(index, "VerifyFailed", "payload check returned False")
            return None
        exact = sample["exact"]
        if self.reference is None:
            self.reference = exact
        drift = sorted(k for k, v in exact.items() if self.reference[k] != v)
        if drift:
            self._fail(index, "NonDeterministic",
                       "differs from the first op: " + ", ".join(drift))
            return None
        self.samples.append(
            {"op": index, "phase": phase,
             "calibration_s": self.calibrations[first:],
             **{k: v for k, v in sample.items() if k != "exact"}})
        return sample

    def _fail(self, index: int, error: str, message: str) -> None:
        self.failures.append(
            {"op": index, "error": error, "message": message[:400]})

    def _iteration(self, index: int, split: bool,
                   profile: Optional[cProfile.Profile]) -> Dict[str, Any]:
        w, span = self.w, self.spans.span
        gc.collect()
        self.calibrate()
        with span(f"iteration:{index}"):
            with span("fabric_build") as s_fabric:
                fabric = wl.build_fabric(w, self.seed)
            with span("comm_build") as s_comm:
                config = wl.build_config(w)
                comm = Communicator(fabric, config=config)
            self.config_applied = wl.config_applied(comm.config)
            with span("payload_gen") as s_gen:
                data = wl.make_payload(w, self.seed, comm.size)
            self.calibrate()
            faults = _minor_faults()
            with span("run") as s_run:
                if not split:
                    result = wl.run_sync(w, comm, data)
                else:
                    if profile is not None:
                        profile.enable()
                    with span("submit") as s_submit:
                        handle = comm.submit(wl.make_request(w, data))
                    events = fabric.sim.events_processed
                    with span("drain") as s_drain:
                        comm.run(handle)
                    events = fabric.sim.events_processed - events
                    with span("result") as s_result:
                        result = handle.result()
                        comm.release(handle)
                    if profile is not None:
                        profile.disable()
            faults = _minor_faults() - faults
            self.calibrate()
            with span("verify") as s_verify:
                verified = wl.verify(w, result, data)
        sample = {
            "verified": verified, "minor_faults": faults,
            "fabric_build_s": _seconds(s_fabric),
            "comm_build_s": _seconds(s_comm),
            "payload_gen_s": _seconds(s_gen),
            "run_wall_s": _seconds(s_run), "verify_s": _seconds(s_verify),
        }
        if split:
            # The split path carries no traffic / engine snapshots; the two
            # numbers every op must reproduce are still at hand.
            sample["exact"] = {"virtual_s": result.duration,
                               "sim.engine.events": events}
            sample.update(submit_s=_seconds(s_submit),
                          drain_s=_seconds(s_drain),
                          result_s=_seconds(s_result))
        else:
            sample["exact"] = _exact_metrics(w, result)
        return sample


def _summary(values: List[float]) -> Dict[str, float]:
    """Mean, with median, quartiles and count beside it (n < 20: no tail
    percentile is claimed)."""
    out = {"value": statistics.mean(values),
           "median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _validity(w: wl.Workload, exact: Dict[str, float]) -> List[str]:
    """A lossy workload that loses nothing, or a clean one that does, is
    not measuring what its name says."""
    drops = exact["net.link.fabric_drops"]
    recoveries = exact["core.reliability.recoveries"]
    if w.lossy:
        return [f"{w.name}: no {what}" for what, n in
                (("drops", drops), ("recoveries", recoveries)) if n == 0]
    return [f"{w.name}: clean workload saw {n} {what}" for what, n in
            (("drops", drops), ("recoveries", recoveries),
             ("RNR drops", exact["net.nic.rnr_drops"])) if n]


def run_workload(w: wl.Workload, seed: int, seconds: float, trace: bool,
                 min_timed: int = MIN_TIMED) -> Dict[str, Any]:
    """Measure *w* and return its document (README, "Output").  The timed
    phase lasts *seconds* and at least *min_timed* iterations."""
    run = _Run(w, seed)
    with run.spans.span(f"workload:{w.name}"):
        values, extras = _measure(run, seconds, trace, min_timed)
    values["ops_failed"] = {"value": len(run.failures)}
    doc: Dict[str, Any] = {
        "workload": w.name, "why": w.why, "seed": seed,
        "scenario": wl.scenario(w), "config_applied": run.config_applied,
        "ops_total": run.ops_total, "ops_failed": len(run.failures),
        "failures": run.failures, **extras,
    }
    complete = "run_wall_s" in values
    for group, metrics in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
        doc[group] = {m.name: {**values[m.name], "unit": m.unit}
                      for m in metrics if complete and m.name in values}
    doc["samples"] = run.samples
    if trace:
        doc["spans"] = run.spans.records
    return doc


_STAGES = ("fabric_build_s", "comm_build_s", "payload_gen_s", "run_wall_s",
           "verify_s")
#: host-time metric of the timed iterations -> the stage times it adds up
_BRACKETS = {
    "setup_s": ("fabric_build_s", "comm_build_s"),
    "run_wall_s": ("run_wall_s",),
    "net.fabric.build_s": ("fabric_build_s",),
    "core.communicator.build_s": ("comm_build_s",),
    "core.communicator.verify_s": ("verify_s",),
    "harness.payload_gen_s": ("payload_gen_s",),
}


def _measure(run: _Run, seconds: float, trace: bool, min_timed: int):
    """Drive the ops; returns ``(metric values, extra document keys)``."""
    cold = run.op("cold")
    timed: List[Dict[str, Any]] = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while attempts < min_timed or time.perf_counter() < deadline:
        attempts += 1
        sample = run.op("timed")
        if sample is not None:
            timed.append(sample)
    peak_rss_mib = _peak_rss_mib()  # before the profiler adds its own
    extras: Dict[str, Any] = {"timed_iterations": len(timed)}
    if not timed:
        return {}, extras

    exact = timed[0]["exact"]
    extras["invalid"] = _validity(run.w, exact)
    scale = run.scale()

    values: Dict[str, Dict[str, float]] = {
        name: _summary([scale * sum(s[k] for k in stages) for s in timed])
        for name, stages in _BRACKETS.items()}
    values["harness.run_wall_raw_s"] = _summary(
        [s["run_wall_s"] for s in timed])
    values["harness.calibration_s"] = _summary(run.calibrations)
    values["mem.minor_faults_warm"] = {
        "value": statistics.median(s["minor_faults"] for s in timed)}
    values.update({name: {"value": v} for name, v in exact.items()})
    values["peak_rss_mib"] = {"value": peak_rss_mib}
    values["sim.engine.events_per_s"] = {
        "value": exact["sim.engine.events"] / values["run_wall_s"]["value"]}
    if cold is not None:
        values["harness.cold_iter_s"] = {
            "value": scale * sum(cold[k] for k in _STAGES)}
        values["mem.minor_faults_cold"] = {"value": cold["minor_faults"]}
    if trace:
        traced, layers = _traced(run, values["run_wall_s"]["value"])
        values.update(traced)
        if layers:
            extras["layers"] = layers
    return values, extras


def _traced(run: _Run, untraced_run_wall_s: float):
    """The traced ops: one split into spans only (its stage times carry no
    profiler cost), then the profiled ones.  Returns the traced metric
    values and the layer table, in seconds calibrated by this phase's own
    samples."""
    first = len(run.calibrations)
    plain = run.op("split", split=True)
    profiles: List[cProfile.Profile] = []
    profiled: List[Dict[str, Any]] = []
    for _ in range(PROFILED_ITERATIONS):
        profile = cProfile.Profile()
        sample = run.op("profiled", split=True, profile=profile)
        if sample is not None:
            profiles.append(profile)
            profiled.append(sample)
    scale = run.scale(first)

    values: Dict[str, Dict[str, float]] = {}
    if plain is not None:
        for name, key in (("core.communicator.submit_s", "submit_s"),
                          ("sim.engine.drain_s", "drain_s"),
                          ("core.communicator.result_s", "result_s")):
            values[name] = {"value": scale * plain[key]}
    if not profiled:
        return values, {}
    repro_root = os.path.dirname(repro.__file__)
    by_layer = [self_time_by_layer(p, repro_root) for p in profiles]
    span_s = scale * statistics.mean(s["run_wall_s"] for s in profiled)
    self_s = {layer: scale * statistics.mean(t[layer] for t in by_layer)
              for layer in LAYERS}
    # ``other`` is the residual of the run span, never hidden: stdlib and
    # harness frames plus whatever the profiler could not attribute.
    self_s["other"] = span_s - sum(
        s for layer, s in self_s.items() if layer != "other")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = {"value": self_s[layer]}
        values[f"{layer}.self_share"] = {"value": self_s[layer] / span_s}
    values["harness.trace_overhead_ratio"] = {
        "value": span_s / untraced_run_wall_s}
    return values, {"run_span_s": span_s,
                    "profiled_iterations": len(profiled), "self_s": self_s}
