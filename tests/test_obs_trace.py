"""Golden tests for the observability plane (repro.obs).

Three properties anchor the plane's trustworthiness:

1. **Determinism** — two identically-seeded runs export byte-identical
   trace JSON (only virtual time enters the trace, never wall-clock).
2. **Zero perturbation** — tracing must not change the simulation:
   identical ``events_processed`` counts, virtual end times and payloads
   with tracing on vs off, and the packet-train fast-path equivalence
   holds with tracing enabled.
3. **Reconciliation** — recovery spans in the trace agree *exactly* with
   the reliability counters the collective reports.

Plus the redesigned API surface: Reduce-Scatter through ``Communicator``
reproduces the baseline implementations bit-for-bit, ``CollectiveKind``
rejects unknown kinds, and ``phase_means()`` tolerates empty rank lists.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.core.baselines import inc_reduce_scatter, ring_reduce_scatter
from repro.core.communicator import (
    CollectiveConfig,
    CollectiveKind,
    Communicator,
    PhaseBreakdown,
)
from repro.dpa import MTCoreSim, Segment
from repro.dpa.isa import Trace as IsaTrace
from repro.net.fabric import Fabric
from repro.net.faults import GilbertElliott
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.obs import NAME_RE, TRACEPOINTS, TraceConfig, Tracer, validate_event
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s

P = 16
NBYTES = 64 * KiB
SEED = 3  # chosen so the Gilbert-Elliott channel actually drops packets


def _lossy(s: str, d: str) -> FaultSpec:
    return FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_good=0.002, drop_bad=0.15))


def _make_comm(seed: int = SEED, lossy: bool = True, traced: bool = True,
               reference: bool = False) -> Communicator:
    sim = Simulator()
    fabric = Fabric(
        sim,
        Topology.leaf_spine(P, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
        reference=reference,
    )
    if lossy:
        fabric.set_fault_all(_lossy)
    return Communicator(
        fabric,
        config=CollectiveConfig(chunk_size=4096, transport="ud"),
        trace=TraceConfig() if traced else None,
    )


def _bcast(comm: Communicator, seed: int = SEED):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, NBYTES, dtype=np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)
    return res


@pytest.fixture(scope="module")
def lossy_traced():
    """One traced 16-node lossy broadcast, shared across golden tests."""
    comm = _make_comm()
    res = _bcast(comm)
    return comm, res


# ---------------------------------------------------------------- determinism


def test_trace_export_is_byte_deterministic(lossy_traced):
    _, res1 = lossy_traced
    res2 = _bcast(_make_comm())
    j1, j2 = res1.trace.to_json(), res2.trace.to_json()
    assert j1 == j2, "identically-seeded runs must export identical bytes"
    assert len(res1.trace) > 0


def test_trace_window_clips_to_collective(lossy_traced):
    _, res = lossy_traced
    for r in res.trace:
        assert res.t_begin <= r.ts <= res.t_end


# --------------------------------------------------------------------- schema


def test_every_exported_event_validates(lossy_traced):
    _, res = lossy_traced
    doc = res.trace.to_chrome()
    assert doc["traceEvents"], "no events exported"
    for ev in doc["traceEvents"]:
        validate_event(ev)  # raises on any malformed event


def test_export_has_track_metadata_and_loads_as_json(lossy_traced):
    _, res = lossy_traced
    doc = json.loads(res.trace.to_json())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {e["name"] for e in meta}
    assert {"process_name", "thread_name", "process_sort_index"} <= names
    # One process per populated group, rank timelines present.
    procs = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert "rank" in procs and "link" in procs
    threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert {f"r{r}" for r in range(P)} <= threads


def test_all_emitted_names_are_catalogued(lossy_traced):
    _, res = lossy_traced
    for r in res.trace:
        assert NAME_RE.match(r.name), r.name
        assert r.name in TRACEPOINTS, r.name


def test_tracepoint_lint_tool_passes(capsys):
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_tracepoints", root / "tools" / "check_tracepoints.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.main() == 0, capsys.readouterr().out


# ------------------------------------------------------------- reconciliation


def test_recovery_spans_reconcile_with_counters(lossy_traced):
    _, res = lossy_traced
    rel = res.reliability_summary()
    assert rel["recoveries"] > 0, "seed must exercise the slow path"
    view = res.trace
    assert view.count("reliability.recover") == rel["recoveries"]
    assert view.count("reliability.fetch") == rel["fetch_rounds"]
    assert view.count("reliability.escalate") == rel["neighbor_escalations"]
    assert view.count("reliability.timeout") == rel["fetch_ack_timeouts"]
    # Every recovery span carries its round count and a real duration.
    for r in view.select(name="reliability.recover"):
        assert r.ph == "X" and r.value >= 0.0
        assert r.args is not None and r.args["rounds"] >= 1


def test_phase_spans_cover_every_rank(lossy_traced):
    _, res = lossy_traced
    view = res.trace
    for name in ("phase.sync", "phase.multicast", "phase.handshake"):
        spans = view.select(name=name)
        assert len(spans) == P
        assert {r.track for r in spans} == {f"r{r}" for r in range(P)}


# ----------------------------------------------------------- zero perturbation


def test_tracing_does_not_perturb_simulation():
    traced = _make_comm(traced=True)
    res_t = _bcast(traced)
    plain = _make_comm(traced=False)
    res_p = _bcast(plain)
    assert res_p.trace is None
    assert res_t.t_end == res_p.t_end
    assert traced.sim.events_processed == plain.sim.events_processed
    assert res_t.traffic == res_p.traffic
    assert res_t.reliability_summary() == res_p.reliability_summary()
    for bt, bp in zip(res_t.buffers, res_p.buffers):
        assert np.array_equal(bt, bp)


def test_fastpath_equivalence_holds_with_tracing():
    res_fast = _bcast(_make_comm(lossy=False))
    res_slow = _bcast(_make_comm(lossy=False, reference=True))
    assert res_fast.engine["trains"] > 0
    assert res_fast.t_end == res_slow.t_end
    assert res_fast.traffic == res_slow.traffic
    for rf, rs in zip(res_fast.ranks, res_slow.ranks):
        assert rf.phases == rs.phases
    # The fast path coalesces per-packet events into one span per train,
    # so the *trace* differs — but only in link-track granularity.
    assert res_fast.trace.count("link.train") > 0
    assert res_slow.trace.count("link.train") == 0


def test_lookahead_stamps_reconcile_with_trace():
    """Look-ahead delivery pushes a CQE when its packet is handed over,
    but the ``nic.cqe`` instant it records is the packet's arrival — the
    same instant per-packet delivery records — and the engine counters
    reconcile with the instants."""
    def allgather(reference: bool):
        sim = Simulator()
        fabric = Fabric(sim, Topology.leaf_spine(P, 2, 2),
                        link_bandwidth=gbit_per_s(56),
                        streams=RandomStreams(SEED), reference=reference)
        comm = Communicator(
            fabric, trace=TraceConfig(),
            config=CollectiveConfig(chunk_size=4096, n_chains=P))
        data = [np.full(4096, r, dtype=np.uint8) for r in range(P)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
        return res

    ahead, ref = allgather(False), allgather(True)
    chunks = P * (P - 1)
    assert ahead.engine["stamped_cqes"] == chunks
    assert ref.engine["stamped_cqes"] == 0
    instants = [sorted((r.track, r.ts) for r in res.trace.select(name="nic.cqe"))
                for res in (ahead, ref)]
    assert instants[0] == instants[1] and len(instants[0]) >= chunks
    batched = sum(r.args["cqes"] for r in ahead.trace.select(name="cq.batch"))
    assert batched == ahead.engine["batched_cqes"] <= chunks
    assert ahead.trace.count("cq.batch") == ahead.engine["cqe_batches"] > 0
    assert ref.trace.count("cq.batch") == 0


# ------------------------------------------------------------ metric timelines


def test_metric_timelines(lossy_traced):
    _, res = lossy_traced
    view = res.trace
    ports = [t for g, t in view.tracks() if g == "link"]
    assert ports
    util = view.link_utilization(ports[0], bins=20)
    assert len(util) == 20
    assert all(0.0 <= u <= 1.0 + 1e-9 for _, u in util)
    assert any(u > 0 for _, u in util), "busy link shows zero utilization"
    occ = view.staging_occupancy(1)
    assert occ and all(v >= 0 for _, v in occ)
    assert res.engine["cqe_batches"] > 0
    # One sample per DMA completion, at its instant, although a receive
    # batch posts one event for all of its copies: the instants where the
    # held count steps down are the per-CQE reference's copy completions.
    ref = _bcast(_make_comm(reference=True)).trace.staging_occupancy(1)

    def releases(series):
        return [t for (_, before), (t, v) in zip(series, series[1:])
                if v < before]

    assert releases(occ) == releases(ref)
    assert len(releases(occ)) == res.ranks[1].counters["chunks_received"]
    assert occ[-1][1] == 0.0
    out = view.outstanding_batches(0)  # rank 0 is the broadcast sender
    assert out and max(v for _, v in out) >= 1
    retries = view.retry_events()
    assert retries, "lossy run must surface retry events"
    assert all(r.name.startswith("reliability.") for r in retries)


def test_engine_dispatch_histogram(lossy_traced):
    _, res = lossy_traced
    samples = res.trace.select(name="engine.dispatch")
    assert samples and all(r.ph == "C" for r in samples)
    assert sum(r.value for r in samples) > 0


def test_ring_capacity_bounds_memory_and_counts_drops():
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(P, 2, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(SEED))
    fabric.set_fault_all(_lossy)
    comm_small = Communicator(
        fabric, config=CollectiveConfig(chunk_size=4096, transport="ud"),
        trace=TraceConfig(capacity=4))
    res = _bcast(comm_small)
    assert res.trace.dropped > 0
    for g, t in res.trace.tracks():
        assert len(res.trace.select(group=g, track=t)) <= 4 or g == "engine"


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(capacity=0).validate()
    with pytest.raises(ValueError):
        TraceConfig(engine_bin=0.0).validate()


# ------------------------------------------------------------------ DPA spans


def test_dpa_compute_spans():
    tracer = Tracer(TraceConfig())
    core = MTCoreSim(freq_hz=1.8e9, threads_per_core=16)
    trace = IsaTrace.build("unit", [Segment("compute", 100),
                                    Segment("stall", 50),
                                    Segment("compute", 60)])
    core.run(trace, n_threads=4, n_items=32, chunk_bytes=4096, tracer=tracer)
    view = tracer.view()
    spans = view.select(name="dpa.compute")
    assert len(spans) == 64  # 32 items x 2 compute segments
    assert {r.track for r in spans} == {f"t{t}" for t in range(4)}
    assert all(r.ph == "X" and r.value > 0 for r in spans)


# ------------------------------------------------- redesigned collective API


def _plain_fabric(seed: int = 0, hosts: int = 8) -> Fabric:
    return Fabric(Simulator(), Topology.leaf_spine(hosts, 2, 2),
                  link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed))


def _rs_data(p: int, elems_per_rank: int = 4096):
    rng = np.random.default_rng(7)
    return [rng.normal(size=elems_per_rank).astype(np.float32)
            for _ in range(p)]


@pytest.mark.parametrize("algorithm", ["ring", "inc"])
def test_reduce_scatter_matches_baseline_bit_for_bit(algorithm):
    p = 8
    data = _rs_data(p)
    comm = Communicator(_plain_fabric())
    res = comm.reduce_scatter(data, algorithm=algorithm)
    fn = ring_reduce_scatter if algorithm == "ring" else inc_reduce_scatter
    base = fn(_plain_fabric(), data)
    assert res.kind == CollectiveKind.REDUCE_SCATTER == "reduce_scatter"
    assert res.t_end == base.t_end
    assert len(res.buffers) == p
    for mine, theirs in zip(res.buffers, base.buffers):
        assert np.array_equal(mine, theirs)
    assert res.verify_reduce_scatter(data)
    assert res.recv_bytes_per_rank == res.send_bytes // p
    assert res.throughput > 0


def test_reduce_scatter_async_handle_protocol():
    comm = Communicator(_plain_fabric())
    handle = comm.reduce_scatter_async(_rs_data(8))
    assert not handle.complete
    # Baseline handles carry no immediate-data coll_id (the old negative-id
    # convention is gone); they are tracked by handle_id instead.
    assert handle.coll_id is None
    assert handle.handle_id >= 0
    comm.run(handle)
    assert handle.complete
    res = handle.result()
    assert res.phase_means().total >= 0.0
    comm.release(handle)  # no engine state: must be a safe no-op


def test_traced_reduce_scatter_carries_view():
    fabric = _plain_fabric()
    comm = Communicator(fabric, trace=TraceConfig())
    res = comm.reduce_scatter(_rs_data(8), algorithm="inc")
    assert res.trace is not None and len(res.trace) > 0
    assert res.trace.count("nic.cqe") > 0


def test_collective_kind_rejects_unknown(lossy_traced):
    _, res = lossy_traced
    with pytest.raises(ValueError):
        CollectiveKind("scan")
    bogus = dataclasses.replace(res, kind="scan")
    with pytest.raises(ValueError):
        bogus.throughput
    with pytest.raises(ValueError):
        bogus.recv_bytes_per_rank


def test_phase_means_tolerates_empty_ranks(lossy_traced):
    _, res = lossy_traced
    empty = dataclasses.replace(res, ranks=[])
    assert empty.phase_means() == PhaseBreakdown(
        sync=0.0, multicast=0.0, handshake=0.0, total=0.0)
