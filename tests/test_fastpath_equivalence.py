"""Proof of equivalence for the simulator fast paths.

Two independent fast paths are proven here, each against its own slow
path:

* the **packet-train** fast path (wire side, PR 2): every scenario is
  executed with channel coalescing on and off, and the two runs must
  agree *exactly* — completion times, per-rank phase timestamps,
  per-channel byte/packet/drop counters, switch forwarding counters, the
  reliability summary, and the received payloads;
* the **receiver-batch** fast path (host side, DESIGN.md §6c): the same
  battery toggles ``recv_batching`` instead, across clean / lossy /
  reordered / straggler conditions × {broadcast, allgather} × {ud, uc}.

Any float divergence, however small, is a bug in the fast path (see
DESIGN.md §"Simulator fast path" and §6c).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.faults import GilbertElliott, StragglerSpec
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.obs import TraceConfig
from repro.sim.engine import Simulator
from repro.sim.events import Timeout
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s

P = 16
NBYTES = 64 * KiB


def _make_comm(seed: int, coalescing: bool, fault_factory=None,
               transport: str = "ud", recv_batching: bool = True,
               straggler=None, n_chains: int = 1) -> Communicator:
    sim = Simulator()
    fabric = Fabric(
        sim,
        Topology.leaf_spine(P, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
        coalescing=coalescing,
    )
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    if straggler is not None:
        host, spec = straggler
        fabric.set_straggler(host, spec)
    return Communicator(
        fabric, config=CollectiveConfig(chunk_size=4096, transport=transport,
                                        recv_batching=recv_batching,
                                        n_chains=n_chains)
    )


def _channel_counters(fabric: Fabric) -> Dict[Tuple[str, str], Tuple[int, ...]]:
    return {
        key: (ch.bytes_sent, ch.payload_bytes_sent, ch.packets_sent,
              ch.bytes_dropped, ch.packets_dropped)
        for key, ch in fabric.channels.items()
    }


def _switch_counters(fabric: Fabric) -> Dict[str, Tuple[int, int]]:
    return {
        name: (sw.packets_forwarded, sw.packets_dropped_no_route)
        for name, sw in fabric.switches.items()
    }


def _run(kind: str, seed: int, coalescing: bool, fault_factory=None,
         transport: str = "ud", recv_batching: bool = True,
         straggler=None):
    comm = _make_comm(seed, coalescing, fault_factory, transport,
                      recv_batching, straggler)
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        data = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        # 4 chunks per rank so senders have multi-packet runs to coalesce.
        data = [rng.integers(0, 256, 16 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return comm, res


def _assert_equivalent(kind: str, seed: int, fault_factory=None,
                       transport: str = "ud",
                       expect_trains: bool = True) -> None:
    comm_fast, res_fast = _run(kind, seed, True, fault_factory, transport)
    comm_slow, res_slow = _run(kind, seed, False, fault_factory, transport)

    # Virtual-time agreement must be exact, not approximate.
    assert res_fast.t_begin == res_slow.t_begin
    assert res_fast.t_end == res_slow.t_end
    assert res_fast.duration == res_slow.duration
    for rf, rs in zip(res_fast.ranks, res_slow.ranks):
        assert rf.phases == rs.phases, f"rank {rf.rank} phase timestamps differ"

    # Byte-exact telemetry on every port and switch.
    assert _channel_counters(comm_fast.fabric) == _channel_counters(comm_slow.fabric)
    assert _switch_counters(comm_fast.fabric) == _switch_counters(comm_slow.fabric)
    assert res_fast.traffic == res_slow.traffic

    # Slow-path bookkeeping (recoveries, fetch rounds, retries) agrees too.
    assert res_fast.reliability_summary() == res_slow.reliability_summary()

    # Payloads byte-identical.
    for bf, bs in zip(res_fast.buffers, res_slow.buffers):
        assert np.array_equal(bf, bs)

    if expect_trains:
        assert res_fast.engine["trains"] > 0, "fast path never engaged"
    else:
        assert res_fast.engine["trains"] == 0, (
            "fast path must stay off while a live fault schedule exists"
        )
    assert res_slow.engine["trains"] == 0


def _lossy(s: str, d: str) -> FaultSpec:
    return FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_good=0.002, drop_bad=0.15))


def _reordered(s: str, d: str) -> FaultSpec:
    return FaultSpec(reorder_jitter=3e-6)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clean_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_lossy_equivalence(kind: str, seed: int) -> None:
    # Drop machinery no longer forces the per-packet slow path: the train
    # walk evaluates each packet's drop decision inline, in the identical
    # RNG consumption order, and delivers the survivors as one train.
    # Lossy channels must therefore still coalesce — and stay bit-exact.
    _assert_equivalent(kind, seed, fault_factory=_lossy, expect_trains=True)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_reordered_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fault_factory=_reordered,
                       expect_trains=False)


@pytest.mark.parametrize("seed", [0, 1])
def test_uc_transport_equivalence(seed: int) -> None:
    _assert_equivalent("broadcast", seed, transport="uc")


def test_past_fault_windows_allow_coalescing() -> None:
    """A fault spec whose windows are entirely in the past is inert: the
    fast path re-engages and still matches per-packet results exactly."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 1e-9)])

    # The collective starts at t=0, so the window is still live at first
    # transmissions; channels coalesce only after it expires.  Results
    # must agree regardless of the mid-run switchover.
    _assert_equivalent("broadcast", 0, fault_factory=stale,
                       expect_trains=True)


# ---------------------------------------------------------------------------
# Receiver-batch fast path (DESIGN.md §6c): batched vs per-CQE datapath.
# Coalescing stays ON for both runs, so this axis is orthogonal to the one
# above (the NIC stamps CQEs ahead of their arrival with or without trains;
# the submit-kind axis below crosses the two).
# ---------------------------------------------------------------------------


def _assert_batching_equivalent(kind: str, seed: int, fault_factory=None,
                                transport: str = "ud", straggler=None,
                                expect_batches: bool = True) -> None:
    comm_b, res_b = _run(kind, seed, True, fault_factory, transport,
                         recv_batching=True, straggler=straggler)
    comm_s, res_s = _run(kind, seed, True, fault_factory, transport,
                         recv_batching=False, straggler=straggler)

    assert res_b.t_begin == res_s.t_begin
    assert res_b.t_end == res_s.t_end
    assert res_b.duration == res_s.duration
    for rb, rs in zip(res_b.ranks, res_s.ranks):
        assert rb.phases == rs.phases, f"rank {rb.rank} phase timestamps differ"

    assert _channel_counters(comm_b.fabric) == _channel_counters(comm_s.fabric)
    assert _switch_counters(comm_b.fabric) == _switch_counters(comm_s.fabric)
    assert res_b.traffic == res_s.traffic
    assert res_b.reliability_summary() == res_s.reliability_summary()
    assert comm_b.fabric.total_rnr_drops() == comm_s.fabric.total_rnr_drops()

    for bf, bs in zip(res_b.buffers, res_s.buffers):
        assert np.array_equal(bf, bs)

    if expect_batches:
        assert res_b.engine["cqe_batches"] > 0, "batch fast path never engaged"
        assert res_b.engine["batched_cqes"] >= 2 * res_b.engine["cqe_batches"]
    assert res_s.engine["cqe_batches"] == 0
    assert res_s.engine["batched_cqes"] == 0


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recv_batching_clean_equivalence(kind: str, seed: int) -> None:
    _assert_batching_equivalent(kind, seed)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_lossy_equivalence(kind: str, seed: int) -> None:
    # Live faults keep channels per-packet, so no CQE trains ever form;
    # the assertion proves the batched configuration degrades to exactly
    # the per-CQE datapath when the wire gives it nothing to batch.
    _assert_batching_equivalent(kind, seed, fault_factory=_lossy,
                                expect_batches=False)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_reordered_equivalence(kind: str, seed: int) -> None:
    _assert_batching_equivalent(kind, seed, fault_factory=_reordered,
                                expect_batches=False)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_straggler_equivalence(kind: str, seed: int) -> None:
    # Host 3 pays +300 ns per CQE poll inside the window; the worker gate
    # (fabric.straggler_inert) must force its batches back to per-CQE
    # while other hosts keep batching, with bit-identical results.
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_batching_equivalent(kind, seed, straggler=(3, spec))


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_uc_equivalence(kind: str, seed: int) -> None:
    _assert_batching_equivalent(kind, seed, transport="uc")


def test_recv_batching_straggler_window_suppresses_batches() -> None:
    """With every host straggling over the whole run, the eligibility gate
    must keep the batch counter at zero — and results still match."""
    spec = StragglerSpec(windows=[(0.0, 1.0)], extra_poll_delay=250e-9)

    def run(batching: bool):
        comm = _make_comm(0, True, recv_batching=batching)
        for h in range(P):
            comm.fabric.set_straggler(h, spec)
        data = np.arange(NBYTES, dtype=np.uint8) % 251
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
        return res

    res_b, res_s = run(True), run(False)
    assert res_b.engine["cqe_batches"] == 0
    assert res_b.duration == res_s.duration


# ---------------------------------------------------------------------------
# Flow-level fast-forward (DESIGN.md §6d, "Data fold"):
# ff=exact must be bit-identical in virtual time and result digests to the
# packet-level engine — the only thing the fold is ever compared against.
# Event counts necessarily DROP under fast-forward (that is the point), so
# this axis never compares sim_events; the wire/host counters it mirrors
# (bytes, packets, trains, switch forwards, traffic) must still agree.
# Receiver-batch telemetry (cqe_batches/batched_cqes) is also excluded: a
# folded phase never wakes the workers that would have batched.
#
# One session folds every shape (DESIGN.md §6d): a broadcast is one phase,
# an allgather one phase per sender, on any multicast tree.
# ---------------------------------------------------------------------------


def _run_ff(kind: str, seed: int, ff: str, fault_factory=None,
            transport: str = "ud", straggler=None, n_ranks: int = P,
            chunk_size: int = 4096, nbytes: Optional[int] = None,
            ctrl_fold: bool = True, topology=None, coalescing: bool = True,
            trace=None, **config):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topology() if topology else Topology.leaf_spine(n_ranks, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
    )
    fabric.set_coalescing(coalescing)
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    if straggler is not None:
        host, spec = straggler
        fabric.set_straggler(host, spec)
    comm = Communicator(
        fabric, trace=trace,
        config=CollectiveConfig(chunk_size=chunk_size, transport=transport,
                                fast_forward=ff, **config)
    )
    if not ctrl_fold:
        comm.cf = None  # data fold only: barrier and handshake as packets
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        data = rng.integers(0, 256, nbytes or NBYTES, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        data = [rng.integers(0, 256, nbytes or 16 * KiB, dtype=np.uint8)
                for _ in range(comm.size)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    misses = res.engine["ff_misses"]
    assert sum(misses.values()) == res.engine["ff_aborts"]
    return comm, res


def _assert_ff_exact(kind: str, seed: int, fault_factory=None,
                     transport: str = "ud", straggler=None,
                     expect_folds: bool = True, **shape):
    comm_ff, res_ff = _run_ff(kind, seed, "exact", fault_factory,
                              transport, straggler, **shape)
    comm_off, res_off = _run_ff(kind, seed, "off", fault_factory,
                                transport, straggler, **shape)

    assert res_ff.t_begin == res_off.t_begin
    assert res_ff.t_end == res_off.t_end
    assert res_ff.duration == res_off.duration
    for rf, ro in zip(res_ff.ranks, res_off.ranks):
        assert rf.phases == ro.phases, f"rank {rf.rank} phase timestamps differ"
        assert rf.counters == ro.counters

    assert _channel_counters(comm_ff.fabric) == _channel_counters(comm_off.fabric)
    assert _switch_counters(comm_ff.fabric) == _switch_counters(comm_off.fabric)
    assert res_ff.traffic == res_off.traffic
    assert res_ff.reliability_summary() == res_off.reliability_summary()
    # The fold mirrors the train counters the packet engine would produce.
    assert res_ff.engine["trains"] == res_off.engine["trains"]
    assert res_ff.engine["train_packets"] == res_off.engine["train_packets"]

    for bf, bo in zip(res_ff.buffers, res_off.buffers):
        assert np.array_equal(bf, bo)

    assert res_off.engine["ff_phases"] == 0
    if expect_folds:
        assert res_ff.engine["ff_phases"] > 0, "fast-forward never engaged"
        assert res_ff.engine["sim_events"] < res_off.engine["sim_events"]
    else:
        assert res_ff.engine["ff_phases"] == 0, (
            "fast-forward must stay off while a fault schedule is live"
        )
    return res_ff


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ff_exact_clean_equivalence(kind: str, transport: str, seed: int) -> None:
    _assert_ff_exact(kind, seed, transport=transport)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_ff_exact_control_fold_axis(kind: str, transport: str) -> None:
    # The control-plane fold (DESIGN.md §6i) against the same data fold with
    # the barrier and the handshake left at packet level: every instant and
    # counter agrees, and only the control packets' events are gone.
    comm_cf, res_cf = _run_ff(kind, 0, "exact", transport=transport)
    comm_pk, res_pk = _run_ff(kind, 0, "exact", transport=transport,
                              ctrl_fold=False)
    assert res_cf.duration == res_pk.duration
    for rc, rp in zip(res_cf.ranks, res_pk.ranks):
        assert rc.phases == rp.phases, f"rank {rc.rank} phase timestamps differ"
    assert _channel_counters(comm_cf.fabric) == _channel_counters(comm_pk.fabric)
    assert _switch_counters(comm_cf.fabric) == _switch_counters(comm_pk.fabric)
    assert res_cf.traffic == res_pk.traffic
    assert ([(e.ctrl.messages_sent, e.ctrl.messages_received)
             for e in comm_cf.engines]
            == [(e.ctrl.messages_sent, e.ctrl.messages_received)
                for e in comm_pk.engines])
    assert res_cf.engine["ff_phases"] == res_pk.engine["ff_phases"] > 0
    # barrier, handshake and, along an allgather chain, the activations
    assert res_cf.engine["ctrl_folds"] == (3 if kind == "allgather" else 2)
    assert res_pk.engine["ctrl_folds"] == 0
    assert res_cf.engine["sim_events"] < res_pk.engine["sim_events"]


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ff_exact_lossy_equivalence(kind: str, seed: int) -> None:
    # Armed drop machinery fails every channel's fault_inert() probe, so
    # the eligibility gate must veto all folds — and the run must then be
    # trivially identical to the packet engine.  The first phase names
    # the gate; every later one says the collective already fell back.
    res = _assert_ff_exact(kind, seed, fault_factory=_lossy,
                           expect_folds=False)
    later = {"poisoned": P - 1} if kind == "allgather" else {}
    assert res.engine["ff_misses"] == {"fault": 1, **later}


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ff_exact_straggler_equivalence(kind: str, seed: int) -> None:
    # A straggler window overlapping any receiver's folded interval vetoes
    # the fold (fabric.straggler_inert); with host 3 slow for the whole
    # run, no phase may fold and results stay bit-identical.
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_ff_exact(kind, seed, straggler=(3, spec), expect_folds=False)


@pytest.mark.parametrize("kind,setup,misses", [
    ("allgather", {"n_chains": 4}, {"chains": 1, "poisoned": P - 1}),
    ("broadcast", {"n_subgroups": 2}, {"subgroups": 1}),
], ids=["chains", "subgroups"])
def test_ff_misses_name_their_reason(kind: str, setup, misses) -> None:
    # The paper's chains and subgroups are not folded yet: each declined
    # phase is counted under the gate that declined it, and traced with it.
    _, res = _run_ff(kind, 0, "exact", trace=TraceConfig(), **setup)
    assert res.engine["ff_phases"] == 0
    assert res.engine["ff_misses"] == misses
    traced: Dict[str, int] = {}
    for ev in res.trace.select(name="engine.ff_miss"):
        traced[ev.args["reason"]] = traced.get(ev.args["reason"], 0) + 1
    assert traced == misses


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
def test_ff_exact_without_coalescing(kind: str) -> None:
    # A phase's trains are counted once, from the one coalescing flag every
    # tree channel shares: with the packet-train path off there are none.
    res = _assert_ff_exact(kind, 0, coalescing=False)
    assert res.engine["trains"] == 0
    assert res.engine["ff_phases"] == (1 if kind == "broadcast" else P)


def _count_calls(monkeypatch, cls, name: str) -> list:
    """Spy on ``cls.name``: the returned list grows by one per call, by
    the value that call returned (``None`` when it raised)."""
    calls = []
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(None)
        out = calls[-1] = real(self, *args, **kwargs)
        return out

    monkeypatch.setattr(cls, name, spy)
    return calls


def _phase_spy(monkeypatch) -> list:
    from repro.sim.fastforward import _Session
    return _count_calls(monkeypatch, _Session, "phase")


# The exactness matrix: every multicast tree family × every fold shape ×
# both transports folds every phase and matches the reference.
_FF_TOPOLOGIES = {
    "leaf_spine": lambda: Topology.leaf_spine(16, 4, 2),
    "fat_tree3": lambda: Topology.fat_tree3(16, 4, 4, 2),
    "torus": lambda: Topology.torus((4, 4)),
    "dragonfly": lambda: Topology.dragonfly(4, 2, 2),
    "star": lambda: Topology.star(16),
}
_FF_SHAPES = {  # kind, shape, phases folded
    "bcast16": ("broadcast", {}, 1),  # 16 x 4 KiB chunks
    "ag1": ("allgather", {"chunk_size": 1024, "nbytes": 1024}, 16),
    "ag4": ("allgather", {}, 16),  # 4 x 4 KiB chunks per rank
}


@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("shape", sorted(_FF_SHAPES))
@pytest.mark.parametrize("topology", sorted(_FF_TOPOLOGIES))
def test_ff_exact_matrix(topology: str, shape: str, transport: str) -> None:
    kind, kw, phases = _FF_SHAPES[shape]
    res = _assert_ff_exact(kind, 0, transport=transport,
                           topology=_FF_TOPOLOGIES[topology], **kw)
    assert res.engine["ff_phases"] == phases
    assert res.engine["ff_aborts"] == 0


def _control_left(comm: Communicator):
    """What control packets leave beyond the wire counters: every NIC's rx
    counters, every plane's message counts and heartbeats."""
    return ([(nic.packets_received, nic.bytes_received)
             for nic in comm.fabric.nics.values()],
            [(e.ctrl.messages_sent, e.ctrl.messages_received, e.ctrl.last_heard)
             for e in comm.engines])


# The activation fold (DESIGN.md §6i) over the same tree families: an
# allgather chain's 15 activations leave what their packets would, and the
# folded run builds no RC pair at all.
@pytest.mark.parametrize("chunks", [1, 4])
@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("topology", sorted(_FF_TOPOLOGIES))
def test_ff_exact_activation_fold_matrix(topology: str, transport: str,
                                         chunks: int) -> None:
    kw = dict(transport=transport, topology=_FF_TOPOLOGIES[topology],
              chunk_size=1024, nbytes=1024 * chunks)
    comm, res = _run_ff("allgather", 0, "exact", **kw)
    ref_comm, ref = _run_ff("allgather", 0, "off", **kw)
    assert res.duration == ref.duration
    for rf, ro in zip(res.ranks, ref.ranks):
        assert rf.phases == ro.phases, f"rank {rf.rank} phase timestamps differ"
    assert _channel_counters(comm.fabric) == _channel_counters(ref_comm.fabric)
    assert _switch_counters(comm.fabric) == _switch_counters(ref_comm.fabric)
    assert _control_left(comm) == _control_left(ref_comm)
    assert res.engine["ff_phases"] == P and res.engine["ff_aborts"] == 0
    assert res.engine["ctrl_folds"] == 3 and res.engine["ctrl_fold_misses"] == {}
    assert res.engine["ctrl_pairs"] == 0 < ref.engine["ctrl_pairs"]


def _chain_then_broadcast(ff: str, topology, transport: str, at: float):
    """A 16-rank allgather, then a broadcast submitted at *at* from a
    driver process; what both collectives leave behind."""
    fabric = Fabric(Simulator(), topology(), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(0))
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=1024, transport=transport, fast_forward=ff))
    data = np.arange(4 * KiB, dtype=np.uint8)
    handles = []

    def driver():
        handles.append(comm.allgather_async([data[:1024] + r for r in range(P)]))
        yield Timeout(comm.sim, at)
        handles.append(comm.broadcast_async(3, data))

    comm.sim.drain([comm.sim.spawn(driver())])
    comm.run(*handles)
    left = ([[op.phases for op in h.ops] for h in handles],
            _channel_counters(fabric), _switch_counters(fabric),
            _control_left(comm))
    return comm, left


_CHAIN_WINDOW: Dict[Tuple[str, str], Tuple[float, float]] = {}


def _chain_window(topology: str, transport: str) -> Tuple[float, float]:
    """First and last ``send_done`` of the chain's activating ranks."""
    key = (topology, transport)
    if key not in _CHAIN_WINDOW:
        _, res = _run_ff("allgather", 0, "exact", transport=transport,
                         topology=_FF_TOPOLOGIES[topology], chunk_size=1024,
                         nbytes=1024)
        sends = sorted(r.phases["activated"] for r in res.ranks
                       if "activated" in r.phases)
        _CHAIN_WINDOW[key] = (sends[0], sends[-1])
    return _CHAIN_WINDOW[key]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(topology=st.sampled_from(sorted(_FF_TOPOLOGIES)),
       transport=st.sampled_from(["ud", "uc"]),
       frac=st.floats(0.01, 0.99))
def test_a_collective_admitted_mid_chain_gets_the_activations_back(
        topology: str, transport: str, frac: float) -> None:
    # Whenever inside the chain the broadcast is admitted — an activation on
    # the wire, queued, in service, or between two of them — the chain goes
    # back to the packet path and both collectives end as they do there.
    lo, hi = _chain_window(topology, transport)
    at = lo + frac * (hi - lo)
    comm, got = _chain_then_broadcast("exact", _FF_TOPOLOGIES[topology],
                                      transport, at)
    _, want = _chain_then_broadcast("off", _FF_TOPOLOGIES[topology],
                                    transport, at)
    assert got == want
    assert comm.cf.misses.get("preempted", 0) >= 1
    assert comm.cf.folds + sum(comm.cf.misses.values()) == 5


@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_ff_exact_lane_session_allgather(transport: str, monkeypatch) -> None:
    # 32 ranks x one 1 KiB chunk each: the whole chain runs in one
    # deferred-commit session, and no byte is copied.
    n = 32
    folds = _phase_spy(monkeypatch)
    res = _assert_ff_exact("allgather", 0, transport=transport, n_ranks=n,
                           chunk_size=1024, nbytes=1024)
    assert len(folds) == res.engine["ff_phases"] == n
    assert res.engine["ff_aborts"] == 0
    assert res.engine["stamped_cqes"] == 0
    assert res.engine["payload_bytes_copied"] == 0
    assert res.engine["payload_bytes_placed"] == n * (n - 1) * 1024


@pytest.mark.parametrize("chunks,receivers", [(1, 3), (2, 7), (64, 31)],
                         ids=["1x3", "2x7", "64x31"])
@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_ff_exact_receiver_fold_broadcast(transport: str, chunks: int,
                                          receivers: int, monkeypatch) -> None:
    # One session at every size: a one-chunk phase to three receivers and
    # a 64 x 31 phase are both one phase of the same session.
    folds = _phase_spy(monkeypatch)
    res = _assert_ff_exact("broadcast", 0, transport=transport,
                           n_ranks=receivers + 1, chunk_size=1024,
                           nbytes=chunks * 1024)
    assert len(folds) == res.engine["ff_phases"] == 1


@pytest.mark.parametrize("window,folds", [((1.0, 2.0), True),
                                          ((0.0, 1e-3), False)],
                         ids=["outside", "overlapping"])
def test_ff_exact_receiver_fold_straggler_armed(window, folds: bool,
                                                monkeypatch) -> None:
    # A straggler spec installed on host 3 leaves the 64 x 31 phase in the
    # session, which vetoes per receiver: a window far past the folded
    # interval folds, one overlapping host 3's declines.
    calls = _phase_spy(monkeypatch)
    spec = StragglerSpec(windows=[window], extra_poll_delay=300e-9)
    res = _assert_ff_exact("broadcast", 0, straggler=(3, spec),
                           expect_folds=folds, n_ranks=32, chunk_size=1024,
                           nbytes=64 * KiB)
    assert len(calls) == 1 and (calls[0] is not None) == folds
    assert res.engine["ff_misses"] == ({} if folds else {"straggler": 1})


@pytest.mark.xfail(strict=True, reason="a later phase reaches a shared "
                   "edge before an earlier phase's packet, ROADMAP item 2(i)")
def test_ff_exact_dragonfly_allgather_regression_seed() -> None:
    # Twelve one-chunk phases fold on a dragonfly with zero-latency links
    # and free control messages; two ranks' data/final instants come out
    # one or two receive-cost quanta away from the packet engine.
    from repro.core.costmodel import HostCostModel

    def run(ff: str):
        fabric = Fabric(Simulator(), Topology.dragonfly(3, 2, 2),
                        link_latency=0.0, streams=RandomStreams(0))
        comm = Communicator(fabric, config=CollectiveConfig(
            chunk_size=4 * KiB, transport="uc", fast_forward=ff,
            cost=HostCostModel(ctrl_message=0.0)))
        rng = np.random.default_rng(0)
        data = [rng.integers(0, 256, 4 * KiB, dtype=np.uint8)
                for _ in range(comm.size)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
        return res

    res_ff, res_off = run("exact"), run("off")
    assert res_ff.engine["ff_phases"] == 12
    assert res_ff.engine["ff_aborts"] == 0
    assert [r.phases for r in res_ff.ranks] == [r.phases for r in res_off.ranks]


def test_ff_poisons_collective_after_fallback() -> None:
    """Within ONE collective, any packet-level fallback must veto every
    later fold of the same collective: a fallback phase moves the real
    receive-worker cursors, which the analytic fold can no longer track.
    A flap window covering the first phases forces exactly that."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 2e-5)])

    comm_ff, res_ff = _run_ff("allgather", 0, "exact", fault_factory=stale)
    assert res_ff.engine["ff_phases"] == 0
    assert res_ff.engine["ff_aborts"] > 0
    # ... and the run is still bit-identical to the packet engine.
    _assert_ff_exact("allgather", 0, fault_factory=stale, expect_folds=False)


def test_ff_mixed_mode_across_collectives() -> None:
    """A fault window that expires between collectives poisons nothing
    permanently: the first broadcast (window live) runs packet-level, the
    second folds — and both match the packet engine bit-for-bit."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 2e-5)])

    def run(ff: str):
        comm = _make_comm(0, True, fault_factory=stale)
        comm.config.fast_forward = ff
        comm.ff = None
        if ff != "off":
            from repro.sim.fastforward import FlowFastForward
            comm.ff = FlowFastForward(comm)
        rng = np.random.default_rng(0)
        data1 = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        data2 = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res1 = comm.broadcast(0, data1)
        res2 = comm.broadcast(0, data2)
        assert res1.verify_broadcast(data1)
        assert res2.verify_broadcast(data2)
        return res1, res2

    (ff1, ff2) = run("exact")
    (off1, off2) = run("off")
    assert ff1.engine["ff_phases"] == 0, "window was live: must not fold"
    assert ff2.engine["ff_phases"] > 0, "window expired: second op must fold"
    for rf, ro in [(ff1, off1), (ff2, off2)]:
        assert rf.t_begin == ro.t_begin
        assert rf.t_end == ro.t_end
        for a, b in zip(rf.ranks, ro.ranks):
            assert a.phases == b.phases


def test_ff_off_is_default() -> None:
    cfg = CollectiveConfig()
    assert cfg.fast_forward == "off"
    fabric = Fabric(Simulator(), Topology.star(4), streams=RandomStreams(0))
    # (retired names are spelled in pieces here so that a repo-wide grep
    # for them stays empty)
    for bad in ("bogus", "band" + "ed"):
        with pytest.raises(ValueError):
            CollectiveConfig(fast_forward=bad).validate(fabric)


def test_engine_selection_knobs_are_gone() -> None:
    # One fold mode, selected from observable sizes: there is no field
    # left to pick a tier, a backend or a shard count with.
    import dataclasses
    assert len(dataclasses.fields(CollectiveConfig)) == 30
    for knob in ("parallel", "ff_" + "vectorized"):
        with pytest.raises(TypeError):
            CollectiveConfig(**{knob: 1})


# ---------------------------------------------------------------------------
# Unified-submission kinds (allreduce = INC RS → multicast AG composed in
# one submission; alltoall = RC rotation schedule).  Both fast paths —
# packet-train coalescing and receiver batching — must stay bit-identical
# on these kinds across the same clean/lossy/straggler × {ud, uc} axes as
# the engine kinds above.  (The transports govern the allgather phase of
# allreduce; the RC substrate of alltoall and the reduce-scatter phase is
# transport-invariant by construction, which the axis also proves.)
#
# The ``_pchains`` kinds make every rank a concurrent allgather root
# (``n_chains = P``, one chunk each): each receiver's backlog comes from
# P - 1 different sources, never forms a train, and reaches the batch path
# only through look-ahead delivery (DESIGN.md §6c).
# ---------------------------------------------------------------------------


def _run_submit_kind(kind: str, seed: int, coalescing: bool,
                     fault_factory=None, transport: str = "ud",
                     recv_batching: bool = True, straggler=None):
    comm = _make_comm(seed, coalescing, fault_factory, transport,
                      recv_batching, straggler,
                      n_chains=P if kind.endswith("_pchains") else 1)
    rng = np.random.default_rng(seed)
    if kind.startswith("allreduce"):
        data = [rng.normal(size=P * 1024).astype(np.float32)
                for _ in range(P)]
        res = comm.allreduce(data, algorithm="inc")
        assert res.verify_allreduce(data)
    elif kind == "allgather_pchains":
        data = [rng.integers(0, 256, 4 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    else:
        data = [rng.integers(0, 256, 16 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.alltoall(data)
        assert res.verify_alltoall(data)
    return comm, res


_SUBMIT_CONDITIONS = {
    "clean": {},
    "lossy": {"fault_factory": _lossy},
    "straggler": {"straggler": (3, StragglerSpec(
        windows=[(0.0, 1e-3)], extra_poll_delay=300e-9))},
}


@pytest.mark.parametrize("kind", ["allreduce", "alltoall",
                                  "allgather_pchains", "allreduce_pchains"])
@pytest.mark.parametrize("condition", sorted(_SUBMIT_CONDITIONS))
@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("seed", [0, 1])
def test_submit_kind_fastpath_equivalence(kind: str, condition: str,
                                          transport: str, seed: int) -> None:
    kw = _SUBMIT_CONDITIONS[condition]
    comm_ref, res_ref = _run_submit_kind(kind, seed, True,
                                         transport=transport, **kw)
    variants = [
        _run_submit_kind(kind, seed, False, transport=transport, **kw),
        _run_submit_kind(kind, seed, True, transport=transport,
                         recv_batching=False, **kw),
    ]
    ref_phases = [(ph.name, ph.t_begin, ph.t_end) for ph in res_ref.phases]
    ref_rank_phases = [(r.rank, r.phases) for r in res_ref.ranks]
    for comm_v, res_v in variants:
        assert res_v.t_begin == res_ref.t_begin
        assert res_v.t_end == res_ref.t_end
        assert res_v.duration == res_ref.duration
        assert [(ph.name, ph.t_begin, ph.t_end)
                for ph in res_v.phases] == ref_phases
        assert [(r.rank, r.phases) for r in res_v.ranks] == ref_rank_phases
        assert (comm_v.fabric.total_rnr_drops()
                == comm_ref.fabric.total_rnr_drops())
        assert _channel_counters(comm_v.fabric) == _channel_counters(comm_ref.fabric)
        assert _switch_counters(comm_v.fabric) == _switch_counters(comm_ref.fabric)
        for bv, br in zip(res_v.buffers, res_ref.buffers):
            assert np.array_equal(bv, br)
    # The per-CQE reference never sees a stamped or batched CQE ...
    per_cqe = variants[1][1].engine
    assert per_cqe["stamped_cqes"] == per_cqe["batched_cqes"] == 0
    if kind.startswith("allreduce"):
        # ... and the reduce-scatter phase folds wherever trains run: INC
        # and RC packets are immune to the Gilbert-Elliott loss, and a
        # straggler only slows the multicast engine's receive path.
        assert res_ref.engine["inc_folds"] == per_cqe["inc_folds"] == 1
        assert variants[0][1].engine["inc_fold_misses"] == {"reference": 1}
    if kind.endswith("_pchains") and condition == "clean":
        # ... and a clean cross-source backlog is batched, trains or not.
        for res in (res_ref, variants[0][1]):
            assert res.engine["stamped_cqes"] >= res.engine["batched_cqes"] > 0
        assert variants[0][1].engine["trains"] == 0


# ---------------------------------------------------------------------------
# INC fold (DESIGN.md §6j): on the production path (coalescing on) a whole
# reduce-scatter / reduce pass is one closed form; coalescing off is the
# per-packet oracle.  Per kind, a segment shape the fold must get right:
# ragged last segments, bypass-lane segments (32 B payloads ride the
# control VL), and two segments per allreduce shard.
# ---------------------------------------------------------------------------

_INC_TOPOLOGIES = {
    "leaf_spine": lambda: Topology.leaf_spine(16, 2, 2),
    "testbed_188": Topology.testbed_188,
    "fat_tree3": lambda: Topology.fat_tree3(16, 4, 4, 2),
    "torus": lambda: Topology.torus([4, 4]),
    "dragonfly": lambda: Topology.dragonfly(3, 2, 2),
    "star": lambda: Topology.star(2),
}
_INC_ELEMS = {"reduce_scatter": 1100, "reduce": 8, "allreduce": 2048}


def _run_inc(kind: str, topology: str, coalescing: bool):
    fabric = Fabric(Simulator(), _INC_TOPOLOGIES[topology](),
                    link_bandwidth=gbit_per_s(56), coalescing=coalescing)
    comm = Communicator(fabric)
    per = 64 if topology == "testbed_188" else _INC_ELEMS[kind]
    rng = np.random.default_rng(0)
    data = [rng.normal(size=comm.size * per).astype(np.float32)
            for _ in range(comm.size)]
    if kind == "reduce_scatter":
        res = comm.reduce_scatter(data, algorithm="inc")
    elif kind == "reduce":
        res = comm.reduce(data, root=comm.size // 2)
    else:
        res = comm.allreduce(data, algorithm="inc")
    return fabric, res


@pytest.mark.parametrize("kind", sorted(_INC_ELEMS))
@pytest.mark.parametrize("topology", sorted(_INC_TOPOLOGIES))
def test_inc_fold_equivalence(kind: str, topology: str) -> None:
    fab_f, folded = _run_inc(kind, topology, True)
    fab_p, packets = _run_inc(kind, topology, False)
    assert folded.engine["inc_folds"] == 1 and not folded.engine["inc_fold_misses"]
    assert packets.engine["inc_folds"] == 0
    assert packets.engine["inc_fold_misses"] == {"reference": 1}
    assert ([(ph.name, ph.t_begin, ph.t_end) for ph in folded.phases]
            == [(ph.name, ph.t_begin, ph.t_end) for ph in packets.phases])
    assert [r.phases for r in folded.ranks] == [r.phases for r in packets.ranks]
    assert _channel_counters(fab_f) == _channel_counters(fab_p)
    assert _switch_counters(fab_f) == _switch_counters(fab_p)
    assert ({h: (n.packets_received, n.bytes_received) for h, n in fab_f.nics.items()}
            == {h: (n.packets_received, n.bytes_received) for h, n in fab_p.nics.items()})
    if kind != "allreduce":  # (the allgather phase's trains move horizons)
        assert ({k: (c.busy_until, c.horizon) for k, c in fab_f.channels.items()}
                == {k: (c.busy_until, c.horizon) for k, c in fab_p.channels.items()})
    assert folded.traffic == packets.traffic
    for bf, bp in zip(folded.buffers, packets.buffers):
        assert np.asarray(bf).tobytes() == np.asarray(bp).tobytes()
    assert folded.engine["sim_events"] < packets.engine["sim_events"]


def test_coalescing_toggle_mid_simulation() -> None:
    """set_coalescing() flips every channel and is honored immediately."""
    comm = _make_comm(0, True)
    comm.fabric.set_coalescing(False)
    assert all(not ch.coalescing for ch in comm.fabric.channels.values())
    data = np.arange(NBYTES, dtype=np.uint8) % 251
    res = comm.broadcast(0, data)
    assert res.engine["trains"] == 0
    comm.fabric.set_coalescing(True)
    res2 = comm.broadcast(0, data)
    assert res2.engine["trains"] > 0
