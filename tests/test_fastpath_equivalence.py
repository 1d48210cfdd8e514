"""Proof of equivalence between the simulator's two paths.

Virtual time has one semantics and two engines (DESIGN.md "Two paths, one
semantics"): ``Fabric(reference=True)`` simulates every packet and every
receive CQE as its own event, and the default production engine runs the
same packet path with the folds (§6d, §6i, §6j) trying every phase.  Every
scenario here runs on both, and the two runs must agree *exactly* —
completion times, per-rank phase timestamps, per-channel byte/packet/drop
counters, switch forwarding counters, RNR drops, the reliability summary,
and the received payloads.

Any float divergence, however small, is a bug in the production path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.request import CollectiveRequest
from repro.net.fabric import Fabric
from repro.net.faults import GilbertElliott, StragglerSpec
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.obs import TraceConfig
from repro.sim.engine import Simulator
from repro.sim.events import Timeout
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s
from tests.unfolded import unfold

P = 16
NBYTES = 64 * KiB


def _make_comm(seed: int, reference: bool = False, fault_factory=None,
               transport: str = "ud", straggler=None,
               **config) -> Communicator:
    sim = Simulator()
    fabric = Fabric(
        sim,
        Topology.leaf_spine(P, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
        reference=reference,
    )
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    if straggler is not None:
        host, spec = straggler
        fabric.set_straggler(host, spec)
    return Communicator(
        fabric, config=CollectiveConfig(chunk_size=4096, transport=transport,
                                        **config)
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


def _run(kind: str, seed: int, reference: bool, fold: bool = True, **kw):
    comm = _make_comm(seed, reference, **kw)
    if not fold:
        unfold(comm)
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        data = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        # 4 chunks per rank: every sender posts a multi-packet burst.
        data = [rng.integers(0, 256, 16 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return comm, res


def _lossy(s: str, d: str) -> FaultSpec:
    return FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_good=0.002, drop_bad=0.15))


def _reordered(s: str, d: str) -> FaultSpec:
    return FaultSpec(reorder_jitter=3e-6)


def _stale(s: str, d: str) -> FaultSpec:
    return FaultSpec(flap_windows=[(0.0, 1e-9)])


def _assert_equivalent(kind: str, seed: int, fold: bool = True, **kw):
    """Run *kind* on both engines and assert they agree exactly; return
    both runs' results, production first.  With *fold* false the
    production run keeps the folds from taking a phase."""
    comm_p, res_p = _run(kind, seed, False, fold, **kw)
    comm_r, res_r = _run(kind, seed, True, **kw)

    # Virtual-time agreement must be exact, not approximate.
    assert res_p.t_begin == res_r.t_begin
    assert res_p.t_end == res_r.t_end
    assert res_p.duration == res_r.duration
    for rp, rr in zip(res_p.ranks, res_r.ranks):
        assert rp.phases == rr.phases, f"rank {rp.rank} phase timestamps differ"

    # Byte-exact telemetry on every port, switch and receive queue.
    assert _channel_counters(comm_p.fabric) == _channel_counters(comm_r.fabric)
    assert _switch_counters(comm_p.fabric) == _switch_counters(comm_r.fabric)
    assert res_p.traffic == res_r.traffic
    assert comm_p.fabric.total_rnr_drops() == comm_r.fabric.total_rnr_drops()

    # Slow-path bookkeeping (recoveries, fetch rounds, retries) agrees too.
    assert res_p.reliability_summary() == res_r.reliability_summary()

    # Payloads byte-identical.
    for bp, br in zip(res_p.buffers, res_r.buffers):
        assert np.array_equal(bp, br)

    # Below the folds there is one packet path: event for event.
    if not fold:
        assert res_p.engine["sim_events"] == res_r.engine["sim_events"]
    return res_p, res_r


# ---------------------------------------------------------------------------
# The production engine, folds on, under every fault condition.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clean_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_lossy_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fault_factory=_lossy)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_reordered_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fault_factory=_reordered)


@pytest.mark.parametrize("seed", [0, 1])
def test_uc_transport_equivalence(seed: int) -> None:
    _assert_equivalent("broadcast", seed, transport="uc")


def test_past_fault_windows_equivalence() -> None:
    """A fault spec whose windows are entirely in the past is inert: the
    window is live at the first transmissions and expires mid-run, and
    results still match the reference exactly."""
    _assert_equivalent("broadcast", 0, fault_factory=_stale)


# ---------------------------------------------------------------------------
# One packet path below the folds: with both folds kept from taking a
# phase, the production engine runs the reference's per-packet, per-CQE
# code — event for event.  (The ``recv_batching`` axes are named for the
# receive-batch tier they covered until it was deleted; they now pin the
# per-CQE receive path under each condition.)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
def test_one_packet_path_below_the_folds(kind: str) -> None:
    res, ref = _assert_equivalent(kind, 0, fold=False)
    assert res.engine["ff_phases"] == res.engine["ctrl_folds"] == 0
    assert res.engine["sim_events"] == ref.engine["sim_events"]


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recv_batching_clean_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fold=False)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_lossy_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fold=False, fault_factory=_lossy)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_reordered_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fold=False, fault_factory=_reordered)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_straggler_equivalence(kind: str, seed: int) -> None:
    # Host 3 pays +300 ns per CQE poll inside the window: its worker
    # cannot tell its steps ahead, the other hosts' can.
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_equivalent(kind, seed, fold=False, straggler=(3, spec))


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_uc_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fold=False, transport="uc")


def test_recv_batching_straggler_window_suppresses_batches(monkeypatch) -> None:
    """With every host straggling over the whole run, no worker can tell
    a step's end ahead, so no phase folds — and results still match."""
    from repro.core.progress import RankEngine

    spec = StragglerSpec(windows=[(0.0, 1.0)], extra_poll_delay=250e-9)
    ends = []
    plan = RankEngine._plan_step

    def spy(self, step, *args):
        plan(self, step, *args)
        ends.append(step.free)

    monkeypatch.setattr(RankEngine, "_plan_step", spy)

    def run(reference: bool):
        comm = _make_comm(0, reference)
        for h in range(P):
            comm.fabric.set_straggler(h, spec)
        data = np.arange(NBYTES, dtype=np.uint8) % 251
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
        return comm, res

    (_, res_p), (_, res_r) = run(False), run(True)
    assert ends and set(ends) == {float("inf")}
    assert res_p.engine["ff_phases"] == 0
    assert res_p.duration == res_r.duration


# ---------------------------------------------------------------------------
# Flow-level fast-forward (DESIGN.md §6d, "Data fold"):
# ff=exact must be bit-identical in virtual time and result digests to the
# packet-level engine — the only thing the fold is ever compared against.
# Event counts necessarily DROP under fast-forward (that is the point), so
# this axis never compares sim_events; the wire/host counters it mirrors
# (bytes, packets, switch forwards, traffic) must still agree.
#
# One session folds every shape (DESIGN.md §6d): a broadcast is one phase,
# an allgather one phase per sender, on any multicast tree.
# ---------------------------------------------------------------------------


def _run_ff(kind: str, seed: int, reference: bool, fault_factory=None,
            transport: str = "ud", straggler=None, n_ranks: int = P,
            chunk_size: int = 4096, nbytes: Optional[int] = None,
            ctrl_fold: bool = True, topology=None,
            trace=None, **config):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topology() if topology else Topology.leaf_spine(n_ranks, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
        reference=reference,
    )
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    if straggler is not None:
        host, spec = straggler
        fabric.set_straggler(host, spec)
    comm = Communicator(
        fabric, trace=trace,
        config=CollectiveConfig(chunk_size=chunk_size, transport=transport,
                                **config)
    )
    if not ctrl_fold:
        unfold(comm, data=False)
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
    comm_ff, res_ff = _run_ff(kind, seed, False, fault_factory,
                              transport, straggler, **shape)
    comm_off, res_off = _run_ff(kind, seed, True, fault_factory,
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
    comm_cf, res_cf = _run_ff(kind, 0, False, transport=transport)
    comm_pk, res_pk = _run_ff(kind, 0, False, transport=transport,
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
    # Gilbert-Elliott loss on every channel is replayable: every phase folds,
    # each channel drawing its drops in the order it serves the packets, and
    # the ranks left with holes recover at packet level, bit for bit.
    res = _assert_ff_exact(kind, seed, fault_factory=_lossy)
    assert res.engine["ff_phases"] == (P if kind == "allgather" else 1)
    assert res.engine["ff_misses"] == {}


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ff_exact_straggler_equivalence(kind: str, seed: int) -> None:
    # A straggler window overlapping any receiver's folded interval vetoes
    # the fold (fabric.straggler_inert); with host 3 slow for the whole
    # run, no phase may fold and results stay bit-identical.
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_ff_exact(kind, seed, straggler=(3, spec), expect_folds=False)


@pytest.mark.parametrize("kind,setup,misses", [
    ("allgather", {"n_chains": 4}, {}),
    ("broadcast", {"n_subgroups": 2}, {"subgroups": 1}),
], ids=["chains", "subgroups"])
def test_ff_misses_name_their_reason(kind: str, setup, misses) -> None:
    # The paper's chains fold (every edge merges their packets) and match
    # the reference; subgroups are not folded yet: each declined phase is
    # counted under the gate that declined it, and traced with it.
    _, res = _run_ff(kind, 0, False, trace=TraceConfig(), **setup)
    assert res.engine["ff_phases"] == (0 if misses else P)
    assert res.engine["ff_misses"] == misses
    traced: Dict[str, int] = {}
    for ev in res.trace.select(name="engine.ff_miss"):
        traced[ev.args["reason"]] = traced.get(ev.args["reason"], 0) + 1
    assert traced == misses
    if not misses:
        _assert_ff_exact(kind, 0, **setup)


@pytest.mark.parametrize("kind", ["broadcast", "allgather", "allreduce"])
def test_ff_exact_declines_on_the_reference_path(kind: str) -> None:
    # Fabric(reference=True) is the oracle: the data, control and INC folds
    # decline every phase they are offered with the one word, and the
    # production run, which folds, matches it bit for bit.
    run = _run_submit_kind if kind == "allreduce" else _run
    comm, res = run(kind, 0, True)
    prod_comm, prod = run(kind, 0, False)
    keys = ("ff_misses", "ctrl_fold_misses") + (
        ("inc_fold_misses",) if kind == "allreduce" else ())
    for key in keys:
        assert set(res.engine[key]) == {"reference"}, key
    assert res.engine["ff_phases"] == res.engine["ctrl_folds"] == 0
    assert res.engine["inc_folds"] == 0
    assert prod.engine["ff_phases"] > 0 and prod.engine["ctrl_folds"] > 0
    assert ([(ph.name, ph.t_begin, ph.t_end) for ph in res.phases]
            == [(ph.name, ph.t_begin, ph.t_end) for ph in prod.phases])
    assert res.duration == prod.duration
    assert [r.phases for r in res.ranks] == [r.phases for r in prod.ranks]
    assert _channel_counters(comm.fabric) == _channel_counters(prod_comm.fabric)
    assert _switch_counters(comm.fabric) == _switch_counters(prod_comm.fabric)
    assert res.traffic == prod.traffic
    assert res.engine["sim_events"] > prod.engine["sim_events"]


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
    comm, res = _run_ff("allgather", 0, False, **kw)
    ref_comm, ref = _run_ff("allgather", 0, True, **kw)
    assert res.duration == ref.duration
    for rf, ro in zip(res.ranks, ref.ranks):
        assert rf.phases == ro.phases, f"rank {rf.rank} phase timestamps differ"
    assert _channel_counters(comm.fabric) == _channel_counters(ref_comm.fabric)
    assert _switch_counters(comm.fabric) == _switch_counters(ref_comm.fabric)
    assert _control_left(comm) == _control_left(ref_comm)
    assert res.engine["ff_phases"] == P and res.engine["ff_aborts"] == 0
    assert res.engine["ctrl_folds"] == 3 and res.engine["ctrl_fold_misses"] == {}
    assert res.engine["ctrl_pairs"] == 0 < ref.engine["ctrl_pairs"]


def _chain_then_broadcast(reference: bool, topology, transport: str,
                          at: float, n_chains: int = 1):
    """A 16-rank allgather, then a broadcast submitted at *at* from a
    driver process; what both collectives leave behind."""
    fabric = Fabric(Simulator(), topology(), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(0), reference=reference)
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=1024, transport=transport, n_chains=n_chains))
    data = np.arange(4 * KiB, dtype=np.uint8)
    handles = []

    def driver():
        handles.append(comm.submit(CollectiveRequest(
            kind="allgather", data=[data[:1024] + r for r in range(P)])))
        yield Timeout(comm.sim, at)
        handles.append(comm.submit(CollectiveRequest(kind="broadcast", data=data, root=3)))

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
        _, res = _run_ff("allgather", 0, False, transport=transport,
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
    comm, got = _chain_then_broadcast(False, _FF_TOPOLOGIES[topology],
                                      transport, at)
    _, want = _chain_then_broadcast(True, _FF_TOPOLOGIES[topology],
                                    transport, at)
    assert got == want
    assert comm.cf.misses.get("preempted", 0) >= 1
    assert comm.cf.folds + sum(comm.cf.misses.values()) == 5


_CHAINS_WINDOW: Dict[Tuple[str, str, int], Tuple[float, float]] = {}


def _chains_window(topology: str, transport: str, n_chains: int
                   ) -> Tuple[float, float]:
    """First ``sync`` and last ``send_done`` of an *n_chains* allgather
    run alone: the span in which its data phases are sent."""
    key = (topology, transport, n_chains)
    if key not in _CHAINS_WINDOW:
        _, res = _run_ff("allgather", 0, False, transport=transport,
                         topology=_FF_TOPOLOGIES[topology], chunk_size=1024,
                         nbytes=1024, n_chains=n_chains)
        _CHAINS_WINDOW[key] = (min(r.phases["sync"] for r in res.ranks),
                               max(r.phases["send_done"] for r in res.ranks))
    return _CHAINS_WINDOW[key]


#: cases whose folded run differs from the packet path: the broadcast
#: preempts a session whose folded packets are still in flight, and the
#: flush commits their channel watermarks ahead of packet-level packets
#: that reach those channels first (ROADMAP item 7(i))
_IN_FLIGHT_AT_ABORT = {
    ("dragonfly", "ud", 8, 0), ("dragonfly", "ud", 16, 0),
    ("dragonfly", "ud", 16, 1), ("dragonfly", "uc", 8, 0),
    ("dragonfly", "uc", 16, 0), ("dragonfly", "uc", 16, 1),
    ("fat_tree3", "ud", 16, 0), ("fat_tree3", "ud", 16, 1),
    ("leaf_spine", "ud", 16, 1), ("torus", "ud", 16, 0),
    ("torus", "uc", 16, 1),
}


def _mid_chains_cases():
    """Two instants per topology, transport and chain count, sampled once
    over the data window (a fraction of it) from a fixed seed."""
    rng = np.random.default_rng(0)
    for topology in sorted(_FF_TOPOLOGIES):
        for transport in ("ud", "uc"):
            for n_chains in (2, 4, 8, 16):
                for k, frac in enumerate(rng.uniform(0.0, 1.0, 2).tolist()):
                    key = (topology, transport, n_chains, k)
                    marks = [pytest.mark.xfail(
                        strict=True, reason="ROADMAP item 7(i): in-flight "
                        "folded packets flushed ahead of packet-level ones")
                    ] if key in _IN_FLIGHT_AT_ABORT else []
                    yield pytest.param(*key[:3], frac, marks=marks,
                                       id="-".join(map(str, key)))


@pytest.mark.parametrize("topology,transport,n_chains,frac",
                         list(_mid_chains_cases()))
def test_a_collective_admitted_mid_chains_gets_every_chains_activations_back(
        topology: str, transport: str, n_chains: int, frac: float) -> None:
    # Concurrent chains fold their data phases and their activations;
    # whenever a broadcast is admitted while they are sent, every chain's
    # folded activations and phases not over yet go back to the packet
    # path, and both collectives end as they do there.
    lo, hi = _chains_window(topology, transport, n_chains)
    at = lo + frac * (hi - lo)
    comm, got = _chain_then_broadcast(False, _FF_TOPOLOGIES[topology],
                                      transport, at, n_chains)
    _, want = _chain_then_broadcast(True, _FF_TOPOLOGIES[topology],
                                    transport, at, n_chains)
    assert got == want
    assert comm.ff.ff_phases or comm.cf.misses.get("preempted")  # folds ran


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


def _dragonfly_allgather(reference: bool, seed: int, **latencies):
    """A 4 KiB-per-rank UC allgather on ``dragonfly(3, 2, 2)`` with free
    control messages (*latencies*: the fabric's link and switch delays)."""
    from repro.core.costmodel import HostCostModel

    fabric = Fabric(Simulator(), Topology.dragonfly(3, 2, 2),
                    streams=RandomStreams(seed), reference=reference,
                    **latencies)
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=4 * KiB, transport="uc",
        cost=HostCostModel(ctrl_message=0.0)))
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, 4 * KiB, dtype=np.uint8)
            for _ in range(comm.size)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)
    return res


def test_ff_exact_dragonfly_allgather_regression_seed() -> None:
    # Twelve one-chunk phases on a dragonfly with zero-latency links and
    # free control messages: a later phase reaches a shared edge before an
    # earlier phase's packet.  The edge serves them in arrival order, so
    # all twelve phases fold and the run matches the reference.
    res = _dragonfly_allgather(False, 0, link_latency=0.0)
    ref = _dragonfly_allgather(True, 0, link_latency=0.0)
    assert res.engine["ff_phases"] == 12, res.engine["ff_misses"]
    assert res.engine["ff_misses"] == {}
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]
    assert res.duration == ref.duration and res.traffic == ref.traffic


def test_ff_exact_dragonfly_allgather_overtaken_phase() -> None:
    # With 0.1 us on every link and switch, a phase folded while an earlier
    # one's packets are still in the tree overtakes them on a shared edge.
    # Declining it used to leave the overtaken packets' future edge state
    # committed, where the packet-level phase queued behind it (rank 11's
    # data 0.46 us late); the merge folds every phase, exactly.
    lat = dict(link_latency=0.1e-6, switch_delay=0.1e-6)
    res = _dragonfly_allgather(False, 1, **lat)
    ref = _dragonfly_allgather(True, 1, **lat)
    assert res.engine["ff_phases"] == 12 and res.engine["ff_misses"] == {}
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]
    assert res.duration == ref.duration and res.traffic == ref.traffic
    for a, b in zip(res.buffers, ref.buffers):
        assert np.array_equal(a, b)


def test_packets_of_two_sizes_at_one_instant_are_a_tie() -> None:
    # Two phases whose packets reach the one switch of star(3) at one
    # instant: of one size either order leaves every instant as it is, of
    # two sizes the order decides them, so the merge declines (`tie`).
    from repro.sim.parallel import TreeEdges

    comm = Communicator(Fabric(Simulator(), Topology.star(3)))
    edges = TreeEdges(comm.ff.tree(comm.mcast_gids[0]),
                      np.zeros(3, dtype=np.intp), [0.0] * 3)
    state, rows = edges.add(0, [1e-6], [1088], [1024])
    assert rows is not None
    edges.commit(state)
    assert edges.add(1, [1e-6], [4160], [4096]) == (None, None)
    assert edges.add(1, [1e-6], [1088], [1024])[1] is not None


def test_ff_folded_send_holds_the_send_path_for_a_later_collective() -> None:
    # A 300,000 B broadcast folds on star(2); an allgather posted 26.96 µs
    # later reaches its run_send while the folded send has not returned.
    # The reference's allgather waits for the send path there, so the fold
    # holds it until the folded send's completion instant: every rank's
    # phases of both collectives match the reference.
    def run(reference: bool):
        fabric = Fabric(Simulator(), Topology.star(2),
                        link_bandwidth=gbit_per_s(56), streams=RandomStreams(0),
                        reference=reference)
        comm = Communicator(fabric, config=CollectiveConfig())
        data = (np.arange(300_000) % 251).astype(np.uint8)
        handles = []

        def driver():
            handles.append(comm.submit(CollectiveRequest(kind="broadcast", data=data, root=0)))
            yield Timeout(comm.sim, 26.96e-6)
            handles.append(comm.submit(CollectiveRequest(
                kind="allgather", data=[data[:4096] + r for r in range(2)])))

        comm.sim.drain([comm.sim.spawn(driver())])
        comm.run(*handles)
        return comm, [[op.phases for op in h.ops] for h in handles]

    comm, got = run(False)
    _, want = run(True)
    assert comm.ff.ff_phases == 1 and comm.ff.misses == {"not_exclusive": 2}
    assert got == want


def test_ff_lost_chunks_keep_later_phases_at_packet_level() -> None:
    """A phase that falls back does not latch the collective, but a later
    one folds only from a quiescent fabric that owes no rank a chunk: a
    flap window over the first phase loses its packets, so every later
    phase declines — `missing` while a rank lacks them, `busy` while the
    chain's packets are in flight — and the run stays bit-identical."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 2e-5)])

    res = _assert_ff_exact("allgather", 0, fault_factory=stale,
                           expect_folds=False)
    misses = res.engine["ff_misses"]
    assert misses["fault"] == 1 and misses["missing"] >= 1
    assert set(misses) == {"fault", "missing", "busy"}
    assert res.engine["ff_aborts"] == P
    assert res.reliability_summary()["recoveries"] > 0


def test_ff_mixed_mode_across_collectives() -> None:
    """A fault window that expires between collectives poisons nothing
    permanently: the first broadcast (window live) runs packet-level, the
    second folds — and both match the reference bit-for-bit."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 2e-5)])

    def run(reference: bool):
        comm = _make_comm(0, reference, fault_factory=stale)
        rng = np.random.default_rng(0)
        data1 = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        data2 = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res1 = comm.broadcast(0, data1)
        res2 = comm.broadcast(0, data2)
        assert res1.verify_broadcast(data1)
        assert res2.verify_broadcast(data2)
        return res1, res2

    (ff1, ff2) = run(False)
    (off1, off2) = run(True)
    assert ff1.engine["ff_phases"] == 0, "window was live: must not fold"
    assert ff2.engine["ff_phases"] > 0, "window expired: second op must fold"
    for rf, ro in [(ff1, off1), (ff2, off2)]:
        assert rf.t_begin == ro.t_begin
        assert rf.t_end == ro.t_end
        for a, b in zip(rf.ranks, ro.ranks):
            assert a.phases == b.phases


CONFIG_FIELDS = {
    # protocol
    "chunk_size", "n_subgroups", "n_chains", "transport", "batch_size",
    "max_outstanding_batches", "staging_slots",
    # reliability
    "cutoff_alpha", "adaptive_cutoff", "recovery_deadline", "failure_policy",
    "cost",
}

#: fields that became constants of repro.core.reliability, or (receive
#: workers, PSN width, fold mode) fixed by the design: one worker per
#: subgroup, the 24-bit immediate layout, folds that always try
RETIRED_CONFIG_FIELDS = (
    "recv_workers", "psn_bits", "fast_" + "forward",
    "recovery_alpha", "cutoff_alpha_min", "cutoff_alpha_max",
    "cutoff_gain", "cutoff_var_gain", "cutoff_var_weight",
    "recovery_backoff", "recovery_alpha_max", "recovery_jitter",
    "fetch_ack_timeout", "fetch_stall_rounds",
    "liveness_probe_timeout", "liveness_probe_retries", "suspicion_timeout",
)


def test_engine_selection_knobs_are_gone() -> None:
    # One engine switch, Fabric(reference=...), and one fold mode selected
    # from observable sizes: there is no field left to pick a tier, a
    # backend, a shard count or a receive path with.
    import dataclasses
    assert {f.name for f in dataclasses.fields(CollectiveConfig)} == CONFIG_FIELDS
    for knob in ("parallel", "ff_" + "vectorized", "recv_" + "batching"):
        with pytest.raises(TypeError):
            CollectiveConfig(**{knob: 1})
    with pytest.raises(TypeError):
        Fabric(Simulator(), Topology.star(2), **{"coal" + "escing": True})
    assert not hasattr(Fabric, "set_" + "coalescing")


@pytest.mark.parametrize("name", RETIRED_CONFIG_FIELDS)
def test_retired_config_field_is_rejected(name: str) -> None:
    with pytest.raises(TypeError):
        CollectiveConfig(**{name: 1})


# ---------------------------------------------------------------------------
# Unified-submission kinds (allreduce = INC RS → multicast AG composed in
# one submission; alltoall = RC rotation schedule).  The production path
# must stay bit-identical to the reference on these kinds across the same
# clean/lossy/straggler × {ud, uc} axes as the engine kinds above.  (The
# transports govern the allgather phase of
# allreduce; the RC substrate of alltoall and the reduce-scatter phase is
# transport-invariant by construction, which the axis also proves.)
#
# The ``_pchains`` kinds make every rank a concurrent allgather root
# (``n_chains = P``, one chunk each): each receiver's backlog comes from
# P - 1 different sources.
# ---------------------------------------------------------------------------


def _run_submit_kind(kind: str, seed: int, reference: bool, **kw):
    comm = _make_comm(seed, reference,
                      n_chains=P if kind.endswith("_pchains") else 1, **kw)
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
    comm_p, res_p = _run_submit_kind(kind, seed, False,
                                     transport=transport, **kw)
    comm_r, res_r = _run_submit_kind(kind, seed, True,
                                     transport=transport, **kw)
    assert res_p.t_begin == res_r.t_begin
    assert res_p.t_end == res_r.t_end
    assert res_p.duration == res_r.duration
    assert ([(ph.name, ph.t_begin, ph.t_end) for ph in res_p.phases]
            == [(ph.name, ph.t_begin, ph.t_end) for ph in res_r.phases])
    assert ([(r.rank, r.phases) for r in res_p.ranks]
            == [(r.rank, r.phases) for r in res_r.ranks])
    assert comm_p.fabric.total_rnr_drops() == comm_r.fabric.total_rnr_drops()
    assert _channel_counters(comm_p.fabric) == _channel_counters(comm_r.fabric)
    assert _switch_counters(comm_p.fabric) == _switch_counters(comm_r.fabric)
    for bp, br in zip(res_p.buffers, res_r.buffers):
        assert np.array_equal(bp, br)
    ref = res_r.engine
    if kind.startswith("allreduce"):
        # The reference never folds, while the production path folds the reduce-scatter
        # phase: INC and RC packets are immune to the Gilbert-Elliott loss,
        # and a straggler only slows the multicast engine's receive path.
        assert res_p.engine["inc_folds"] == 1
        assert ref["inc_folds"] == 0
        assert ref["inc_fold_misses"] == {"reference": 1}
    if kind.endswith("_pchains") and condition == "clean":
        # The data fold merges the P concurrent chains.
        assert res_p.engine["ff_phases"] == P


# ---------------------------------------------------------------------------
# INC fold (DESIGN.md §6j): on the production path a whole reduce-scatter /
# reduce pass is one closed form; Fabric(reference=True) is the per-packet
# oracle.  Per kind, a segment shape the fold must get right:
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


def _run_inc(kind: str, topology: str, reference: bool):
    fabric = Fabric(Simulator(), _INC_TOPOLOGIES[topology](),
                    link_bandwidth=gbit_per_s(56), reference=reference)
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
    fab_f, folded = _run_inc(kind, topology, False)
    fab_p, packets = _run_inc(kind, topology, True)
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
    if kind != "allreduce":  # (the data fold leaves the allgather's horizons)
        assert ({k: (c.busy_until, c.horizon) for k, c in fab_f.channels.items()}
                == {k: (c.busy_until, c.horizon) for k, c in fab_p.channels.items()})
    assert folded.traffic == packets.traffic
    for bf, bp in zip(folded.buffers, packets.buffers):
        assert np.asarray(bf).tobytes() == np.asarray(bp).tobytes()
    assert folded.engine["sim_events"] < packets.engine["sim_events"]
