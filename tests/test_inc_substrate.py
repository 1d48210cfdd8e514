"""Tests for the in-network-compute (SHARP-like) reduction substrate."""

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig
from repro.core.request import CollectiveRequest
from repro.net import Fabric, RecvWR, Topology, Transport
from repro.net.inc import IncTree
from repro.sim import Simulator
from repro.units import gbit_per_s
from repro.workloads import run_concurrent_pair
from repro.bench import make_fabric
from repro.units import KiB


def setup_tree(topo, members, shard_bytes, segment_bytes=4096):
    sim = Simulator()
    fabric = Fabric(sim, topo, link_bandwidth=gbit_per_s(56))
    rkey = 999_999
    qpn_of = {}
    bufs = {}
    for h in members:
        nic = fabric.nic(h)
        bufs[h] = nic.memory.register(shard_bytes, key=rkey)
        qp = nic.create_qp(Transport.RC)
        dummy = nic.memory.register(1)
        for i in range(128):
            qp.post_recv(RecvWR(wr_id=i, mr_key=dummy.key, offset=0, length=0))
        qpn_of[h] = qp.qpn
    tree = fabric.create_inc_tree(members, rkey, qpn_of, shard_bytes, segment_bytes)
    return sim, fabric, tree, bufs


def test_tree_structure_on_leaf_spine():
    topo = Topology.leaf_spine(8, 2, 2)
    sim, fabric, tree, _ = setup_tree(topo, list(range(8)), 4096)
    # Every switch in the tree except the root has a parent.
    roots = [n for n, role in tree.roles.items() if role.parent is None]
    assert len(roots) == 1
    root = roots[0]
    assert root.startswith("spine")
    # Leaves expect one contribution per attached member host.
    for name, role in tree.roles.items():
        if name.startswith("leaf"):
            assert role.expected == 4 + 0  # 4 hosts per leaf, no switch kids


def test_owner_mapping_and_segments():
    topo = Topology.star(4)
    sim, fabric, tree, _ = setup_tree(topo, [0, 1, 2, 3], 8192, 4096)
    assert tree.segs_per_shard == 2
    assert tree.n_segments == 8
    assert tree.owner_of(0) == (0, 0)
    assert tree.owner_of(1) == (0, 4096)
    assert tree.owner_of(2) == (1, 0)
    assert tree.owner_of(7) == (3, 4096)
    with pytest.raises(IndexError):
        tree.owner_of(8)


def test_switch_reduction_sums_contributions():
    topo = Topology.star(3)
    sim, fabric, tree, bufs = setup_tree(topo, [0, 1, 2], 4096, 4096)
    contributions = {
        h: np.full(1024, float(h + 1), dtype=np.float32) for h in (0, 1, 2)
    }
    # Each host injects its contribution for shard 0 (psn 0, owner host 0).
    for h in (0, 1, 2):
        tree.inject(h, 0, contributions[h].view(np.uint8))
    sim.run()
    result = bufs[0].buf.view(np.float32)
    np.testing.assert_allclose(result, 6.0)  # 1 + 2 + 3


def test_partial_contributions_do_not_emit():
    topo = Topology.star(3)
    sim, fabric, tree, bufs = setup_tree(topo, [0, 1, 2], 4096, 4096)
    tree.inject(0, 0, np.ones(1024, dtype=np.float32).view(np.uint8))
    tree.inject(1, 0, np.ones(1024, dtype=np.float32).view(np.uint8))
    sim.run()  # third contribution never arrives
    assert np.all(bufs[0].buf == 0)  # nothing delivered


def test_tree_validation():
    topo = Topology.star(4)
    sim = Simulator()
    fabric = Fabric(sim, topo)
    with pytest.raises(ValueError, match="float32"):
        IncTree(fabric, [0, 1], rkey=1, qpn_of={}, shard_bytes=1001)
    with pytest.raises(ValueError, match="MTU"):
        IncTree(fabric, [0, 1], rkey=1, qpn_of={}, shard_bytes=4096,
                segment_bytes=fabric.mtu * 2)
    with pytest.raises(ValueError, match="2 members"):
        IncTree(fabric, [0], rkey=1, qpn_of={}, shard_bytes=4096)


def test_fsdp_pair_modes_validated():
    with pytest.raises(ValueError, match="mode"):
        run_concurrent_pair(make_fabric(4), "hybrid", 64 * KiB)


def test_fsdp_pair_ring_mode_correct():
    res = run_concurrent_pair(make_fabric(4), "ring", 32 * KiB)
    assert res.correct
    assert res.makespan >= max(res.ag_duration, res.rs_duration) * 0.99


def test_fsdp_pair_optimal_mode_correct():
    res = run_concurrent_pair(
        make_fabric(4), "optimal", 32 * KiB,
        config=CollectiveConfig(n_chains=4),
    )
    assert res.correct


def test_fsdp_backward_pipeline_optimal_beats_ring():
    """Multi-layer FSDP backward pass (§II-A): the bandwidth-optimal pair
    wins layer after layer, so the whole step's communication shrinks."""
    from repro.workloads import run_fsdp_backward_pipeline

    layers = [32 * KiB, 64 * KiB, 32 * KiB]
    t_ring = run_fsdp_backward_pipeline(
        make_fabric(8), "ring", layers)
    t_opt = run_fsdp_backward_pipeline(
        make_fabric(8), "optimal", layers,
        config=CollectiveConfig(n_chains=8))
    assert t_opt < t_ring


# ---------------------------------------------------------------------------
# Reduction order and the INC fold (DESIGN.md §6j): the production engine
# folds a whole pass into closed form, Fabric(reference=True) is the
# per-packet oracle.
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.communicator import Communicator  # noqa: E402
from repro.net.faults import CrashSpec  # noqa: E402
from repro.net.inc import IncFold  # noqa: E402
from repro.net.link import FaultSpec  # noqa: E402
from repro.net.packet import Packet, PacketKind  # noqa: E402
from repro.obs.trace import TraceConfig  # noqa: E402
from repro.sim.events import Timeout  # noqa: E402


def _ls16():
    return Topology.leaf_spine(16, 2, 2)


def _inc(reference, kind="reduce_scatter", topology=_ls16, hosts=None,
         prepare=None, beside=None, admit=None, trace=None, per=4096,
         segment_bytes=4096):
    """One INC *kind* on a fresh fabric, with the handles *beside(comm,
    data)* submitted right after it and *admit(comm, data)* run as a
    simulator process whose returned handles join the run.  Returns the
    communicator, the results and everything the run left behind (channel
    horizons only without an allgather, whose folded phases leave them)."""
    fabric = Fabric(Simulator(), topology(), link_bandwidth=gbit_per_s(56),
                    reference=reference)
    if prepare is not None:
        prepare(fabric)
    comm = Communicator(fabric, hosts=hosts, trace=trace)
    rng = np.random.default_rng(0)
    data = [rng.normal(size=comm.size * per).astype(np.float32)
            for _ in range(comm.size)]
    if kind == "reduce_scatter":
        handles = [comm.submit(CollectiveRequest(
            kind="reduce_scatter", data=data, segment_bytes=segment_bytes))]
    elif kind == "reduce":
        handles = [comm.submit(CollectiveRequest(kind="reduce", data=data, root=1))]
    else:
        handles = [comm.submit(CollectiveRequest(kind="allreduce", data=data))]
    if beside is not None:
        handles += beside(comm, data)
    if admit is not None:
        def admitter():
            handles.extend((yield from admit(comm, data)) or ())
        comm.sim.drain([comm.sim.spawn(admitter())])
    comm.run(*handles)
    results = [h.result() for h in handles]
    left = {
        "phases": [[(p.name, p.t_begin, p.t_end) for p in r.phases]
                   for r in results],
        "ranks": [[r.phases for r in res.ranks] for res in results],
        "buffers": [[np.asarray(b).tobytes() for b in r.buffers]
                    for r in results],
        "channels": {k: (c.bytes_sent, c.payload_bytes_sent, c.packets_sent,
                         c.busy_until, kind == "allreduce" or c.horizon)
                     for k, c in fabric.channels.items()},
        "switches": {n: s.packets_forwarded for n, s in fabric.switches.items()},
        "nics": {h: (n.packets_received, n.bytes_received)
                 for h, n in fabric.nics.items()},
    }
    return comm, results, left


def _same_as_packets(**kw):
    """Fold (production engine) and oracle leave the same everything
    behind; returns the folded run's communicator and results."""
    comm, results, left = _inc(False, **kw)
    assert left == _inc(True, **kw)[2]
    return comm, results


def _tree_order_sum(tree, contrib, node):
    """Numpy reference: *node*'s subtree summed in tree-child order."""
    if node.startswith("h"):
        return contrib[int(node[1:])]
    kids = [_tree_order_sum(tree, contrib, k) for k in tree.roles[node].children]
    acc = kids[0].copy()
    for k in kids[1:]:
        acc = acc + k
    return acc


@pytest.mark.parametrize("reference", [False, True])
def test_reduction_order_is_tree_order_not_arrival_order(reference):
    # 3 µs more access latency puts h3's contributions last at its leaf,
    # behind hosts that sort after it; the sum keeps the tree-child order.
    def slow(fabric):
        fabric.channel("h3", "leaf000").latency += 3e-6

    comm, (res,), left = _inc(reference, prepare=slow)
    _, _, plain = _inc(reference)
    assert left["buffers"] == plain["buffers"]
    assert left["ranks"] != plain["ranks"]  # the latency did move time
    (tree,) = comm.fabric._inc_trees.values()
    rng = np.random.default_rng(0)
    contrib = {h: rng.normal(size=16 * 4096).astype(np.float32)
               for h in range(16)}
    total = _tree_order_sum(tree, contrib, tree.root)
    for r in range(16):
        assert (np.asarray(res.buffers[r]).tobytes()
                == total[r * 4096:(r + 1) * 4096].tobytes())


def _stray(fabric):
    # a bulk packet on h0's egress, outside any collective
    fabric.nic(0).egress.transmit(Packet(src=0, dst=5, kind=PacketKind.RC_SEND,
                                         payload_len=4096))


_DECLINES = {
    "switchless": dict(topology=Topology.back_to_back),
    "not_exclusive": dict(beside=lambda comm, data: [
        comm.submit(CollectiveRequest(kind="reduce_scatter", data=data))]),
    "dead": dict(hosts=range(8), prepare=lambda f: f.crash_host(15)),
    "pending_crash": dict(hosts=range(8), prepare=lambda f: f.schedule_crash(
        CrashSpec(at=1.0, host="h15"))),
    "timing_fault": dict(prepare=lambda f: f.set_fault("h3", "leaf000", FaultSpec(
        bandwidth_windows=[(1.0, 2.0, 0.5)]))),
    "busy": dict(prepare=_stray),
    "rq_depth": dict(topology=lambda: Topology.star(4), per=4096,
                     segment_bytes=128),
}


@pytest.mark.parametrize("reason", sorted(_DECLINES))
def test_inc_fold_declines_with_a_reason(reason):
    comm, _ = _same_as_packets(**_DECLINES[reason])
    assert comm.fabric.inc_folds == 0
    assert set(comm.fabric.fold_misses["inc"]) == {reason}


def _after_a_completed_broadcast(reference):
    """A reduce-scatter on a fabric where a submitted broadcast has
    completed but is not yet released."""
    fabric = Fabric(Simulator(), Topology.leaf_spine(8, 2, 2),
                    link_bandwidth=gbit_per_s(56), reference=reference)
    comm = Communicator(fabric)
    done = comm.submit(CollectiveRequest(
        kind="broadcast", data=np.arange(16 * KiB, dtype=np.uint8), root=0))
    comm.run(done)
    rng = np.random.default_rng(0)
    res = comm.reduce_scatter([rng.normal(size=8 * 1024).astype(np.float32)
                               for _ in range(8)])
    assert list(fabric.collectives.values()) == [done]
    return res


def test_a_completed_collective_does_not_hold_back_the_inc_fold():
    # One exclusivity rule for every fold: only an incomplete collective
    # on the fabric counts, so a finished broadcast awaiting its release
    # leaves the pass alone.
    folded, packets = (_after_a_completed_broadcast(r) for r in (False, True))
    assert folded.engine["inc_folds"] == 1
    assert folded.engine["inc_fold_misses"] == {}
    assert packets.engine["inc_fold_misses"] == {"reference": 1}
    assert ([(p.name, p.t_begin, p.t_end) for p in folded.phases]
            == [(p.name, p.t_begin, p.t_end) for p in packets.phases])
    assert [r.phases for r in folded.ranks] == [r.phases for r in packets.ranks]
    assert folded.traffic == packets.traffic
    assert ([np.asarray(b).tobytes() for b in folded.buffers]
            == [np.asarray(b).tobytes() for b in packets.buffers])


def test_released_passes_unprogram_their_trees():
    fabric = Fabric(Simulator(), Topology.leaf_spine(8, 2, 2),
                    link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric)
    rng = np.random.default_rng(0)
    for _ in range(3):
        res = comm.reduce_scatter([rng.normal(size=8 * 1024).astype(np.float32)
                                   for _ in range(8)])
        assert res.engine["inc_folds"] == 1
        assert fabric._inc_trees == {}
    assert fabric.folds == [comm.ff, comm.cf]


def test_a_direct_inc_call_never_folds():
    # No communicator, no handle on the fabric: nothing vouches for the
    # pass being alone.
    from repro.core.baselines import inc_reduce_scatter

    fabric = Fabric(Simulator(), _ls16(), link_bandwidth=gbit_per_s(56))
    rng = np.random.default_rng(0)
    res = inc_reduce_scatter(fabric, [rng.normal(size=16 * 1024).astype(np.float32)
                                      for _ in range(16)])
    assert fabric.inc_folds == 0
    assert fabric.fold_misses["inc"] == {"not_exclusive": 1}
    assert res.duration > 0


def test_inc_fold_declines_on_the_reference_path():
    comm, _, _ = _inc(True)
    assert comm.fabric.inc_folds == 0
    assert comm.fabric.fold_misses["inc"] == {"reference": 1}


def test_unprotected_fault_spec_is_a_timing_fault():
    comm, _ = _same_as_packets(prepare=lambda f: f.set_fault(
        "leaf000", "spine000", FaultSpec(protect_reliable=False)))
    assert comm.fabric.fold_misses["inc"] == {"timing_fault": 1}


def _after(delay, then):
    def admit(comm, data):
        yield Timeout(comm.sim, delay)
        return then(comm, data)
    return admit


def test_admission_mid_fold_hands_back(monkeypatch):
    calls = []
    real = IncFold.unfold
    monkeypatch.setattr(IncFold, "unfold",
                        lambda self: (calls.append(self.sim.now), real(self))[1])
    for kind in ("reduce_scatter", "reduce", "allreduce"):
        comm, _ = _same_as_packets(kind=kind, admit=_after(
            17e-6, lambda c, d: [c.submit(CollectiveRequest(kind="reduce_scatter", data=d))]))
        assert calls[-1] == 17e-6
        assert comm.fabric.fold_misses["inc"] == {"preempted": 1, "not_exclusive": 1}
    assert len(calls) == 3


@pytest.mark.parametrize("delay", [0.0, 4e-6, 23e-6, 41e-6])
def test_bandwidth_window_installed_mid_fold(delay):
    def degrade(comm, data):
        now = comm.sim.now
        comm.fabric.set_fault("h3", "leaf000", FaultSpec(
            bandwidth_windows=[(now, now + 5e-6, 0.5)]))
        comm.fabric.set_fault("spine000", "leaf001", FaultSpec(
            bandwidth_windows=[(now, now + 9e-6, 0.25)]))
    comm, _ = _same_as_packets(admit=_after(delay, degrade))
    assert comm.fabric.fold_misses["inc"] == {"preempted": 1}


@settings(max_examples=12, deadline=None)
@given(delay=st.floats(0.0, 60e-6), second=st.sampled_from(
    ["reduce_scatter", "reduce", "alltoall"]), kind=st.sampled_from(
    ["reduce_scatter", "reduce"]))
def test_a_collective_admitted_at_any_instant_of_a_fold(delay, second, kind):
    def admit(comm, data):
        if second == "reduce_scatter":
            return [comm.submit(CollectiveRequest(kind="reduce_scatter", data=data))]
        if second == "reduce":
            return [comm.submit(CollectiveRequest(kind="reduce", data=data, root=7))]
        return [comm.submit(CollectiveRequest(
            kind="alltoall", data=[d.view(np.uint8) for d in data]))]
    _same_as_packets(kind=kind, admit=_after(delay, admit))


def test_folded_pass_keeps_link_traces_and_reports_itself():
    (comm_f, (folded,), _), (_, (packets,), _) = (
        _inc(c, trace=TraceConfig()) for c in (False, True))
    ports = {r.track for r in packets.trace.select(name="link.busy")}
    assert len(ports) == 36
    for port in ports:
        assert (folded.trace.link_utilization(port, t0=folded.t_begin,
                                              t1=folded.t_end)
                == packets.trace.link_utilization(port, t0=packets.t_begin,
                                                  t1=packets.t_end))
    assert folded.trace.count("nic.cqe") == packets.trace.count("nic.cqe")
    assert [r.args for r in folded.trace.select(name="engine.fold")] == [
        {"fold": "inc", "psns": 64}]
    assert [r.args for r in packets.trace.select(name="engine.fold")] == [
        {"fold": "inc", "miss": "reference"}]
