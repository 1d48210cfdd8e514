"""Tests for the RC control plane: messaging, inboxes, barrier."""

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro import (CollectiveConfig, CrashSpec, FaultSpec, HostCostModel,
                   StragglerSpec)
from repro.core import control
from repro.core.control import (
    ControlFoldError,
    MSG_ACTIVATE,
    MSG_BARRIER,
    MSG_DEATH,
    MSG_FETCH_ACK,
    MSG_FETCH_REQ,
    MSG_FINAL,
)
from repro.core.communicator import Communicator
from repro.net import Fabric, Topology
from repro.obs import TraceConfig
from repro.sim import RandomStreams, Simulator
from repro.sim.events import Timeout
from repro.units import gbit_per_s, kib


def make_planes(n=4):
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(n), link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric)  # engines own the control planes
    return sim, comm, [e.ctrl for e in comm.engines]


def test_send_and_recv_typed_message():
    sim, comm, planes = make_planes()
    got = {}

    def receiver():
        msg = yield planes[1].recv(MSG_ACTIVATE, key=7, src=0)
        got["msg"] = msg

    sim.spawn(receiver())
    planes[0].send(1, MSG_ACTIVATE, key=7, args=(42,))
    sim.run()
    assert got["msg"].src == 0
    assert got["msg"].key == 7
    assert got["msg"].args[0] == 42


def test_messages_buffered_until_received():
    sim, comm, planes = make_planes()
    planes[0].send(1, MSG_FINAL, key=3)
    sim.run()  # delivered before anyone is listening

    def late():
        msg = yield planes[1].recv(MSG_FINAL, key=3, src=0)
        return msg.mtype

    assert sim.run_process(late()) == MSG_FINAL


def test_keyed_inboxes_do_not_cross():
    sim, comm, planes = make_planes()
    order = []

    def receiver():
        msg_b = yield planes[1].recv(MSG_ACTIVATE, key=2, src=0)
        order.append(("b", msg_b.key))
        msg_a = yield planes[1].recv(MSG_ACTIVATE, key=1, src=0)
        order.append(("a", msg_a.key))

    sim.spawn(receiver())
    planes[0].send(1, MSG_ACTIVATE, key=1)
    planes[0].send(1, MSG_ACTIVATE, key=2)
    sim.run()
    assert order == [("b", 2), ("a", 1)]


def test_any_source_fetch_requests_are_acked():
    """The engine's fetch server listens on a single any-source inbox and
    acknowledges requests from any rank for any collective id."""
    sim, comm, planes = make_planes()
    acks = []

    def requester(rank, cid):
        planes[rank].send(2, MSG_FETCH_REQ, key=cid)
        msg = yield planes[rank].recv(MSG_FETCH_ACK, key=cid, src=2)
        acks.append((rank, msg.key))

    sim.spawn(requester(0, 9))
    sim.spawn(requester(3, 5))
    sim.run()
    assert (0, 9) in acks and (3, 5) in acks


def test_recv_requires_src_for_directed_types():
    sim, comm, planes = make_planes()
    with pytest.raises(ValueError, match="source"):
        planes[0].recv(MSG_FINAL, key=0)


def test_message_arg_limit():
    sim, comm, planes = make_planes()
    with pytest.raises(ValueError, match="args"):
        planes[0].send(1, MSG_ACTIVATE, key=0, args=(1, 2, 3, 4))


def test_barrier_synchronizes_all_ranks():
    sim, comm, planes = make_planes(4)
    releases = []

    def party(rank, delay):
        yield sim.timeout(delay)
        yield from planes[rank].barrier(tag=1, ranks=[0, 1, 2, 3])
        releases.append((rank, sim.now))

    for r, d in enumerate((0.0, 1e-5, 3e-5, 2e-5)):
        sim.spawn(party(r, d))
    sim.run()
    assert len(releases) == 4
    times = [t for _, t in releases]
    # Nobody leaves before the last arrival at 30 µs.
    assert min(times) >= 3e-5
    # Dissemination: everyone leaves within ~2 rounds of RTTs of each other.
    assert max(times) - min(times) < 2e-5


def test_barrier_reusable_with_distinct_tags():
    sim, comm, planes = make_planes(3)
    done = []

    def party(rank):
        yield from planes[rank].barrier(tag=10, ranks=[0, 1, 2])
        yield from planes[rank].barrier(tag=11, ranks=[0, 1, 2])
        done.append(rank)

    for r in range(3):
        sim.spawn(party(r))
    sim.run()
    assert sorted(done) == [0, 1, 2]


def test_barrier_subset_of_ranks():
    sim, comm, planes = make_planes(4)
    done = []

    def party(rank):
        yield from planes[rank].barrier(tag=2, ranks=[0, 2])
        done.append(rank)

    sim.spawn(party(0))
    sim.spawn(party(2))
    sim.run()
    assert sorted(done) == [0, 2]


def test_barrier_requires_explicit_ranks():
    """Deriving the rank list from the lazily created control QPs deadlocks
    when peers disagree on the membership — it must be passed explicitly."""
    sim, comm, planes = make_planes(2)
    with pytest.raises(ValueError, match="explicit"):
        next(planes[0].barrier(tag=0))


def test_ctrl_pairs_created_lazily():
    sim, comm, planes = make_planes(4)
    assert len(planes[0].qps) == 0
    planes[0].send(3, MSG_BARRIER, key=0)
    assert 3 in planes[0].qps
    assert 0 in planes[3].qps  # remote side adopted too


def test_message_counters():
    sim, comm, planes = make_planes(2)
    planes[0].send(1, MSG_FETCH_ACK, key=0)
    sim.run()
    assert planes[0].messages_sent == 1
    assert planes[1].messages_received == 1


def _take(plane, mtype, key, src):
    msg = yield plane.recv(mtype, key, src)
    return msg


def test_message_fields_must_fit_a_uint32_word():
    sim, comm, planes = make_planes(2)
    for bad in (dict(key=1 << 32), dict(key=-1), dict(key=0, args=(1 << 32,))):
        with pytest.raises(ValueError, match="uint32"):
            planes[0].send(1, MSG_ACTIVATE, **bad)
    assert planes[0].messages_sent == 0
    planes[0].send(1, MSG_ACTIVATE, key=(1 << 32) - 1, args=(7,))
    got = sim.run_process(_take(planes[1], MSG_ACTIVATE, (1 << 32) - 1, 0))
    assert got.args == (7, 0, 0)


# ------------------------------------------------- shared receive queue (§6g)


def _testbed_planes(slab_slots, monkeypatch):
    monkeypatch.setattr(control, "_SLAB_SLOTS", slab_slots)
    sim = Simulator()
    fabric = Fabric(sim, Topology.testbed_188(), link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric)
    return sim, fabric, [e.ctrl for e in comm.engines]


def _death_burst(slab_slots, monkeypatch, srq_capacity=None):
    """Every rank of the 188-host testbed notifies rank 0 of a death at
    t=0; returns what rank 0's dispatcher handed on, with timestamps."""
    sim, fabric, planes = _testbed_planes(slab_slots, monkeypatch)
    if srq_capacity is not None:
        planes[0].srq.max_recv_wr = srq_capacity
    seen = []
    planes[0].on_death = lambda msg: seen.append((sim.now, msg.src, msg.key))
    for r in range(1, len(planes)):
        planes[r].send(0, MSG_DEATH, key=1000 + r)
    sim.run()
    return fabric, planes[0], seen


def test_burst_deeper_than_srq_is_parked_not_dropped(monkeypatch):
    """187 notices converge on one rank, far more than one slab holds: the
    overflow is RNR-parked, delivered in arrival order, and handled at the
    very instants a never-dry SRQ would have handled it."""
    fabric, deep, want = _death_burst(256, monkeypatch)
    assert deep.srq.parked_total == 0 and deep.srq_refills == 0
    fabric, plane, seen = _death_burst(32, monkeypatch)
    assert len(seen) == 187
    assert seen == want  # same order, same virtual instants, bit for bit
    assert plane.srq.parked_total > 0
    assert plane.srq_refills > 0  # low-watermark rule added depth
    assert not plane.srq.parked  # nothing left behind
    assert fabric.total_rnr_drops() == 0
    assert plane.messages_received == 187
    # Every WR is back on the SRQ: slabs posted, nothing leaked.
    assert len(plane.srq.recv_queue) == 32 * (1 + plane.srq_refills)
    assert plane.srq.posted == len(plane.srq.recv_queue) + 187
    # Growth stops at the SRQ's capacity; parking absorbs the rest.
    fabric, capped, seen = _death_burst(32, monkeypatch, srq_capacity=40)
    assert seen == want
    assert capped.srq_refills == 0 and len(capped.srq.recv_queue) == 32


def test_any_source_burst_is_fully_served(monkeypatch):
    """Same fan-in through the engine's any-source fetch server: every
    requester gets its ACK back although the server's SRQ ran dry."""
    sim, fabric, planes = _testbed_planes(32, monkeypatch)
    acked = []

    def requester(rank):
        planes[rank].send(0, MSG_FETCH_REQ, key=rank)
        msg = yield planes[rank].recv(MSG_FETCH_ACK, key=rank, src=0)
        acked.append(msg.key)

    for r in range(1, len(planes)):
        sim.spawn(requester(r))
    sim.run()
    assert sorted(acked) == list(range(1, len(planes)))
    assert planes[0].srq.parked_total > 0 and fabric.total_rnr_drops() == 0


def test_pair_created_after_rail_migration_uses_the_same_srq():
    """The slot slab lives in the host Memory all rails share, so after
    the control plane migrates, both the migrated pairs and pairs created
    lazily afterwards receive through the SRQ the rank started with."""
    sim = Simulator()
    topo = Topology.multi_rail(Topology.leaf_spine(8, n_leaf=2, n_spine=2), 2)
    fabric = Fabric(sim, topo, link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric)
    planes = [e.ctrl for e in comm.engines]
    planes[0].send(1, MSG_FINAL, key=1)  # pair (0, 1) exists before
    sim.run()
    srq1, srq5 = planes[1].srq, planes[5].srq
    mrs_before = len(fabric.nic(1).memory)
    comm._migrate_ctrl_plane(1, list(range(comm.size)))
    planes[0].send(1, MSG_FINAL, key=2)  # migrated pair
    planes[0].send(5, MSG_FINAL, key=3)  # created lazily on rail 1
    sim.run()
    for dst, key in ((1, 1), (1, 2), (5, 3)):
        assert sim.run_process(_take(planes[dst], MSG_FINAL, key, 0)).key == key
    for dst, srq in ((1, srq1), (5, srq5)):
        qp = planes[dst].qps[0]
        assert qp.nic is fabric.rail_nic(comm.hosts[dst], 1)
        assert planes[dst].srq is srq and qp.srq is srq
    assert len(fabric.nic(1).memory) == mrs_before  # no second slab
    assert len(planes[5]._slabs) == 1


@pytest.mark.parametrize("n_ranks", [64, 256])
def test_bring_up_budget_is_per_rank_not_per_pair(n_ranks):
    """Count-based guard against the 16-receive-WRs-per-QP pattern: one
    broadcast's control-plane bring-up registers one MR per rank, posts
    O(ranks) receive WRs, and leaves a bounded number of objects per pair."""
    fabric = Fabric(Simulator(), Topology.leaf_spine(n_ranks, 8, 4),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=1))
    comm = Communicator(fabric)
    data = np.arange(kib(64), dtype=np.uint8)
    gc.collect()
    objs = len(gc.get_objects())
    mrs = [len(fabric.nic(h).memory) for h in comm.hosts]
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    gc.collect()
    objs = len(gc.get_objects()) - objs
    eng = result.engine
    planes = [e.ctrl for e in comm.engines]
    # The op's buffers are released; what stays registered is the slabs.
    for h, plane, before in zip(comm.hosts, planes, mrs):
        assert len(fabric.nic(h).memory) - before == len(plane._slabs)
        assert len(plane._slabs) == 1 + plane.srq_refills == 1
    received = sum(p.messages_received for p in planes)
    assert eng["ctrl_recv_posted"] == n_ranks * control._SLAB_SLOTS + received
    assert eng["ctrl_recv_posted"] <= 64 * n_ranks
    assert eng["ctrl_pairs"] >= 5 * n_ranks // 2  # many more pairs than ranks
    assert objs / eng["ctrl_pairs"] < 32  # was ~60 with per-QP slots


def test_engine_counters_reconcile_with_the_srqs():
    sim, comm, planes = make_planes(8)
    data = np.arange(kib(16), dtype=np.uint8)
    eng = comm.broadcast(0, data).engine
    assert eng["ctrl_pairs"] == sum(len(p.qps) for p in planes) // 2 > 0
    assert eng["ctrl_recv_posted"] == sum(p.srq.posted for p in planes)
    assert eng["ctrl_srq_refills"] == sum(p.srq_refills for p in planes) == 0
    assert eng["ctrl_parked"] == sum(p.srq.parked_total for p in planes) == 0
    # Counters are per-collective deltas: the pairs exist now.
    eng2 = comm.broadcast(0, data).engine
    assert eng2["ctrl_pairs"] == 0
    assert eng2["ctrl_recv_posted"] == sum(p.srq.posted for p in planes) - eng["ctrl_recv_posted"]


def _broadcast_loop(n_ops):
    fabric = Fabric(Simulator(), Topology.leaf_spine(64, 8, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=1))
    comm = Communicator(fabric)
    data = np.arange(kib(16), dtype=np.uint8)
    planes = [e.ctrl for e in comm.engines]
    sizes, events = [], []
    for _ in range(n_ops):
        events.append(comm.broadcast(0, data).engine["sim_events"])
        sizes.append([list(p._inboxes) for p in planes])
    return fabric, planes, sizes, events


def test_keyed_inboxes_are_dropped_once_drained(monkeypatch):
    """Keyed inboxes are single-use (collective id, round, nonce): one that
    holds no message and no waiter is dropped, so a long collective loop
    keeps only the any-source server inbox per rank."""
    any_source = [(mtype,) for mtype in control._ANY_SOURCE]
    fabric, planes, sizes, events = _broadcast_loop(20)
    for per_rank in sizes:  # flat from the first collective on
        assert per_rank == [any_source] * 64
    assert sum(p.messages_received for p in planes) > 20 * 6 * 64

    # a message nobody waits for yet keeps its inbox until it is read
    planes[0].send(1, MSG_FINAL, key=99)
    fabric.sim.run()
    assert (MSG_FINAL, 99, 0) in planes[1]._inboxes
    got = fabric.sim.run_process(_take(planes[1], MSG_FINAL, 99, 0))
    assert got.key == 99 and list(planes[1]._inboxes) == any_source
    # ... and so does a waiter nobody has written to yet
    ev = planes[1].recv(MSG_FINAL, 100, 0)
    assert (MSG_FINAL, 100, 0) in planes[1]._inboxes
    planes[0].send(1, MSG_FINAL, key=100)
    fabric.sim.run()
    assert ev.value.key == 100 and list(planes[1]._inboxes) == any_source

    # dropping adds and removes no simulator event: the same loop with
    # every inbox kept (the old behaviour) counts the same events
    monkeypatch.setattr(control.ControlPlane, "_retire", lambda *_: None)
    _, kept, kept_sizes, kept_events = _broadcast_loop(20)
    assert kept_events == events
    assert len(kept_sizes[-1][0]) > 20 * 6


# ------------------------------------------------- control-plane fold (§6i)
#
# With fast_forward="exact" the RNR barrier and the final handshake are one
# array pass each (ControlFold); fast_forward="off" is the packet-level
# oracle.  Everything either run leaves behind must be bit-equal.

_SHAPES = {
    "star2": (lambda: Topology.star(2), None),
    "star3": (lambda: Topology.star(3), None),
    "leaf_spine6": (lambda: Topology.leaf_spine(6, 2, 2), None),
    "leaf_spine16": (lambda: Topology.leaf_spine(16, 4, 2), None),
    "torus6": (lambda: Topology.torus((2, 3)), None),
    "torus16": (lambda: Topology.torus((4, 4)), None),
    "dragonfly6": (lambda: Topology.dragonfly(3, 2, 1), None),
    "dragonfly16": (lambda: Topology.dragonfly(4, 2, 2), None),
    "testbed3": (Topology.testbed_188, 3),
}
_KINDS = ["bcast0", "bcast_mid", "ag1", "ag4", "allreduce"]


def _fold_run(topology, kind, ff, n_ranks=None, transport="uc", prepare=None,
              after=None, **config):
    """One collective of *kind* on a fresh fabric; ``prepare(fabric)`` runs
    before the communicator is built, ``after(comm)`` right after."""
    fabric = Fabric(Simulator(), topology(), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed=1))
    if prepare is not None:
        prepare(fabric)
    config.setdefault("chunk_size", 1024 if kind == "ag1" else 4096)
    comm = Communicator(
        fabric, hosts=None if n_ranks is None else range(n_ranks),
        config=CollectiveConfig(transport=transport, fast_forward=ff, **config))
    if after is not None:
        after(comm)
    n = comm.size
    rng = np.random.default_rng(7)
    if kind.startswith("bcast"):
        data = rng.integers(0, 256, kib(24), dtype=np.uint8)
        res = comm.broadcast(0 if kind == "bcast0" else n // 2, data)
        assert res.verify_broadcast(data)
    elif kind == "allreduce":
        data = [rng.random(n * 256, dtype=np.float32) for _ in range(n)]
        res = comm.allreduce(data, algorithm="inc")
        assert res.verify_allreduce(data)
    else:
        size = config["chunk_size"] * (1 if kind == "ag1" else 4)
        data = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return comm, res


def _left_behind(comm, res):
    """Everything a control phase decides or counts, rank by rank."""
    fabric = comm.fabric
    return {
        "phases": [(r.rank, r.phases) for r in res.ranks],
        "duration": res.duration,
        "traffic": res.traffic,
        "per_switch_egress": fabric.per_switch_egress(),
        "channels": {key: (ch.bytes_sent, ch.payload_bytes_sent, ch.packets_sent)
                     for key, ch in fabric.channels.items()},
        "forwarded": {name: sw.packets_forwarded
                      for name, sw in fabric.switches.items()},
        "nics": [(nic.packets_received, nic.bytes_received)
                 for nic in fabric.nics.values()],
        "messages": [(e.ctrl.messages_sent, e.ctrl.messages_received,
                      e.ctrl.last_heard) for e in comm.engines],
    }


def _phases(kind):
    """Control phases a collective of *kind* offers to the fold."""
    return 2 if kind.startswith("bcast") else 3


def _assert_fold_exact(topology, kind, **kw):
    comm, res = _fold_run(topology, kind, "exact", **kw)
    ref_comm, ref = _fold_run(topology, kind, "off", **kw)
    got, want = _left_behind(comm, res), _left_behind(ref_comm, ref)
    for key in want:
        assert got[key] == want[key], key
    assert ref.engine["ctrl_folds"] == 0 and ref.engine["ctrl_fold_misses"] == {}
    return res, ref


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("shape", list(_SHAPES))
def test_folded_control_phases_match_the_packet_oracle(shape, kind):
    topology, n_ranks = _SHAPES[shape]
    transport = ("ud", "uc")[(list(_SHAPES).index(shape) + _KINDS.index(kind)) % 2]
    res, ref = _assert_fold_exact(topology, kind, n_ranks=n_ranks,
                                  transport=transport)
    eng = res.engine
    # barrier, handshake and, along an allgather chain, the activations
    assert eng["ctrl_folds"] == _phases(kind) and eng["ctrl_fold_misses"] == {}
    assert eng["sim_events"] < ref.engine["sim_events"]
    assert eng["ctrl_pairs"] == 0 < ref.engine["ctrl_pairs"]


@pytest.mark.parametrize("kind,transport", [
    ("bcast_mid", "uc"), ("ag1", "ud"), ("allreduce", "uc")])
def test_folded_control_phases_on_the_188_host_testbed(kind, transport):
    # Non-power-of-two P: the dissemination pattern wraps.  The static
    # cutoff is the ledger's: the adaptive one aborts the data fold here.
    res, _ = _assert_fold_exact(Topology.testbed_188, kind, transport=transport,
                                adaptive_cutoff=False, cutoff_alpha=10e-3)
    assert res.engine["ctrl_folds"] == _phases(kind) and res.engine["ff_aborts"] == 0


# One test per gate reason: the packet path ran, the result is the
# oracle's, and the reason is on record.

_LS16 = _SHAPES["leaf_spine16"][0]


def _assert_declined(reason, kind="bcast0", misses=None, topology=_LS16, **kw):
    """*misses* is the expected histogram; default: every phase, *reason*."""
    misses = misses or {reason: _phases(kind)}
    res, ref = _assert_fold_exact(topology, kind, **kw)
    eng = res.engine
    assert eng["ctrl_fold_misses"] == misses
    assert eng["ctrl_folds"] == _phases(kind) - sum(misses.values())
    if eng["ctrl_folds"] == 0:  # the whole control plane is the oracle's
        assert eng["ctrl_pairs"] == ref.engine["ctrl_pairs"] > 0
    return res


def test_fold_declines_under_a_failure_policy():
    _assert_declined("live", failure_policy="degrade")
    # barrier, activation chain and handshake
    _assert_declined("live", kind="ag1", failure_policy="degrade")


def test_fold_declines_with_a_dead_rank():
    _assert_declined(
        "dead",
        prepare=lambda fabric: fabric.schedule_crash(CrashSpec(at=0.0, host=15)),
        after=lambda comm: comm.sim.run())  # the crash strikes


def test_fold_declines_while_a_crash_is_pending():
    _assert_declined("pending_crash", prepare=lambda fabric: fabric.schedule_crash(
        CrashSpec(at=1.0, link=("leaf000", "spine000"))))


def test_fold_declines_on_a_multi_rail_fabric():
    _assert_declined("rails", topology=lambda: Topology.multi_rail(_LS16(), 2))


@pytest.mark.parametrize("spec,misses", [
    # inert for the data fold, but it reaches RC packets
    (dict(protect_reliable=False), {"fault": 2}),
    # armed (not fault_inert()): the data phase cannot fold either
    (dict(flap_windows=[(1.0, 2.0)]), {"fault": 1, "data_unfolded": 1}),
], ids=["affects_control", "armed"])
def test_fold_declines_on_a_fault_along_a_route(spec, misses):
    _assert_declined("fault", misses=misses,
                     prepare=lambda fabric: fabric.set_fault_all(
                         lambda src, dst: FaultSpec(**spec)))


def test_fold_declines_off_the_bypass_lane():
    def prepare(fabric):
        fabric.channel("h3", "leaf000").ctrl_bypass_bytes = 0
    _assert_declined("fault", prepare=prepare)


def test_fold_declines_under_a_straggler():
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_declined("straggler",
                     prepare=lambda fabric: fabric.set_straggler(3, spec))


def test_fold_declines_with_a_control_message_in_flight():
    # The stray is served long before the handshake, which then folds.
    _assert_declined(
        "dispatcher_busy", misses={"dispatcher_busy": 1},
        after=lambda comm: comm.engines[2].ctrl.send(3, MSG_FINAL, key=999))


def test_an_activation_declines_with_a_control_message_in_flight():
    # A stray message is on its way to rank 2 when rank 1 activates it: the
    # token would queue behind it, which the folded cursor cannot see, so
    # the chain goes on at packet level (the handshake still folds).
    t = _fold_run(_LS16, "ag1", "off")[1].ranks[1].phases["activated"]
    _assert_declined(
        "dispatcher_busy", kind="ag1", misses={"dispatcher_busy": 1},
        after=lambda comm: comm.sim.post_at(
            t - 0.2e-6, comm.engines[9].ctrl.send, 2, MSG_FINAL, 999))


def test_fold_declines_when_the_fan_in_would_cross_the_srq_watermark(monkeypatch):
    monkeypatch.setattr(control, "_LOW_WATERMARK", control._SLAB_SLOTS - 1)
    # log2(16) tokens per rank cross it; the handshake's one message does not.
    _assert_declined("srq_depth", misses={"srq_depth": 1})


def test_fold_declines_two_overlapping_collectives():
    def both(ff):
        fabric = Fabric(Simulator(), _LS16(), link_bandwidth=gbit_per_s(56))
        comm = Communicator(fabric, config=CollectiveConfig(
            transport="uc", fast_forward=ff))
        data = np.arange(kib(16), dtype=np.uint8)
        handles = [comm.broadcast_async(0, data), comm.broadcast_async(5, data)]
        comm.run(*handles)
        return comm, [[op.phases for op in h.ops] for h in handles]
    comm, phases = both("exact")
    assert phases == both("off")[1]
    assert comm.cf.folds == 0 and comm.cf.misses == {"not_exclusive": 4}


def _admit_second(ff, delay, kinds):
    """A *kinds[0]* collective (b: broadcast, a: allgather), then — *delay*
    later, from a driver process — a *kinds[1]* one; what both leave behind."""
    fabric = Fabric(Simulator(), _LS16(), link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric, trace=TraceConfig(), config=CollectiveConfig(
        transport="uc", fast_forward=ff))
    data = np.arange(kib(4), dtype=np.uint8)
    shards = [data[:1024] + r for r in range(comm.size)]
    handles = []

    def submit(kind, root):
        handles.append(comm.broadcast_async(root, data) if kind == "b"
                       else comm.allgather_async(shards))

    def driver():
        submit(kinds[0], 0)
        yield Timeout(comm.sim, delay)
        submit(kinds[1], 3)

    comm.sim.drain([comm.sim.spawn(driver())])
    comm.run(*handles)
    res = handles[0].result({}, {})
    left = _left_behind(comm, res)
    del left["traffic"], left["duration"]
    left["phases"] = [[op.phases for op in h.ops] for h in handles]
    return comm, left, [r.args for r in res.trace.select(name="engine.ctrl_fold")]


@pytest.mark.parametrize("kinds,handshake", [("bb", 17e-6), ("ab", 70e-6), ("ba", 17e-6)])
def test_a_collective_admitted_mid_fold_gets_the_unserved_tokens_back(
        kinds, handshake, monkeypatch):
    # The first collective's barrier (0-10 µs in) or handshake (from
    # *handshake* on) has folded when the second is submitted: its tokens
    # would reach dispatchers that still have folded ones to serve, so the
    # fold hands those back (ControlFold.unfold).
    mid_service = []
    init = control._Unfolded.__init__
    monkeypatch.setattr(control._Unfolded, "__init__", lambda self, msg, until: (
        mid_service.append(until is not None), init(self, msg, until))[1])
    preempted = []
    for delay in [k * 1e-6 for k in range(11)] + [
            handshake + k * 0.5e-6 for k in range(28)]:
        comm, got, notes = _admit_second("exact", delay, kinds)
        _, want, _ = _admit_second("off", delay, kinds)
        for key in want:
            assert got[key] == want[key], (delay, key)
        phases = [n["phase"] for n in notes if n.get("miss") == "preempted"]
        assert comm.cf.misses.get("preempted", 0) == len(phases)
        preempted += phases
        # a handed-back phase no longer counts as folded
        assert comm.cf.folds + sum(comm.cf.misses.values()) == sum(
            _phases("bcast" if k == "b" else "ag") for k in kinds)
    assert preempted.count("sync") >= 11 and "final" in preempted
    assert any(mid_service) and not all(mid_service)


_LS6 = _SHAPES["leaf_spine6"][0]


def _slow(src, dst, latency):
    def prepare(fabric):
        fabric.channel(src, dst).latency = latency
    return prepare


def test_fold_declines_when_a_later_token_would_overtake_an_earlier():
    # h0's round-0 token to rank 1 crawls: rank 1's round-1 token, from
    # rank 5, reaches its dispatcher first.
    _assert_declined("reorder", misses={"reorder": 1}, topology=_LS6,
                     prepare=_slow("h0", "leaf000", 10e-6))


def test_an_activation_behind_a_skewed_barrier_folds_exactly():
    # h0's slow egress skews the barrier exits of chain neighbours by more
    # than a doorbell and a path: the barrier's old lower bound on an
    # activation's arrival declined the barrier here.  The activation now
    # folds at its real instant, with the oracle's instants and counters.
    res, _ = _assert_fold_exact(_LS6, "ag1", prepare=_slow("h0", "leaf000", 3e-6))
    assert res.engine["ctrl_folds"] == 3 and res.engine["ctrl_fold_misses"] == {}
    assert res.engine["ctrl_pairs"] == 0


def test_an_activation_inside_a_folded_barrier_window_folds_exactly(monkeypatch):
    # A slow access link into h1 and a 2 µs dispatcher skew the barrier: the
    # activation h0 -> h1 reaches a dispatcher that still has folded barrier
    # tokens to serve.  It arrived after all of them, so it is served after
    # them — at its real instant, with the oracle's counters.
    early = []  # per activation: folded, arriving before the cursor
    real = control.ControlFold.activate

    def spy(self, engine, op, participants, me):
        quiet = self.comm.engines[participants[me + 1]].ctrl.fold_quiet
        folded = real(self, engine, op, participants, me)
        early.append(folded and self._colls[op.coll_id].act[2] < quiet)
        return folded
    monkeypatch.setattr(control.ControlFold, "activate", spy)
    res, _ = _assert_fold_exact(_LS6, "ag1", prepare=_slow("leaf000", "h1", 2e-6),
                                cost=replace(HostCostModel(), ctrl_message=2e-6))
    assert early[0] and len(early) == 5
    assert res.engine["ctrl_folds"] == 3 and res.engine["ctrl_fold_misses"] == {}
    assert res.engine["ctrl_pairs"] == 0


def test_a_queued_activation_is_handed_back_behind_the_barrier_tokens():
    # The same skewed chain, and a broadcast admitted while the first
    # activation waits in h1's queue behind folded barrier tokens: the CQ
    # gets the barrier's tokens, then the activation, and serves them as the
    # packet path does.
    cost = replace(HostCostModel(), ctrl_message=2e-6)
    tokens = []
    real = control.ControlFold.activate

    def spy(self, engine, op, participants, me):
        folded = real(self, engine, op, participants, me)
        tokens.append(list(self._colls[op.coll_id].act) if folded else None)
        return folded

    def run(ff, at):
        fabric = Fabric(Simulator(), _LS6(), link_bandwidth=gbit_per_s(56),
                        streams=RandomStreams(seed=1))
        _slow("leaf000", "h1", 2e-6)(fabric)
        comm = Communicator(fabric, config=CollectiveConfig(
            transport="uc", chunk_size=1024, fast_forward=ff, cost=cost))
        data = np.arange(kib(4), dtype=np.uint8)
        handles = []

        def driver():
            handles.append(comm.allgather_async([data[:1024] + r for r in range(6)]))
            if at is not None:
                yield Timeout(comm.sim, at)
                handles.append(comm.broadcast_async(3, data))

        comm.sim.drain([comm.sim.spawn(driver())])
        comm.run(*handles)
        left = _left_behind(comm, handles[0].result({}, {}))
        left["phases"] = [[op.phases for op in h.ops] for h in handles]
        del left["traffic"], left["duration"]
        return comm, left

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control.ControlFold, "activate", spy)
        run("exact", None)
    _, _, arrived, start, _, _ = tokens[0]
    assert arrived < start  # queued behind the barrier
    at = (arrived + start) / 2
    comm, got = run("exact", at)
    _, want = run("off", at)
    for key in want:
        assert got[key] == want[key], key
    assert comm.cf.misses["preempted"] == 2  # the barrier and the chain


def test_an_activation_overtaking_a_folded_barrier_token_unfolds_the_barrier():
    # With the dispatcher's default cost the same activation arrives before
    # h1's last barrier token: it is sent for real, and the barrier's
    # unserved tokens are handed back first so the CQ serves it in order.
    _assert_declined("overlap", kind="ag1", topology=_LS6,
                     misses={"overlap": 1, "preempted": 1},
                     prepare=_slow("leaf000", "h1", 2e-6))


@pytest.mark.parametrize("link,misses", [
    (("leaf000", "h1"), {"data_unfolded": 2, "preempted": 1}),
    (("leaf000", "h2"), {"data_unfolded": 2}),
], ids=["early", "late"])
def test_packet_level_activations_never_land_in_a_folded_window(link, misses):
    # Two chains: the data phases run at packet level, and so do the
    # activations.  One that would reach a dispatcher inside its folded
    # barrier unfolds the barrier first (h1); one that arrives after it
    # leaves the barrier folded (h2).
    res, _ = _assert_fold_exact(_LS6, "ag1", n_chains=2, prepare=_slow(*link, 2e-6))
    assert res.engine["ctrl_fold_misses"] == misses
    assert res.engine["ff_misses"] == {"chains": 1, "poisoned": 5}


def test_fold_declines_when_a_final_would_beat_a_folded_service():
    # One slow leaf uplink skews the barrier by more than a data phase: a
    # rank behind it is still in the barrier when its right neighbour is
    # done — and still in it when the handshake is decided.
    _assert_declined("overlap", misses={"overlap": 1, "dispatcher_busy": 1},
                     topology=_LS6, prepare=_slow("leaf000", "spine000", 10e-6))


def test_a_fault_between_the_barrier_fold_and_the_data_phase():
    def arm(comm):  # 1 µs in: after the barrier folded, before anyone syncs
        comm.sim.post_at(1e-6, comm.fabric.set_fault_all,
                         lambda src, dst: FaultSpec(flap_windows=[(1.0, 2.0)]))
    # The fault-epoch change hands the folded barrier back: its unsent
    # tokens go out as packets, under the new fault state.
    res, _ = _assert_fold_exact(_LS16, "bcast0", after=arm)
    assert res.engine["ctrl_fold_misses"] == {"preempted": 1, "data_unfolded": 1}
    assert res.engine["ff_phases"] == 0 and res.engine["ff_aborts"] == 1


def test_a_packet_inside_a_folded_window_is_a_typed_error():
    def stray(comm):
        comm.sim.post_at(1e-6, comm.engines[0].ctrl.send, 1, MSG_FINAL, 999)
    with pytest.raises(ControlFoldError, match="rank 1"):
        _fold_run(_LS16, "bcast0", "exact", after=stray)


def test_ctrl_fold_tracepoint_and_zero_perturbation():
    def run(trace, prepare=None, kind="bcast", ff="exact"):
        fabric = Fabric(Simulator(), _LS16(), link_bandwidth=gbit_per_s(56))
        if prepare is not None:
            prepare(fabric)
        comm = Communicator(fabric, trace=trace, config=CollectiveConfig(
            transport="uc", fast_forward=ff))
        data = np.arange(kib(16), dtype=np.uint8)
        if kind == "bcast":
            return comm, comm.broadcast(0, data)
        return comm, comm.allgather([data[:1024] + r for r in range(comm.size)])

    comm, res = run(TraceConfig())
    plain_comm, plain = run(None)
    assert [r.phases for r in res.ranks] == [r.phases for r in plain.ranks]
    assert comm.sim.events_processed == plain_comm.sim.events_processed
    folds = [r.args for r in res.trace.select(name="engine.ctrl_fold")]
    assert folds == [{"phase": "sync", "messages": 16 * 4},
                     {"phase": "final", "messages": 16}]
    assert res.engine["ctrl_folds"] == len(folds)
    _, slow = run(TraceConfig(), _slow("h0", "leaf000", 10e-6))
    assert {"phase": "sync", "miss": "reorder"} in [
        r.args for r in slow.trace.select(name="engine.ctrl_fold")]

    # An allgather's 15 activations fold as one phase: one instant, not one
    # per token, and every rank's seq.activate where the packet path has it.
    comm, res = run(TraceConfig(), kind="ag")
    plain_comm, plain = run(None, kind="ag")
    _, ref = run(TraceConfig(), kind="ag", ff="off")
    assert [r.phases for r in res.ranks] == [r.phases for r in plain.ranks]
    assert comm.sim.events_processed == plain_comm.sim.events_processed
    folds = [r.args for r in res.trace.select(name="engine.ctrl_fold")]
    assert folds == [{"phase": "sync", "messages": 16 * 4},
                     {"phase": "activate", "messages": 15},
                     {"phase": "final", "messages": 16}]
    assert res.engine["ctrl_folds"] == 3 and res.engine["ctrl_pairs"] == 0

    def activations(r):
        return [(e.ts, e.track, e.args) for e in r.trace.select(name="seq.activate")]
    assert len(activations(res)) == 15
    assert activations(res) == activations(ref)
