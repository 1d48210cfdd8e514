"""Tests for the RC control plane: messaging, inboxes, barrier."""

import gc

import numpy as np
import pytest

from repro.core import control
from repro.core.control import (
    MSG_ACTIVATE,
    MSG_BARRIER,
    MSG_DEATH,
    MSG_FETCH_ACK,
    MSG_FETCH_REQ,
    MSG_FINAL,
)
from repro.core.communicator import Communicator
from repro.net import Fabric, Topology
from repro.sim import RandomStreams, Simulator
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
