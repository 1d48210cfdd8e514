"""Shared receive-WR tables (paper §V-A "fast re-posting", DESIGN §6g).

A posted receive slot is an immutable descriptor, so a UD communicator
builds one table of cached WRs per subgroup, and one per control slab
index, under a symmetric key: every rank registers its own ring (or slab)
under that key in its host memory and posts the table's WR objects
themselves.  The NIC resolves the key in its own host's memory, so the
datapath, every event and the virtual time are those of per-rank WRs.
"""

import gc

import numpy as np
import pytest

from repro import CollectiveConfig, Communicator, Fabric, Simulator, Topology
from repro.core import control
from repro.core.control import MSG_DEATH
from repro.units import gbit_per_s, kib
from tests.unfolded import unfold


def _fabric(topo, reference=False):
    return Fabric(Simulator(), topo, link_bandwidth=gbit_per_s(56), reference=reference)


def _ud(n_subgroups=1, **kw):
    return CollectiveConfig(chunk_size=1024, n_subgroups=n_subgroups, staging_slots=64, **kw)


def test_every_ud_rank_posts_the_subgroups_table():
    fabric = _fabric(Topology.leaf_spine(8, 2, 2))
    comm = Communicator(fabric, config=_ud(n_subgroups=2))
    assert len(comm.recv_tables) == 2
    for sg, table in enumerate(comm.recv_tables):
        assert [(wr.wr_id, wr.offset, wr.length) for wr in table] == [
            (s, s * 1024, 1024) for s in range(64)]
        for e in comm.engines:
            ring, qp = e.stagings[sg], e.sub_qps[sg]
            assert all(a is b for a, b in zip(qp.recv_queue, table))
            assert len(qp.recv_queue) == ring.posted == 64
            assert ring.mr is fabric.nic(e.nic.host).memory.lookup(table[0].mr_key)
    # A UD rank builds no UC dummy: its host holds just its two rings.
    assert e._uc_wr is None
    assert all(len(fabric.nic(h).memory) == 2 for h in comm.hosts)


def test_subgroups_and_communicators_get_distinct_keys():
    fabric = _fabric(Topology.leaf_spine(8, 2, 2))
    a = Communicator(fabric, config=_ud(n_subgroups=3))
    b = Communicator(fabric, hosts=range(4, 8), config=_ud(n_subgroups=2))
    keys = [t[0].mr_key for c in (a, b) for t in c.recv_tables]
    assert len(set(keys)) == len(keys) == 5
    assert all(len({wr.mr_key for wr in t}) == 1 for t in a.recv_tables)
    assert Communicator(fabric, config=CollectiveConfig(transport="uc")).recv_tables == ()


def _outcome(results):
    """Everything a run leaves to compare against the oracle, bit for bit."""
    return [(res.duration, [r.phases for r in res.ranks], res.traffic) for res in results]


def _workload(comms, data):
    """A broadcast and an allgather on each communicator in turn; every
    payload verified."""
    out = []
    for comm in comms:
        res = comm.broadcast(1, data)
        assert res.verify_broadcast(data)
        out.append(res)
        shards = [data[: kib(4)] + r for r in range(comm.size)]
        res = comm.allgather(shards)
        assert res.verify_allgather(shards)
        out.append(res)
    return _outcome(out)


SHAPES = {
    "one_rail": (lambda: Topology.leaf_spine(8, 2, 2), [(None, 2)]),
    "two_rails": (lambda: Topology.multi_rail(Topology.leaf_spine(8, 2, 2), 2),
                  [(None, 2)]),
    # Two communicators on one fabric, sharing hosts 4-7 (and their memories).
    "two_comms": (lambda: Topology.leaf_spine(16, 2, 2),
                  [(range(0, 8), 1), (range(4, 16), 2)]),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shared_tables_match_the_reference(shape):
    make, comms = SHAPES[shape]
    data = np.random.default_rng(0).integers(0, 256, kib(24), dtype=np.uint8)

    def run(reference):
        fabric = _fabric(make(), reference)
        return _workload([Communicator(fabric, hosts=hosts, config=_ud(n_subgroups=sg))
                          for hosts, sg in comms], data)

    assert run(False) == run(True)


def test_control_planes_post_the_communicators_slab_tables(monkeypatch):
    """Every plane's slab *k* is one WR table of the communicator's; the
    slab a refill adds is the next shared table, not a new per-rank one."""
    monkeypatch.setattr(control, "_SLAB_SLOTS", 32)
    fabric = _fabric(Topology.leaf_spine(64, 8, 4))
    comm = Communicator(fabric)
    unfold(comm, data=False)  # the control messages run as packets
    data = np.arange(kib(16), dtype=np.uint8)
    assert comm.broadcast(0, data).verify_broadcast(data)
    planes = [e.ctrl for e in comm.engines]
    # A death notice from every rank converges on rank 0: its slabs run
    # low and the dispatcher adds more.
    planes[0].on_death = lambda msg: None
    for r in range(1, len(planes)):
        planes[r].send(0, MSG_DEATH, key=1000 + r)
    fabric.sim.run()
    tables = comm.ctrl_slab_tables
    assert len(tables) == max(len(p._slabs) for p in planes) == 1 + planes[0].srq_refills > 1
    assert len({t[0].mr_key for t in tables}) == len(tables)
    for plane in planes:
        for slot, wr in enumerate(plane._wrs):
            assert wr is tables[slot // 32][slot % 32] and wr.wr_id == slot
        for k in range(len(plane._slabs)):
            assert plane.nic.memory.lookup(tables[k][0].mr_key).nbytes == 32 * 32


def test_a_ud_communicator_build_allocates_under_100_objects_per_rank():
    """Bring-up stays O(ranks) with a small constant: the 256 staging WRs
    of a subgroup are built once, not once per rank."""
    fabric = _fabric(Topology.testbed_188())
    gc.collect()
    before = len(gc.get_objects())
    comm = Communicator(fabric)
    gc.collect()
    built = len(gc.get_objects()) - before
    assert comm.size == 188 and comm.config.transport == "ud"
    assert comm.config.staging_slots == 256
    assert built <= 100 * comm.size, built / comm.size
