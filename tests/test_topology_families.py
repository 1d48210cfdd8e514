"""End-to-end collectives across the topology zoo (ISSUE acceptance).

Each family — torus, dragonfly, multi-rail — runs broadcast and
allgather clean and under loss; crash repair (host death AND switch
death) completes or degrades correctly on torus and multi-rail,
including whole-plane failover; and a 2-rail fabric beats its
single-rail base by the acceptance factor when striping is on.
"""

import numpy as np
import pytest

from repro.core import CollectiveConfig, Communicator, FailurePolicy
from repro.net import CrashSpec, Fabric, Topology
from repro.net.link import FaultSpec
from repro.sim import RandomStreams, Simulator
from repro.units import gbit_per_s, kib, mib


def make_comm(topo, config=None, seed=0, faults=None):
    sim = Simulator()
    fabric = Fabric(sim, topo, link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed=seed))
    if faults is not None:
        fabric.set_fault_all(faults)
    return Communicator(fabric, config=config)


def rank_data(rank, nbytes):
    rng = np.random.default_rng(3000 + rank)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


FAMILY_TOPOS = [
    ("torus", lambda: Topology.torus([4, 4])),
    ("dragonfly", lambda: Topology.dragonfly(4, 2, hosts_per_router=2)),
    ("multi_rail", lambda: Topology.multi_rail(
        Topology.leaf_spine(16, n_leaf=4, n_spine=2), 2)),
]
IDS = [n for n, _ in FAMILY_TOPOS]


# ------------------------------------------------------------ clean collectives


@pytest.mark.parametrize("name,make", FAMILY_TOPOS, ids=IDS)
def test_broadcast_clean(name, make):
    comm = make_comm(make(), config=CollectiveConfig(n_subgroups=2))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.duration > 0


@pytest.mark.parametrize("name,make", FAMILY_TOPOS, ids=IDS)
def test_allgather_clean(name, make):
    topo = make()
    comm = make_comm(topo, config=CollectiveConfig(n_subgroups=2))
    send = [rank_data(r, kib(16)) for r in range(topo.n_hosts)]
    result = comm.allgather(send)
    assert result.verify_allgather(send)


# ------------------------------------------------------------ lossy collectives


@pytest.mark.parametrize("name,make", FAMILY_TOPOS, ids=IDS)
def test_broadcast_lossy(name, make):
    comm = make_comm(make(), seed=7,
                     faults=lambda s, d: FaultSpec(drop_prob=2e-3))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


@pytest.mark.parametrize("name,make", FAMILY_TOPOS, ids=IDS)
def test_allgather_lossy(name, make):
    topo = make()
    comm = make_comm(topo, seed=8,
                     faults=lambda s, d: FaultSpec(drop_prob=2e-3))
    send = [rank_data(r, kib(16)) for r in range(topo.n_hosts)]
    result = comm.allgather(send)
    assert result.verify_allgather(send)


# ------------------------------------------------------- crash repair: torus


def test_torus_host_death_degrades():
    cfg = CollectiveConfig(failure_policy=FailurePolicy.DEGRADE)
    comm = make_comm(Topology.torus([4, 4]), config=cfg, seed=201)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=5))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.degraded and result.dead_ranks == [5]
    assert result.verify_broadcast(data)


def test_torus_router_death_completes_or_degrades():
    """A torus router dies mid-allgather: its attached host goes dark and
    the planner re-plans a BFS tree over the survivors."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(Topology.torus([4, 4]), config=cfg, seed=202)
    victim = comm.fabric.topology.attach_point(3)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, switch=victim))
    send = [rank_data(r, kib(16)) for r in range(16)]
    result = comm.allgather(send)
    assert result.dead_ranks == [3]  # the host behind the dead router
    assert result.verify_allgather_degraded(send)


# -------------------------------------------------- crash repair: multi-rail


def _two_rail(n=16):
    return Topology.multi_rail(Topology.leaf_spine(n, n_leaf=4, n_spine=2), 2)


def test_multi_rail_host_death_degrades():
    cfg = CollectiveConfig(failure_policy="degrade", n_subgroups=2)
    comm = make_comm(_two_rail(), config=cfg, seed=203)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=9))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.degraded and result.dead_ranks == [9]
    assert result.verify_broadcast(data)


def test_multi_rail_spine_death_completes_clean():
    """One spine of plane 0 dies; the second spine carries the plane and
    no rank is lost."""
    cfg = CollectiveConfig(failure_policy="degrade", n_subgroups=2)
    comm = make_comm(_two_rail(), config=cfg, seed=204)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, switch="spine000.r0"))
    send = [rank_data(r, kib(16)) for r in range(16)]
    result = comm.allgather(send)
    assert result.dead_ranks == []
    assert result.verify_allgather(send)


@pytest.mark.parametrize("collective", ["broadcast", "allgather"])
def test_multi_rail_whole_plane_death_fails_over(collective):
    """Every switch of plane 0 dies at once — data trees AND the control
    plane must migrate to plane 1, and the collective still completes
    with zero dead ranks (planes only meet at the hosts)."""
    cfg = CollectiveConfig(failure_policy="degrade", n_subgroups=2)
    comm = make_comm(_two_rail(), config=cfg, seed=205)
    for sw in comm.fabric.topology.rail_switches(0):
        comm.fabric.schedule_crash(CrashSpec(at=10e-6, switch=sw))
    if collective == "broadcast":
        data = rank_data(0, kib(128))
        result = comm.broadcast(0, data)
        assert result.verify_broadcast(data)
    else:
        send = [rank_data(r, kib(16)) for r in range(16)]
        result = comm.allgather(send)
        assert result.verify_allgather(send)
    assert result.dead_ranks == []


# ------------------------------------------------------ rail-striping speedup


def test_two_rail_broadcast_beats_single_rail():
    """Acceptance: a 2-rail 64-host fabric with striped subgroups moves a
    1 MiB and a 4 MiB broadcast >= 1.5x faster than its single-rail base
    (the root feeds the subgroups' QPs, and so both rails, round-robin)."""
    base = lambda: Topology.leaf_spine(64, n_leaf=8, n_spine=4)
    cfg = lambda: CollectiveConfig(n_subgroups=4)
    for size in (mib(1), mib(4)):
        data = rank_data(0, size)
        single = make_comm(base(), config=cfg()).broadcast(0, data)
        assert single.verify_broadcast(data)
        railed = make_comm(Topology.multi_rail(base(), 2),
                           config=cfg()).broadcast(0, data)
        assert railed.verify_broadcast(data)
        speedup = single.duration / railed.duration
        assert speedup >= 1.5, f"2-rail speedup {speedup:.2f} < 1.5 at {size} B"
