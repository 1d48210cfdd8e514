"""The control fold's route walk against the per-pair oracle.

``Fabric.route_table().walk`` finds the unicast route of every control
message of a collective in one next-hop walk over the route table
(DESIGN.md §6i); ``Fabric.unicast_route`` walks one pair at a time.  They
must agree pair for pair — the channels, and which pairs have no route —
on every topology family, after a switch death and its repair, and on
tables broken on purpose (a missing entry, a loop).  A pair without a
route declines the fold with ``fault``.  The tables are broken in the
array itself; the switches' rows, which forward packets, are left alone.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.request import CollectiveRequest
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.units import gbit_per_s, kib

FAMILIES = {
    "leaf_spine": lambda: Topology.leaf_spine(24, 4, 2),
    "fat_tree3": lambda: Topology.fat_tree3(24, 4, 4, 2),
    "dragonfly": lambda: Topology.dragonfly(4, 3, 2),
    "torus": lambda: Topology.torus((4, 3), hosts_per_node=2),
    "star": lambda: Topology.star(24),
    "testbed_188": Topology.testbed_188,
}


def _agree(fabric: Fabric, pairs) -> np.ndarray:
    """Assert the walk and the oracle agree on every pair; ``ok`` per pair."""
    src, dst = (np.array(x) for x in zip(*pairs))
    table = fabric.route_table()
    routes, ok = table.walk(src, dst)
    for (s, d), row, routed in zip(pairs, routes, ok):
        want = fabric.unicast_route(s, d)
        assert routed == (want is not None), (s, d)
        if routed:
            assert [table.chans[i] for i in row if i] == want, (s, d)
    return ok


@st.composite
def pairs(draw, n_hosts):
    return draw(st.lists(st.tuples(st.integers(0, n_hosts - 1),
                                   st.integers(0, n_hosts - 1)),
                         min_size=1, max_size=60))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), family=st.sampled_from(sorted(FAMILIES)))
def test_the_route_walk_is_the_per_pair_route(data, family):
    fabric = Fabric(Simulator(), FAMILIES[family]())
    assert _agree(fabric, data.draw(pairs(fabric.n_hosts))).all()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), family=st.sampled_from(["leaf_spine", "fat_tree3",
                                               "dragonfly", "testbed_188"]))
def test_the_route_walk_follows_a_switch_death_and_its_repair(data, family):
    fabric = Fabric(Simulator(), FAMILIES[family]())
    comm = Communicator(fabric)
    before = fabric.route_table()
    dead = data.draw(st.sampled_from(sorted(fabric.switches)))
    fabric.crash_switch(dead)  # a new fault epoch; the routes still name it
    assert fabric.route_table() is before
    _agree(fabric, data.draw(pairs(fabric.n_hosts)))
    comm.repair_topology()  # routes around it, in a new table
    assert fabric.route_table() is not before
    _agree(fabric, data.draw(pairs(fabric.n_hosts)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), family=st.sampled_from(sorted(FAMILIES)))
def test_the_route_walk_finds_no_route_where_the_oracle_finds_none(data, family):
    fabric = Fabric(Simulator(), FAMILIES[family]())
    table = fabric.route_table()
    broken = set()
    for _ in range(data.draw(st.integers(1, 4))):
        s = data.draw(st.integers(0, len(fabric.switches) - 1))
        ports = list(fabric.switches.values())[s].ports
        dst = data.draw(st.integers(0, fabric.n_hosts - 1))
        broken.add(dst)
        if data.draw(st.booleans()):
            table.next[s, dst] = -1  # unroutable
        else:  # back to any neighbour: a loop or a wrong end
            ch = ports[data.draw(st.sampled_from(sorted(ports)))]
            table.next[s, dst] = table.chans.index(ch)
    # ... and every host's route to each broken destination
    _agree(fabric, data.draw(pairs(fabric.n_hosts))
           + [(src, dst) for dst in sorted(broken) for src in range(fabric.n_hosts)])


def test_an_unroutable_control_message_declines_the_fold_with_fault():
    fabric = Fabric(Simulator(), Topology.leaf_spine(16, 4, 2),
                    link_bandwidth=gbit_per_s(56))
    leaf = fabric.topology.switch_names.index(fabric.topology.attach_point(1))
    fabric.route_table().next[leaf, 1] = -1  # nothing reaches h1
    comm = Communicator(fabric, config=CollectiveConfig(transport="uc"))
    comm.submit(CollectiveRequest(
        kind="broadcast", data=np.arange(kib(16), dtype=np.uint8), root=0))
    comm.sim.run(until=0.0)  # every rank has reached its barrier
    assert comm.fabric.fold_misses["control"] == {"fault": 1} and comm.cf.folds == 0
