"""Unit tests for topology construction and routing."""

import numpy as np
import pytest

from repro.net.topology import (
    Topology,
    TopologyError,
    TopologySpec,
    host_id,
    host_name,
    is_host,
    torus_coord,
    torus_id,
)


def test_host_name_roundtrip():
    assert host_name(17) == "h17"
    assert host_id("h17") == 17
    assert is_host("h0") and not is_host("leaf000")


def test_host_id_rejects_switch():
    with pytest.raises(ValueError):
        host_id("spine000")


def test_back_to_back():
    topo = Topology.back_to_back()
    assert topo.n_hosts == 2
    assert topo.switch_names == []
    assert topo.attach_point(0) == "h1"
    assert topo.path(0, 1) == ["h0", "h1"]


def test_star_connectivity():
    topo = Topology.star(4)
    assert topo.switch_names == ["sw000"]
    for i in range(4):
        assert topo.attach_point(i) == "sw000"
    assert topo.path(1, 3) == ["h1", "sw000", "h3"]


def test_leaf_spine_structure():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    assert len(topo.switch_names) == 4
    assert topo.core_switches == ["spine000", "spine001"]
    # Hosts fill leaves sequentially: h0..h3 on leaf000, h4..h7 on leaf001.
    assert topo.attach_point(0) == "leaf000"
    assert topo.attach_point(7) == "leaf001"


def test_leaf_spine_same_leaf_path_has_no_spine():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    path = topo.path(0, 1)
    assert path == ["h0", "leaf000", "h1"]


def test_leaf_spine_cross_leaf_path_uses_one_spine():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    path = topo.path(0, 5)
    assert len(path) == 5  # h0, leaf, spine, leaf, h5
    assert path[2].startswith("spine")


def test_routing_is_destination_deterministic():
    topo = Topology.leaf_spine(16, n_leaf=4, n_spine=4)
    a = topo.path(0, 13)
    b = topo.path(0, 13)
    assert a == b


def test_ecmp_spreads_across_spines():
    topo = Topology.leaf_spine(16, n_leaf=2, n_spine=4, hosts_per_leaf=8)
    spines = {topo.path(0, dst)[2] for dst in range(8, 16)}
    assert len(spines) > 1  # different dsts take different spines


def test_unicast_tables_complete():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    table = topo.next_hop_table()
    assert table.shape == (4, 8) and table.dtype == np.int32
    assert (table >= 0).all()


def _next_hop_reference(topo, exclude=None):
    """:meth:`Topology.next_hop` of every (switch, host) pair, as positions
    in the switch's adjacency list (-1: no entry)."""
    exclude = exclude or set()
    ref = np.full((len(topo.switch_names), topo.n_hosts), -1)
    for dst in range(topo.n_hosts):
        if host_name(dst) in exclude:
            continue
        dist = topo._distances_to(dst, exclude)
        for s, sw in enumerate(topo.switch_names):
            if sw not in exclude and dist.get(sw, 0) > 0:
                ref[s, dst] = topo.adjacency[sw].index(topo.next_hop(sw, dst, exclude))
    return ref


def test_unicast_tables_match_per_destination_reference():
    """The grouped, vectorised table build must be entry-for-entry
    identical to routing each (switch, dst) pair through next_hop — on the
    intact graph and around every kind of dead node."""
    fat = Topology.fat_tree3(32, 4, 4, 2)
    leaf_spine = Topology.leaf_spine(32, n_leaf=4, n_spine=3)
    cases = [
        (Topology.star(6), None),
        (leaf_spine, None),
        (leaf_spine, {"spine001"}),
        (leaf_spine, {"leaf002"}),
        (leaf_spine, {"h5"}),
        (leaf_spine, {"spine000", "h9"}),
        (Topology.multi_rail(Topology.leaf_spine(16, 4, 2), 2), None),
        (Topology.multi_rail(Topology.leaf_spine(16, 4, 2), 2), {"leaf001.r0"}),
        (Topology.torus([2, 2, 2]), None),
        (Topology.torus([3, 3], hosts_per_node=2), None),
        (Topology.dragonfly(3, 2, 2), None),
        (fat, None),
        (fat, {"mid002"}),
        (fat, {"core001"}),
        (fat, {"leaf000", "h31"}),
        (Topology.testbed_188(), None),
        (Topology.testbed_188(), {"spine004", "leaf003", "h100"}),
    ]
    for topo, exclude in cases:
        assert (topo.next_hop_table(exclude)
                == _next_hop_reference(topo, exclude)).all(), (topo.kind, exclude)


def test_unicast_table_installer_rejects_a_next_hop_without_a_port(monkeypatch):
    """A table is adopted whole, behind one check that every hop names a
    port — at fabric build and at an SM sweep alike."""
    from repro.net import Fabric
    from repro.sim import Simulator

    topo = Topology.leaf_spine(4, 2, 2)
    good = topo.next_hop_table

    def corrupted(exclude=None):
        table = good(exclude)
        table[topo.switch_names.index("leaf000"), 3] = 7  # leaf000 has 4 ports
        return table

    fabric = Fabric(Simulator(), topo)
    before, row = fabric.route_table(), list(fabric.switches["leaf000"].route_row)
    monkeypatch.setattr(topo, "next_hop_table", corrupted)
    with pytest.raises(ValueError, match="leaf000: no port at position 7 toward h3"):
        fabric.reroute_unicast()
    assert fabric.route_table() is before  # untouched
    assert fabric.switches["leaf000"].route_row == row
    with pytest.raises(ValueError, match="leaf000: no port"):
        Fabric(Simulator(), topo)


def test_path_endpoint_validation():
    topo = Topology.star(3)
    with pytest.raises(ValueError):
        topo.next_hop("h0", 0)


def test_mcast_tree_covers_all_members():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    tree = topo.mcast_tree(0, list(range(8)))
    for h in range(8):
        assert host_name(h) in tree
        # Hosts are tree leaves: exactly one tree neighbor.
        assert len(tree[host_name(h)]) == 1


def test_mcast_tree_is_acyclic():
    topo = Topology.leaf_spine(12, n_leaf=3, n_spine=3)
    tree = topo.mcast_tree(1, list(range(12)))
    n_nodes = len(tree)
    n_edges = sum(len(v) for v in tree.values()) // 2
    assert n_edges == n_nodes - 1  # tree invariant


def test_mcast_tree_root_varies_with_gid():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    assert topo.mcast_root(0) != topo.mcast_root(1)


def test_mcast_tree_subset_members():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    tree = topo.mcast_tree(0, [0, 5])
    assert host_name(0) in tree and host_name(5) in tree
    assert host_name(1) not in tree


def test_mcast_tree_back_to_back():
    topo = Topology.back_to_back()
    tree = topo.mcast_tree(0, [0, 1])
    assert tree == {"h0": {"h1"}, "h1": {"h0"}}


def test_mcast_tree_needs_two_members():
    topo = Topology.star(4)
    with pytest.raises(ValueError):
        topo.mcast_tree(0, [2])


def test_testbed_188_shape():
    topo = Topology.testbed_188()
    assert topo.n_hosts == 188
    assert len(topo.switch_names) == 18
    leaves = [s for s in topo.switch_names if s.startswith("leaf")]
    spines = [s for s in topo.switch_names if s.startswith("spine")]
    assert len(leaves) == 12 and len(spines) == 6


def test_duplicate_edges_collapse():
    topo = Topology(2, [("h0", "h1"), ("h1", "h0")], core_switches=[])
    assert len(topo.edges) == 1


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Topology(1, [("h0", "h0")])


def test_disconnected_host_rejected():
    with pytest.raises(ValueError):
        Topology(2, [("h0", "sw000")])


def test_multi_homed_host_rejected():
    with pytest.raises(ValueError):
        Topology(2, [("h0", "sw000"), ("h0", "sw001"), ("h1", "sw000"), ("h1", "sw001")])


def test_topology_spec_builders():
    assert TopologySpec("star", 4).build().kind == "star"
    assert TopologySpec("back_to_back").build().n_hosts == 2
    spec = TopologySpec("leaf_spine", 8, {"n_leaf": 2, "n_spine": 2})
    assert spec.build().kind == "leaf_spine"
    assert TopologySpec("testbed_188").build().n_hosts == 188


def test_topology_spec_zoo_builders():
    t = TopologySpec("torus", 16, {"dims": [4, 4]}).build()
    assert t.kind == "torus" and t.n_hosts == 16
    d = TopologySpec(
        "dragonfly", 12,
        {"n_groups": 3, "routers_per_group": 2, "hosts_per_router": 2},
    ).build()
    assert d.kind == "dragonfly" and d.n_hosts == 12
    m = TopologySpec("multi_rail", 8, {
        "base_kind": "leaf_spine",
        "base_params": {"n_leaf": 2, "n_spine": 2},
        "n_rails": 2,
    }).build()
    assert m.kind == "multi_rail" and m.rails == 2


def test_topology_spec_typed_errors():
    # Missing required params raise TopologyError (a ValueError subclass),
    # never a bare KeyError — callers catch one exception type.
    assert issubclass(TopologyError, ValueError)
    with pytest.raises(TopologyError):
        TopologySpec("torus", 8).build()
    with pytest.raises(TopologyError):
        TopologySpec("dragonfly", 8, {"n_groups": 4}).build()
    with pytest.raises(TopologyError):
        TopologySpec("multi_rail", 8, {"n_rails": 2}).build()
    with pytest.raises(TopologyError):
        TopologySpec("no_such_family", 8).build()
    # Host-count mismatch against the declared shape is also typed.
    with pytest.raises(TopologyError):
        TopologySpec("torus", 7, {"dims": [4, 4]}).build()


def test_topology_spec_key_canonicalizes_through_factory():
    # Equivalent spellings (defaults omitted vs explicit, tuple vs list
    # dims) must emit one canonical key, or profile digests fracture.
    a = TopologySpec("torus", 16, {"dims": (4, 4)}).key()
    b = TopologySpec("torus", 16, {"dims": [4, 4], "hosts_per_node": 1}).key()
    assert a == b
    built = TopologySpec("torus", 16, {"dims": [4, 4]}).build()
    assert a["params"] == TopologySpec("torus", 16, dict(built.params)).key()["params"]


def test_torus_coord_roundtrip():
    dims = [2, 3, 4]
    for rank in range(2 * 3 * 4):
        assert torus_id(torus_coord(rank, dims), dims) == rank
    assert torus_coord(0, dims) == [0, 0, 0]
    # Last dimension varies fastest (row-major mixed radix).
    assert torus_coord(1, dims) == [0, 0, 1]


def test_torus_structure():
    topo = Topology.torus([4, 4])
    assert topo.n_hosts == 16
    assert len(topo.switch_names) == 16  # one router per coordinate
    # Each router: 1 host link + 2 ring links per dimension = degree 5.
    for sw in topo.switch_names:
        assert len(topo.adjacency[sw]) == 5
    # 16 host links + 2 rings of 4 links per row/column (4+4 rings).
    assert len(topo.edges) == 16 + 2 * 4 * 4


def test_torus_dim2_collapses_parallel_ring_edges():
    # A ring of size 2 has (c+1) % 2 meeting itself both ways; the
    # duplicate collapses to a single edge.
    topo = Topology.torus([2, 2])
    assert topo.n_hosts == 4
    assert len(topo.edges) == 4 + 4


def test_dragonfly_structure():
    topo = Topology.dragonfly(4, 3, hosts_per_router=2)
    assert topo.n_hosts == 24
    assert len(topo.switch_names) == 12
    # Edges: 24 host links + 4 groups x C(3,2) clique links + C(4,2) globals.
    assert len(topo.edges) == 24 + 4 * 3 + 6
    # Hosts fill routers sequentially: h0,h1 on g00r00.
    assert topo.attach_point(0) == topo.attach_point(1) == "g00r00"


def test_multi_rail_planes_are_disjoint_above_hosts():
    base = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    topo = Topology.multi_rail(base, 2)
    assert topo.rails == 2
    assert topo.n_hosts == 8
    # Every base switch exists once per rail; no switch spans planes.
    assert len(topo.switch_names) == 2 * len(base.switch_names)
    for sw in topo.switch_names:
        rails = {topo.rail_of_edge(sw, nbr) for nbr in topo.adjacency[sw]}
        assert len(rails) == 1
    # Hosts have one attachment per rail.
    for h in range(8):
        ports = topo.host_ports(h)
        assert len(ports) == 2
        assert topo.attach_point(h, 0).endswith(".r0")
        assert topo.attach_point(h, 1).endswith(".r1")


def test_multi_rail_rejects_bad_bases():
    with pytest.raises(TopologyError):
        Topology.multi_rail(Topology.back_to_back(), 2)  # switchless
    base = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    with pytest.raises(TopologyError):
        Topology.multi_rail(Topology.multi_rail(base, 2), 2)  # already railed


def test_connected_rail_prefers_incumbent_and_survives_plane_death():
    base = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    topo = Topology.multi_rail(base, 2)
    hosts = list(range(8))
    # Healthy fabric: lowest rail wins, but a preferred incumbent holds.
    assert topo.connected_rail(hosts) == 0
    assert topo.connected_rail(hosts, prefer=1) == 1
    # Plane 0 dead: only rail 1 still spans the hosts.
    dead = set(topo.rail_switches(0))
    assert topo.connected_rail(hosts, exclude=dead) == 1
    assert topo.connected_rail(hosts, exclude=dead, prefer=0) == 1
    # Both planes dead: no rail connects them.
    dead |= set(topo.rail_switches(1))
    assert topo.connected_rail(hosts, exclude=dead) is None


def test_connected_rail_partial_spine_death_keeps_plane():
    base = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    topo = Topology.multi_rail(base, 2)
    # One spine of plane 0 dies; the second spine still connects the
    # plane, so rail 0 remains usable.
    assert topo.connected_rail(list(range(8)), exclude={"spine000.r0"}) == 0
    # Both plane-0 spines dead: leaves can't reach each other in-plane.
    dead = {"spine000.r0", "spine001.r0"}
    assert topo.connected_rail(list(range(8)), exclude=dead) == 1


@pytest.mark.parametrize("topo", [
    Topology.back_to_back(),
    Topology.star(4),
    Topology.leaf_spine(12, 3, 2),
    Topology.torus((3, 3), hosts_per_node=2),
    Topology.dragonfly(3, 2, 2),
    Topology.multi_rail(Topology.leaf_spine(8, 2, 2), 2),
], ids=["b2b", "star", "leaf_spine", "torus", "dragonfly", "multi_rail"])
def test_hops_match_the_walked_path(topo):
    for src in range(topo.n_hosts):
        for dst in range(topo.n_hosts):
            assert topo.hops(src, dst) == len(topo.path(src, dst)) - 1


@pytest.mark.parametrize("topo", [
    Topology.back_to_back(),
    Topology.leaf_spine(12, 3, 2),
    Topology.fat_tree3(16, 4, 4, 2),
    Topology.testbed_188(),
    Topology.multi_rail(Topology.fat_tree3(16, 4, 4, 2), 2),
], ids=["b2b", "leaf_spine", "fat_tree3", "testbed_188", "multi_rail"])
def test_hops_equal_the_host_rooted_distance_field(topo):
    # ``hops`` reads the attachment-group fields the table build keeps; the
    # per-destination BFS stays the oracle, and a fabric's one-way delays
    # (every fetch attempt and signaled RC completion) run none of it.
    from repro.net import Fabric
    from repro.sim import Simulator

    fabric = Fabric(Simulator(), topo)
    for src in range(topo.n_hosts):
        fabric.one_way_delay(src, topo.n_hosts - 1 - src)
    assert topo._dist_cache == {}
    for dst in range(topo.n_hosts):
        dist = topo._distances_to(dst)
        for src in range(topo.n_hosts):
            assert topo.hops(src, dst) == dist[host_name(src)]


def test_hops_keep_the_intact_graph_after_a_reroute():
    from repro.net import Fabric
    from repro.sim import Simulator

    topo = Topology.leaf_spine(8, 2, 2)
    fabric = Fabric(Simulator(), topo)
    want = [[topo.hops(s, d) for d in range(8)] for s in range(8)]
    fabric.reroute_unicast({topo.switch_names[-1]})
    assert [[topo.hops(s, d) for d in range(8)] for s in range(8)] == want


def test_one_way_delay_takes_any_integral_host_id():
    """A numpy host id gets its route's hop count, not the multicast
    estimate; an id that names no host raises."""
    import numpy as np

    from repro.net import Fabric
    from repro.net.packet import mcast_dst
    from repro.sim import Simulator

    fabric = Fabric(Simulator(), Topology.leaf_spine(8, 2, 2))
    lat = fabric.link_latency
    assert fabric.one_way_delay(0, 1) == 2 * lat  # same leaf
    assert fabric.one_way_delay(0, 7) == 4 * lat  # across a spine
    assert fabric.one_way_delay(np.int64(0), np.int64(7)) == 4 * lat
    assert fabric.one_way_delay(0, np.int32(0)) == 0.0
    assert fabric.one_way_delay(0, mcast_dst(3)) == 2 * lat
    for bad in (8, -1, 1.0, "h1"):
        with pytest.raises((ValueError, TypeError)):
            fabric.one_way_delay(0, bad)
