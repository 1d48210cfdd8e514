"""Property suite for the multicast planner (ISSUE satellite).

Every family x seeded member subset x gid must produce a plan that
passes the shared validator: spanning, tree-ness, plane purity, hosts
as leaves, per-link load.  Cross-gid overlays must respect each plan's
declared disjointness contract, and re-planning around dead nodes must
keep every invariant on the survivor graph.
"""

import random

import pytest

from repro.net.fabric import Fabric
from repro.net.plan import (MulticastPlan, PartitionError, PlanError,
                            partition_fabric, plan_mcast, validate_disjointness,
                            validate_partition, validate_plan)
from repro.net.topology import Topology, host_name
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s


def _families():
    """(name, topology) pairs covering every planner family."""
    base = Topology.leaf_spine(16, n_leaf=4, n_spine=4)
    return [
        ("star", Topology.star(8)),
        ("leaf_spine", Topology.leaf_spine(16, n_leaf=4, n_spine=4)),
        ("torus", Topology.torus([4, 4])),
        ("torus3d", Topology.torus([2, 3, 4], hosts_per_node=2)),
        ("dragonfly", Topology.dragonfly(4, 3, hosts_per_router=2)),
        ("multi_rail", Topology.multi_rail(base, 2)),
        ("multi_rail3", Topology.multi_rail(base, 3)),
    ]


FAMILIES = _families()
SEEDS = (0, 1, 2)


@pytest.mark.parametrize("name,topo", FAMILIES, ids=[n for n, _ in FAMILIES])
@pytest.mark.parametrize("seed", SEEDS)
def test_plans_validate_on_random_member_subsets(name, topo, seed):
    rng = random.Random(1000 + seed)
    for gid in range(4):
        k = rng.randint(2, topo.n_hosts)
        members = sorted(rng.sample(range(topo.n_hosts), k))
        plan = plan_mcast(topo, gid, members)
        validate_plan(topo, plan)
        assert plan.members == tuple(members)


@pytest.mark.parametrize("name,topo", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_full_membership_plans_are_disjoint_or_bounded(name, topo):
    members = list(range(topo.n_hosts))
    plans = [plan_mcast(topo, gid, members) for gid in range(4)]
    for plan in plans:
        validate_plan(topo, plan)
    # Overlay contract: exclusive-root plans keep their root edges
    # private; total per-link load never exceeds the tree count.
    load = validate_disjointness(topo, plans, max_link_load=len(plans))
    assert load


def test_fat_tree_roots_rotate_and_root_edges_exclusive():
    topo = Topology.leaf_spine(16, n_leaf=4, n_spine=4)
    members = list(range(16))
    plans = [plan_mcast(topo, gid, members) for gid in range(4)]
    assert len({p.root for p in plans}) == 4  # one spine per gid
    assert all(p.disjointness == "exclusive-root" for p in plans)
    validate_disjointness(topo, plans)


def test_multi_rail_stripes_gids_across_planes():
    base = Topology.leaf_spine(16, n_leaf=4, n_spine=4)
    topo = Topology.multi_rail(base, 2)
    members = list(range(16))
    plans = [plan_mcast(topo, gid, members) for gid in range(4)]
    for gid, plan in enumerate(plans):
        validate_plan(topo, plan)
        assert plan.rail == gid % 2
    # Trees in different planes share no switch-level edges at all: the
    # only common nodes are the hosts themselves.
    e0 = set(plans[0].tree_edges())
    e1 = set(plans[1].tree_edges())
    assert not (e0 & e1)


def test_torus_plan_uses_ecube_routes():
    topo = Topology.torus([4, 4])
    plan = plan_mcast(topo, 0, list(range(16)))
    validate_plan(topo, plan)
    # e-cube union over all members of a 4x4 torus from one root spans
    # every router exactly once (prefix-closed routes form a tree).
    routers = [n for n in plan.tree_nodes() if not n.startswith("h")]
    assert len(routers) == 16


def test_dragonfly_plan_spans_groups_via_single_globals():
    topo = Topology.dragonfly(4, 3, hosts_per_router=2)
    plan = plan_mcast(topo, 0, list(range(topo.n_hosts)))
    validate_plan(topo, plan)
    # Exactly one global (inter-group) edge per remote member group.
    globals_ = [e for e in plan.tree_edges()
                if not e[0].startswith("h") and not e[1].startswith("h")
                and e[0][:3] != e[1][:3]]
    assert len(globals_) == 3


@pytest.mark.parametrize("name,topo", FAMILIES, ids=[n for n, _ in FAMILIES])
@pytest.mark.parametrize("seed", SEEDS)
def test_replan_around_dead_switch_validates(name, topo, seed):
    if not topo.switch_names:
        pytest.skip("switchless")
    rng = random.Random(2000 + seed)
    dead = {rng.choice(topo.switch_names)}
    members = list(range(topo.n_hosts))
    try:
        plan = plan_mcast(topo, 1, members, exclude=dead)
    except (PlanError, ValueError):
        # Some deaths legitimately partition small shapes (e.g. a star's
        # only switch); the planner must say so, not emit a broken plan.
        return
    validate_plan(topo, plan)
    assert not dead & set(plan.tree_nodes())


def test_replan_around_dead_host_drops_it():
    topo = Topology.torus([4, 4])
    survivors = [m for m in range(16) if m != 5]
    plan = plan_mcast(topo, 0, survivors, exclude={host_name(5)})
    validate_plan(topo, plan)
    assert host_name(5) not in plan.tree_nodes()


def test_multi_rail_whole_plane_death_fails_over():
    base = Topology.leaf_spine(16, n_leaf=4, n_spine=4)
    topo = Topology.multi_rail(base, 2)
    dead = set(topo.rail_switches(0))
    plan = plan_mcast(topo, 0, list(range(16)), exclude=dead)  # home: plane 0
    validate_plan(topo, plan)
    assert plan.rail == 1
    assert plan.disjointness == "shared"  # squatting on plane 1's spines
    # Every plane dead: the planner must refuse, not partition silently.
    dead |= set(topo.rail_switches(1))
    with pytest.raises(PlanError):
        plan_mcast(topo, 0, list(range(16)), exclude=dead)


def test_validator_rejects_corrupt_plans():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    good = plan_mcast(topo, 0, list(range(8)))
    # Non-spanning: drop a member from the tree.
    tree = {n: set(v) for n, v in good.tree.items()}
    victim = host_name(7)
    for nbr in tree.pop(victim):
        tree[nbr].discard(victim)
    broken = MulticastPlan(
        gid=0, kind="fat_tree", root=good.root, tree=tree,
        members=good.members, edge_rails=dict(good.edge_rails))
    with pytest.raises(PlanError):
        validate_plan(topo, broken)
    # Phantom edge: a tree edge the topology does not have.
    tree2 = {n: set(v) for n, v in good.tree.items()}
    tree2[host_name(0)].add(host_name(1))
    tree2[host_name(1)].add(host_name(0))
    with pytest.raises(PlanError):
        validate_plan(topo, MulticastPlan(
            gid=0, kind="fat_tree", root=good.root, tree=tree2,
            members=good.members, edge_rails=dict(good.edge_rails)))


# ------------------------------------------------------------- partitions


def _fabric(topo):
    return Fabric(Simulator(), topo, link_bandwidth=gbit_per_s(56),
                  streams=RandomStreams(1))


PARTITION_FAMILIES = [
    ("star", lambda: Topology.star(8)),
    ("leaf_spine", lambda: Topology.leaf_spine(16, 4, 2)),
    ("torus", lambda: Topology.torus([2, 2, 2])),
    ("dragonfly", lambda: Topology.dragonfly(3, 2, 2)),
]


@pytest.mark.parametrize("name,make", PARTITION_FAMILIES,
                         ids=[f[0] for f in PARTITION_FAMILIES])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_partition_invariants_across_families(name, make, k):
    fabric = _fabric(make())
    part = partition_fabric(fabric, k)
    validate_partition(fabric, part)
    topo = fabric.topology
    # Effective shard count is clamped to host-bearing switches and the
    # hosts are covered exactly once, in contiguous shard blocks.
    assert 1 <= part.n_shards <= k
    assert sorted(h for s in range(part.n_shards)
                  for h in part.hosts_of(s)) == list(range(topo.n_hosts))
    assert part.host_shard == sorted(part.host_shard)
    # Deterministic: same fabric, same partition.
    again = partition_fabric(fabric, k)
    assert again.switch_shard == part.switch_shard
    assert again.host_shard == part.host_shard
    assert again.cut_edges == part.cut_edges
    assert again.lookahead == part.lookahead
    if part.cut_edges:
        assert part.lookahead > 0.0


def test_partition_rejects_zero_shards():
    with pytest.raises(PartitionError):
        partition_fabric(_fabric(Topology.star(4)), 0)


def test_single_switch_partition_has_no_cuts():
    part = partition_fabric(_fabric(Topology.star(8)), 4)
    assert part.n_shards == 1
    assert part.cut_edges == []
    assert part.lookahead == float("inf")
