"""Per-family multicast planners.

``plan_mcast`` dispatches on ``topology.kind``:

* fat-tree family (star / leaf_spine / fat_tree3 / custom / switchless)
  — delegates to the legacy spine-rooted BFS in
  :meth:`Topology.mcast_tree`, so fat-tree plans are **bit-identical**
  to what the fabric programmed before the planner existed (the
  equivalence test gates this).
* torus — dimension-ordered (e-cube) route union from a gid-rotated
  root router, the bine-tree construction generalized to any dims.
* dragonfly — group-local clique fan-out from the root plus one global
  link per member group.
* multi_rail — the group is pinned to plane ``gid % rails`` and planned
  with the base family's planner restricted to that plane; if a whole
  plane is dead the group fails over to the next surviving plane.

Every planner falls back to the generic BFS tree when switch deaths
make its structured construction impossible — repair re-plans over
survivors on any topology, degrading shape before giving up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..topology import (Topology, TopologyError, host_name, is_host,
                        torus_coord, torus_id)
from .plan import MulticastPlan, PlanError

__all__ = ["plan_mcast"]


def _edge_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _plan_edge_rails(topo: Topology, tree: Dict[str, Set[str]]) -> Dict[Tuple[str, str], int]:
    rails: Dict[Tuple[str, str], int] = {}
    for node, nbrs in tree.items():
        for nbr in nbrs:
            key = _edge_key(node, nbr)
            rails[key] = topo.edge_rails[key]
    return rails


def _finish(topo: Topology, gid: int, kind: str, root: str,
            tree: Dict[str, Set[str]], members: Sequence[int],
            rail: int, disjointness: str) -> MulticastPlan:
    members = tuple(sorted(set(members)))
    return MulticastPlan(
        gid=gid, kind=kind, root=root, tree=tree, members=members,
        rail=rail, edge_rails=_plan_edge_rails(topo, tree),
        disjointness=disjointness,
    )


def _tree_from_parents(parent: Dict[str, Optional[str]]) -> Dict[str, Set[str]]:
    tree: Dict[str, Set[str]] = {}
    for node, up in parent.items():
        tree.setdefault(node, set())
        if up is not None:
            tree[node].add(up)
            tree.setdefault(up, set()).add(node)
    return tree


def _dead_switches(topo: Topology, exclude: Optional[Set[str]]) -> Set[str]:
    if not exclude:
        return set()
    return {n for n in exclude if not is_host(n)}


# ------------------------------------------------------------ fat-tree family

def _plan_fat_tree(topo: Topology, gid: int, members: Sequence[int],
                   exclude: Optional[Set[str]]) -> MulticastPlan:
    tree = topo.mcast_tree(gid, members, exclude)
    root = topo.mcast_root(gid, exclude)
    if root is None:  # switchless back-to-back: root at the lower host
        root = host_name(min(members))
        return _finish(topo, gid, "fat_tree", root, tree, members,
                       rail=0, disjointness="shared")
    cores = [c for c in topo.core_switches if not (exclude and c in exclude)]
    # The spine edge-disjointness argument needs root diversity: with a
    # single core (star) every gid roots at the same switch and root
    # edges are inherently shared.
    disjointness = "exclusive-root" if len(cores) > 1 else "shared"
    return _finish(topo, gid, "fat_tree", root, tree, members,
                   rail=0, disjointness=disjointness)


# ------------------------------------------------------------------- torus

def _plan_torus(topo: Topology, gid: int, members: Sequence[int],
                exclude: Optional[Set[str]]) -> MulticastPlan:
    dims: List[int] = list(topo.params["dims"])  # type: ignore[index]
    hosts_per_node = int(topo.params.get("hosts_per_node", 1))
    if _dead_switches(topo, exclude):
        # Dead routers break e-cube's fixed dimension order; repair
        # degrades to the generic BFS tree over the survivors.
        tree = topo.mcast_tree(gid, members, exclude)
        root = topo.mcast_root(gid, exclude)
        return _finish(topo, gid, "torus", root, tree, members,
                       rail=0, disjointness="shared")
    root = topo.mcast_root(gid, exclude)
    root_rid = topo.core_switches.index(root)
    root_coord = torus_coord(root_rid, dims)

    def rid_of(name_members: int) -> int:
        return name_members // hosts_per_node

    def rname(rid: int) -> str:
        return topo.core_switches[rid]

    # Union of dimension-ordered routes root → member router.  e-cube
    # routes are prefix-closed (the route to any intermediate node is
    # the corresponding prefix), so the union is a tree by construction.
    parent: Dict[str, Optional[str]] = {root: None}
    live = sorted(set(members))
    for m in live:
        target = torus_coord(rid_of(m), dims)
        cur = list(root_coord)
        for axis, size in enumerate(dims):
            t = target[axis]
            if cur[axis] == t or size == 1:
                continue
            fwd = (t - cur[axis]) % size
            step = 1 if fwd <= size - fwd else -1
            while cur[axis] != t:
                prev = rname(torus_id(cur, dims))
                cur[axis] = (cur[axis] + step) % size
                node = rname(torus_id(cur, dims))
                if node not in parent:
                    parent[node] = prev
        router = rname(torus_id(cur, dims))
        h = host_name(m)
        if h not in parent:
            parent[h] = router
    tree = _tree_from_parents(parent)
    return _finish(topo, gid, "torus", root, tree, live,
                   rail=0, disjointness="shared")


# ---------------------------------------------------------------- dragonfly

def _plan_dragonfly(topo: Topology, gid: int, members: Sequence[int],
                    exclude: Optional[Set[str]]) -> MulticastPlan:
    n_groups = int(topo.params["n_groups"])  # type: ignore[index]
    R = int(topo.params["routers_per_group"])  # type: ignore[index]
    hosts_per_router = int(topo.params.get("hosts_per_router", 1))
    if _dead_switches(topo, exclude):
        tree = topo.mcast_tree(gid, members, exclude)
        root = topo.mcast_root(gid, exclude)
        return _finish(topo, gid, "dragonfly", root, tree, members,
                       rail=0, disjointness="shared")

    def rname(g: int, r: int) -> str:
        return f"g{g:02d}r{r:02d}"

    root = topo.mcast_root(gid, exclude)
    g0 = int(root[1:3])
    live = sorted(set(members))
    parent: Dict[str, Optional[str]] = {root: None}
    # Structured fan-out: root → group-local routers directly (clique),
    # one global link into each remote member group, then that group's
    # entry router cliques out to its member routers.
    for m in live:
        j = m // hosts_per_router
        g, r = j // R, j % R
        router = rname(g, r)
        if g == g0:
            if router not in parent:
                parent[router] = root
        else:
            gw_local = rname(g0, (g - g0 - 1) % R)
            gw_remote = rname(g, (g0 - g - 1) % R)
            if gw_local not in parent:
                parent[gw_local] = root
            if gw_remote not in parent:
                parent[gw_remote] = gw_local
            if router not in parent:
                parent[router] = gw_remote
        h = host_name(m)
        if h not in parent:
            parent[h] = router
    tree = _tree_from_parents(parent)
    return _finish(topo, gid, "dragonfly", root, tree, live,
                   rail=0, disjointness="shared")


# --------------------------------------------------------------- multi-rail

def _plan_multi_rail(topo: Topology, gid: int, members: Sequence[int],
                     exclude: Optional[Set[str]]) -> MulticastPlan:
    dead = set(exclude or ())
    last_err: Optional[Exception] = None
    # Nezha-style striping: gid g lives in plane g % rails.  If that
    # plane cannot host the group (all its cores dead), fail over to the
    # next plane — planes only meet at hosts, so any one suffices.
    for attempt in range(topo.rails):
        rail = (gid + attempt) % topo.rails
        plane_block = {s for s in topo.switch_names
                       if topo.switch_rail.get(s, 0) != rail}
        # Plane-local group id: gids land on a plane with stride =
        # rails, so rotating roots by gid alone would alias whenever
        # the stride shares a factor with the plane's core count.
        pgid = gid // topo.rails
        try:
            tree = topo.mcast_tree(pgid, members, exclude=dead | plane_block)
            root = topo.mcast_root(pgid, exclude=dead | plane_block)
        except (TopologyError, ValueError) as err:
            last_err = err
            continue
        # A failed-over group squats on another plane's spines; its
        # root edges are no longer exclusively its own.
        disjointness = "exclusive-root" if attempt == 0 else "shared"
        return _finish(topo, gid, "multi_rail", root, tree, members,
                       rail=rail, disjointness=disjointness)
    raise PlanError(
        f"gid {gid}: no surviving plane can host the group "
        f"({topo.rails} rails tried): {last_err}")


# ---------------------------------------------------------------- dispatch

_PLANNERS = {
    "torus": _plan_torus,
    "dragonfly": _plan_dragonfly,
    "multi_rail": _plan_multi_rail,
}


def plan_mcast(
    topology: Topology,
    gid: int,
    members: Sequence[int],
    exclude: Optional[Set[str]] = None,
) -> MulticastPlan:
    """Plan one multicast group on any topology family.

    Fat-tree-family topologies reproduce the legacy spine-rooted tree
    bit-identically; the zoo families get structured trees with BFS
    degradation under switch death.  ``exclude`` names dead nodes
    (hosts and/or switches) — the repair path re-plans over survivors.
    """
    planner = _PLANNERS.get(topology.kind, _plan_fat_tree)
    return planner(topology, gid, members, exclude)
