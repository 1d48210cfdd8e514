"""MulticastPlan: the planner's output contract.

A plan is everything the fabric/SM layer needs to program one multicast
group: the root, the spanning-tree adjacency, which rail (plane) the
group lives in and the per-edge rail assignment.  The validator proves
the structural invariants every consumer relies on — spanning,
tree-ness, plane purity, hosts as leaves — plus the cross-plan link-load
bound the paper's edge-disjoint chain argument needs.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..topology import Topology, TopologyError, host_name, is_host

__all__ = ["MulticastPlan", "PlanError", "validate_plan", "validate_disjointness"]


class PlanError(TopologyError):
    """A plan failed structural validation (subclass of TopologyError)."""


def _edge_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class MulticastPlan:
    """One multicast group's programmed shape.

    Attributes
    ----------
    gid:
        The multicast group id the plan serves.
    kind:
        Planner family that produced it ("fat_tree", "torus",
        "dragonfly", "multi_rail").
    root:
        Tree root (a switch, or a host on switchless fabrics).
    tree:
        ``node → set(tree neighbors)`` — the exact adjacency the switch
        mcast tables are programmed from.
    members:
        Sorted member host ids.
    rail:
        The plane the whole tree lives in (0 on single-rail fabrics).
    edge_rails:
        Canonical tree-edge key → rail.  Single-plane plans map every
        edge to ``rail``; kept explicit so validators and multi-plan
        overlays never re-derive it from the topology.
    disjointness:
        Declared sharing contract: ``"exclusive-root"`` (root-incident
        edges belong to this gid alone — the fat-tree spine argument) or
        ``"shared"`` (trees of different gids may overlap; per-link load
        is bounded by the validator instead).
    """

    gid: int
    kind: str
    root: str
    tree: Dict[str, Set[str]]
    members: Tuple[int, ...]
    rail: int = 0
    edge_rails: Dict[Tuple[str, str], int] = field(default_factory=dict)
    disjointness: str = "shared"

    # ---------------------------------------------------------------- views

    def tree_edges(self) -> List[Tuple[str, str]]:
        """Canonical (sorted-pair) tree edge list."""
        out: Set[Tuple[str, str]] = set()
        for node, nbrs in self.tree.items():
            for nbr in nbrs:
                out.add(_edge_key(node, nbr))
        return sorted(out)

    def tree_nodes(self) -> List[str]:
        return sorted(self.tree)

    def describe(self) -> str:
        return (f"plan(gid={self.gid}, kind={self.kind}, root={self.root}, "
                f"rail={self.rail}, members={len(self.members)}, "
                f"edges={len(self.tree_edges())}, {self.disjointness})")


def validate_plan(
    topology: Topology,
    plan: MulticastPlan,
    max_link_load: int = 1,
) -> None:
    """Prove a plan's structural invariants; raise :class:`PlanError`.

    Checks: every member host is spanned; the adjacency is a single
    connected tree (``|E| = |V| - 1``); every tree edge exists in the
    topology; every edge's rail matches both the topology's assignment
    and the plan's declared rail (plane purity); hosts are leaves; the
    per-link load of this tree never exceeds ``max_link_load`` (trivially
    1 for a tree, kept explicit for overlay checks).
    """
    tree = plan.tree
    if not tree:
        raise PlanError(f"gid {plan.gid}: empty tree")
    if plan.root not in tree:
        raise PlanError(f"gid {plan.gid}: root {plan.root!r} not in tree")

    # Symmetry + edge existence + rail purity.
    edges = plan.tree_edges()
    for a, b in edges:
        if b not in tree.get(a, ()) or a not in tree.get(b, ()):
            raise PlanError(f"gid {plan.gid}: asymmetric tree edge {(a, b)}")
        key = _edge_key(a, b)
        if key not in topology.edge_rails:
            raise PlanError(f"gid {plan.gid}: tree edge {key} not in topology")
        topo_rail = topology.edge_rails[key]
        plan_rail = plan.edge_rails.get(key, plan.rail)
        if topo_rail != plan_rail:
            raise PlanError(
                f"gid {plan.gid}: edge {key} is rail {topo_rail} in the "
                f"topology but rail {plan_rail} in the plan")
        if topo_rail != plan.rail:
            raise PlanError(
                f"gid {plan.gid}: edge {key} (rail {topo_rail}) leaks out "
                f"of plane {plan.rail}")

    # Tree-ness: connected from the root, |E| = |V| - 1.
    nodes = set(tree)
    if len(edges) != len(nodes) - 1:
        raise PlanError(
            f"gid {plan.gid}: {len(edges)} edges over {len(nodes)} nodes "
            "is not a tree")
    seen = {plan.root}
    queue = collections.deque([plan.root])
    while queue:
        node = queue.popleft()
        for nbr in tree[node]:
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    if seen != nodes:
        raise PlanError(
            f"gid {plan.gid}: tree is disconnected "
            f"({len(nodes) - len(seen)} nodes unreachable from the root)")

    # Spanning + hosts are leaves (never relay points).
    member_names = {host_name(m) for m in plan.members}
    missing = member_names - nodes
    if missing:
        raise PlanError(f"gid {plan.gid}: members not spanned: {sorted(missing)}")
    switchless = not topology.switch_names
    for node in nodes:
        if is_host(node) and not switchless and len(tree[node]) != 1:
            raise PlanError(
                f"gid {plan.gid}: host {node} has tree degree "
                f"{len(tree[node])}; hosts must be leaves")

    # Per-link load within the plan (a tree uses each link once; the
    # bound matters for overlays, but catch duplicates defensively).
    load = collections.Counter(edges)
    worst = max(load.values())
    if worst > max_link_load:
        raise PlanError(
            f"gid {plan.gid}: link load {worst} exceeds bound {max_link_load}")


def validate_disjointness(
    topology: Topology,
    plans: Sequence[MulticastPlan],
    max_link_load: Optional[int] = None,
) -> Dict[Tuple[str, str], int]:
    """Cross-plan overlay check; returns the per-link load map.

    Plans declaring ``"exclusive-root"`` must not share their
    root-incident edges with any other plan (the fat-tree spine-chain
    edge-disjointness the paper's bandwidth argument rests on).  With
    ``max_link_load`` set, the summed per-link load of all plans must
    stay within it.
    """
    load: collections.Counter = collections.Counter()
    owners: Dict[Tuple[str, str], List[int]] = collections.defaultdict(list)
    for plan in plans:
        for key in plan.tree_edges():
            load[key] += 1
            owners[key].append(plan.gid)
    for plan in plans:
        if plan.disjointness != "exclusive-root":
            continue
        for nbr in plan.tree[plan.root]:
            key = _edge_key(plan.root, nbr)
            if len(owners[key]) > 1:
                raise PlanError(
                    f"root edge {key} of gid {plan.gid} is shared by gids "
                    f"{owners[key]} despite exclusive-root declaration")
    if max_link_load is not None and load:
        key, worst = load.most_common(1)[0]
        if worst > max_link_load:
            raise PlanError(
                f"link {key} carries {worst} trees, bound is {max_link_load}")
    return dict(load)
