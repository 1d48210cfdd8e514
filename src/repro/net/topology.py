"""Topology construction and routing.

Node naming convention: host *i* is ``"h{i}"``; switches carry arbitrary
(zero-padded) names such as ``"leaf003"`` or ``"spine01"``.

Routing is *static and destination-based*, like an InfiniBand subnet
manager's LFT programming: among equal-cost next hops toward destination
``d`` a switch deterministically picks candidate ``d % n_candidates``
(sorted by name).  This spreads flows to distinct destinations across the
spine level — the property the paper's Fat-Tree arguments rely on — while
keeping every run reproducible.

Multicast groups get a spanning tree rooted at a core switch chosen from
the group id, again mirroring SM behaviour: the tree is the union of the
deterministic unicast paths from the root to every member.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "Topology",
    "TopologyError",
    "TopologySpec",
    "auto_spec",
    "host_name",
    "host_id",
    "is_host",
    "torus_coord",
    "torus_id",
]


class TopologyError(ValueError):
    """Typed error for malformed topology specs and invalid plan inputs.

    Subclasses :class:`ValueError` so callers that guarded on the old
    untyped raises keep working; new code should catch this type.
    """


def host_name(i: int) -> str:
    """Canonical node name for host *i*."""
    return f"h{i}"


def host_id(name: str) -> int:
    """Inverse of :func:`host_name`."""
    if not is_host(name):
        raise ValueError(f"{name!r} is not a host node")
    return int(name[1:])


def is_host(name: str) -> bool:
    return name.startswith("h") and name[1:].isdigit()


def torus_coord(rank: int, dims: Sequence[int]) -> List[int]:
    """Rank → d-dimensional torus coordinates (row-major mixed radix).

    The generalization of the Fugaku bine-tree coordinate math to any
    dimension count: the last dimension varies fastest.
    """
    coord = []
    for size in reversed(dims):
        coord.append(rank % size)
        rank //= size
    return coord[::-1]


def torus_id(coord: Sequence[int], dims: Sequence[int]) -> int:
    """Inverse of :func:`torus_coord`."""
    rank = 0
    for c, size in zip(coord, dims):
        rank = rank * size + c
    return rank


def _group_fields(sw_nbrs: List[List[int]], att: List[Tuple[int, ...]],
                  dead: Iterable[int]) -> Dict[Tuple[int, ...], List[int]]:
    """One multi-source BFS per attachment group over the switch graph
    (:meth:`Topology._fields`), every group a level at a time: a switch is
    reached at level *d* + 1 when it neighbours a level-*d* switch, one
    frontier-by-adjacency product per level.  The *dead* switches read -2
    and are never entered."""
    groups = list(dict.fromkeys(att))
    adj = np.zeros((len(sw_nbrs), len(sw_nbrs)), dtype=np.float32)
    for u, vs in enumerate(sw_nbrs):
        adj[u, vs] = 1.0
    dist = np.full((len(groups), len(sw_nbrs)), -1)
    dist[:, list(dead)] = -2
    frontier = np.zeros(dist.shape, dtype=bool)
    for g, group in enumerate(groups):
        frontier[g, list(group)] = True
    frontier &= dist == -1
    d = 1
    while frontier.any():
        dist[frontier] = d
        frontier = (frontier.astype(np.float32) @ adj > 0) & (dist == -1)
        d += 1
    return dict(zip(groups, dist.tolist()))


class Topology:
    """An undirected graph of hosts and switches with routing helpers.

    Parameters
    ----------
    n_hosts:
        Number of hosts; they are named ``h0 … h{n-1}``.
    edges:
        Undirected edges between node names.
    core_switches:
        Switches eligible as multicast tree roots (spines in a fat-tree).
        Defaults to all switches.
    kind:
        Human-readable tag ("leaf_spine", "star", ...).
    rails:
        Parallel network planes (Nezha-style multi-rail).  Every host
        must have exactly one attachment per rail; ``edge_rails`` names
        the rail of every edge when ``rails > 1``.
    edge_rails:
        Canonical edge key → rail id.  Required for ``rails > 1``;
        ignored (all rail 0) otherwise.
    params:
        Declarative construction parameters (the factory's arguments),
        carried so specs and tuning keys can round-trip the family.
    """

    def __init__(
        self,
        n_hosts: int,
        edges: Iterable[Tuple[str, str]],
        core_switches: Optional[Sequence[str]] = None,
        kind: str = "custom",
        rails: int = 1,
        edge_rails: Optional[Dict[Tuple[str, str], int]] = None,
        params: Optional[Dict[str, object]] = None,
    ) -> None:
        if n_hosts < 1:
            raise ValueError("need at least one host")
        if rails < 1:
            raise TopologyError("rails must be >= 1")
        self.n_hosts = n_hosts
        self.kind = kind
        self.rails = int(rails)
        self.params: Dict[str, object] = dict(params or {})
        self.adjacency: Dict[str, List[str]] = collections.defaultdict(list)
        self.edges: List[Tuple[str, str]] = []
        self.edge_rails: Dict[Tuple[str, str], int] = {}
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            self.edges.append(key)
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)
            if self.rails > 1:
                if edge_rails is None or key not in edge_rails:
                    raise TopologyError(
                        f"multi-rail topology must name a rail for edge {key}")
                self.edge_rails[key] = int(edge_rails[key])
            else:
                self.edge_rails[key] = 0
        for name in self.adjacency:
            self.adjacency[name].sort()
        self.hosts = [host_name(i) for i in range(n_hosts)]
        for h in self.hosts:
            if h not in self.adjacency:
                raise ValueError(f"host {h} is not connected")
        self.switch_names = sorted(n for n in self.adjacency if not is_host(n))
        self.core_switches = (
            sorted(core_switches) if core_switches is not None else list(self.switch_names)
        )
        #: switch name → rail (a plane-crossing switch is rejected above 1 rail)
        self.switch_rail: Dict[str, int] = {}
        for (a, b), rail in self.edge_rails.items():
            for end in (a, b):
                if is_host(end):
                    continue
                prev = self.switch_rail.setdefault(end, rail)
                if prev != rail:
                    raise TopologyError(
                        f"switch {end} has edges in rails {prev} and {rail}; "
                        "planes must be disjoint above the hosts")
        #: host id → per-rail attachment (index = rail)
        self._host_ports: Dict[int, List[str]] = {}
        for i, h in enumerate(self.hosts):
            ports: List[Optional[str]] = [None] * self.rails
            for nbr in self.adjacency[h]:
                key = (h, nbr) if h < nbr else (nbr, h)
                rail = self.edge_rails[key]
                if not 0 <= rail < self.rails:
                    raise TopologyError(f"edge {key} names rail {rail} of {self.rails}")
                if ports[rail] is not None:
                    raise TopologyError(f"host {h} has two attachments on rail {rail}")
                ports[rail] = nbr
            missing = [r for r, p in enumerate(ports) if p is None]
            if missing:
                raise ValueError(
                    f"host {h} must have exactly one attachment per rail "
                    f"(missing rail(s) {missing})")
            self._host_ports[i] = [p for p in ports if p is not None]
        self._dist_cache: Dict[int, Dict[str, int]] = {}
        self._fields_cache: Optional[tuple] = None

    # ------------------------------------------------------------- accessors

    def attach_point(self, host: int, rail: int = 0) -> str:
        """The node host *i* plugs into on *rail* (switch, or peer host in
        back-to-back)."""
        return self._host_ports[host][rail]

    def host_ports(self, host: int) -> List[str]:
        """Per-rail attachment points of host *i* (index = rail)."""
        return list(self._host_ports[host])

    def rail_of_edge(self, a: str, b: str) -> int:
        """The rail (plane) an edge belongs to (0 on single-rail fabrics)."""
        key = (a, b) if a < b else (b, a)
        return self.edge_rails[key]

    def rail_switches(self, rail: int) -> List[str]:
        """Sorted switch names of one plane."""
        return sorted(s for s in self.switch_names
                      if self.switch_rail.get(s, 0) == rail)

    def connected_rail(self, hosts: Sequence[int],
                       exclude: Optional[Set[str]] = None,
                       prefer: Optional[int] = None) -> Optional[int]:
        """Lowest rail whose surviving plane still connects every host in
        *hosts* (``prefer``, when given, is tried first so a still-healthy
        incumbent plane is kept).  A plane "connects" the hosts when each
        one's attachment switch is alive and all attachments are mutually
        reachable through that plane's surviving switches.  Returns None
        when no single plane spans them — a partition the caller must
        surface rather than route around."""
        exclude = set(exclude or ())
        order = list(range(self.rails))
        if prefer is not None and prefer in order:
            order.remove(prefer)
            order.insert(0, prefer)
        for rail in order:
            try:
                attach = {self.attach_point(h, rail) for h in hosts}
            except ValueError:
                continue
            if attach & exclude:
                continue
            if not attach:
                return rail  # degenerate (no hosts): any plane will do
            seen = set()
            queue = collections.deque([next(iter(attach))])
            seen.add(next(iter(attach)))
            while queue:
                node = queue.popleft()
                for nb in self.adjacency[node]:
                    if nb in seen or nb in exclude or is_host(nb):
                        continue
                    if self.switch_rail.get(nb, 0) != rail:
                        continue
                    seen.add(nb)
                    queue.append(nb)
            if attach <= seen:
                return rail
        return None

    def neighbors(self, name: str) -> List[str]:
        return self.adjacency[name]

    # --------------------------------------------------------------- routing

    def _distances_to(self, dst: int, exclude: Optional[Set[str]] = None) -> Dict[str, int]:
        """BFS hop counts from every node to host *dst* (cached when no
        exclusion set is given; repair-time reroutes pass ``exclude`` and
        are computed fresh — failures are rare, routing is hot)."""
        if not exclude:
            cached = self._dist_cache.get(dst)
            if cached is not None:
                return cached
        start = host_name(dst)
        dist = {start: 0}
        queue = collections.deque([start])
        while queue:
            node = queue.popleft()
            if node != start and is_host(node):
                # NICs do not forward: a host other than the destination
                # can terminate a path but never extend one.  On single
                # rails this is a no-op (a host's only neighbor is its
                # parent); on multi-rail it keeps planes disjoint.
                continue
            for nxt in self.adjacency[node]:
                if nxt not in dist and not (exclude and nxt in exclude):
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        if not exclude:
            self._dist_cache[dst] = dist
        return dist

    def next_hop(self, node: str, dst: int, exclude: Optional[Set[str]] = None) -> str:
        """Deterministic next hop from *node* toward host *dst*, avoiding
        any node named in ``exclude`` (dead switches, for reroutes)."""
        if node == host_name(dst):
            raise ValueError("already at destination")
        dist = self._distances_to(dst, exclude)
        if node not in dist:
            raise ValueError(f"{node} cannot reach h{dst}")
        d = dist[node]
        target = host_name(dst)
        # A host is only ever a valid next hop when it IS the destination
        # — forwarding through a peer NIC is not a thing.  Single-rail
        # fabrics never produce such candidates; multi-rail ones do
        # (both of a host's leaves sit at equal distance via that host).
        candidates = [
            n for n in self.adjacency[node]
            if dist.get(n, 1 << 30) == d - 1 and (n == target or not is_host(n))
        ]
        assert candidates, "BFS invariant violated"
        return candidates[dst % len(candidates)]

    def hops(self, src: int, dst: int) -> int:
        """``len(path(src, dst)) - 1`` on the intact graph: a direct link,
        else one hop onto a switch *src* plugs into plus that switch's
        distance in the field of *dst*'s attachment group
        (:meth:`_fields`)."""
        if src == dst:
            return 0
        if host_name(dst) in self.adjacency[host_name(src)]:
            return 1
        _, _, att, fields = self._fields()
        dist = fields[att[dst]]
        reach = [dist[s] for s in att[src] if dist[s] > 0]
        if not reach:
            raise ValueError(f"h{src} cannot reach h{dst}")
        return 1 + min(reach)

    def _fields(self, exclude: Optional[Set[str]] = None) -> tuple:
        """The switch distance fields: ``(switch names, each switch's switch
        neighbours in adjacency order — the order :meth:`next_hop`'s
        tie-break depends on —, each host's attachment switches,
        {attachment group: per switch its hop count to a host of the group,
        -1 if none}``).  Hosts do not forward, so every host behind the same
        attachment switches shares one field: one multi-source switch-graph
        BFS seeded at those switches with distance 1, exactly the switch
        distances a host-rooted BFS gives (the host itself is distance 0).
        The clean graph's fields are built once; with ``exclude`` they are
        built fresh around the named switches, which read -2."""
        if self._fields_cache is None:
            sw_id = {sw: i for i, sw in enumerate(self.switch_names)}
            sw_nbrs: List[List[int]] = [
                [sw_id[n] for n in self.adjacency[sw] if not is_host(n)]
                for sw in self.switch_names
            ]
            att = [tuple(sw_id[n] for n in self.adjacency[host_name(dst)]
                         if not is_host(n)) for dst in range(self.n_hosts)]
            self._fields_cache = (self.switch_names, sw_nbrs, att,
                                  _group_fields(sw_nbrs, att, ()))
        if not exclude:
            return self._fields_cache
        sw_names, sw_nbrs, att, _ = self._fields_cache
        dead = [i for i, sw in enumerate(sw_names) if sw in exclude]
        return sw_names, sw_nbrs, att, _group_fields(sw_nbrs, att, dead)

    def path(self, src: int, dst: int) -> List[str]:
        """Node names along the deterministic route from host src to dst."""
        node = host_name(src)
        out = [node]
        while node != host_name(dst):
            node = self.next_hop(node, dst)
            out.append(node)
        return out

    def next_hop_table(self, exclude: Optional[Set[str]] = None) -> np.ndarray:
        """Every switch's :meth:`next_hop` toward every host, as int32
        ``[switch, host]`` (switches in ``switch_names`` order): the next
        hop's position in ``adjacency[switch]``, -1 where there is none.

        With ``exclude``, routes detour around the named dead nodes: an
        excluded switch's row and an excluded host's column read -1, as does
        every destination a surviving switch can no longer reach.

        A route to host *dst* is a switch-graph route to an attachment
        switch of *dst* plus the host hop, so the build runs per attachment
        group over its distance field (:meth:`_fields`): a switch's
        candidates are its switch neighbours one hop closer, in adjacency
        order, and *dst* takes candidate ``dst % n_candidates`` — entry for
        entry the per-destination :meth:`next_hop`, in numpy over the
        group's switches and destinations.
        """
        sw_names, sw_nbrs, att, fields = self._fields(exclude)
        n_sw = len(sw_names)
        table = np.full((n_sw, self.n_hosts), -1, dtype=np.int32)
        # Per switch, its switch neighbours and their adjacency positions,
        # padded with a virtual neighbour n_sw whose distance matches no
        # candidate; and every host hop (the last hop of a route).
        width = max(map(len, sw_nbrs), default=0)
        nbr = np.full((n_sw, width), n_sw, dtype=np.intp)
        pos = np.zeros((n_sw, width), dtype=np.int32)
        last: List[Tuple[int, int, int]] = []
        switches = set(sw_names)
        for s, sw in enumerate(sw_names):
            adj = self.adjacency[sw]
            nbr[s, :len(sw_nbrs[s])] = sw_nbrs[s]
            pos[s, :len(sw_nbrs[s])] = [j for j, n in enumerate(adj) if n in switches]
            last += [(s, host_id(n), j) for j, n in enumerate(adj) if n not in switches]
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for dst, group in enumerate(att):
            groups.setdefault(group, []).append(dst)
        for group, dsts in groups.items():
            dist = np.array(fields[group] + [0])
            rows = np.flatnonzero(dist > 1)
            cand = dist[nbr[rows]] == dist[rows, None] - 1
            r, k = np.nonzero(cand)  # row by row, in adjacency order
            n_c = np.bincount(r, minlength=len(rows))
            assert n_c.all(), "BFS invariant violated"
            d = np.array(dsts)
            pick = (np.cumsum(n_c) - n_c)[:, None] + d % n_c[:, None]
            table[np.ix_(rows, d)] = pos[rows[r], k][pick]
        if last:
            s, h, j = np.array(last).T
            table[s, h] = j
        if exclude:
            table[[s for s, sw in enumerate(sw_names) if sw in exclude]] = -1
            table[:, [h for h in range(self.n_hosts) if host_name(h) in exclude]] = -1
        return table

    # ------------------------------------------------------------- multicast

    def mcast_root(self, gid: int, exclude: Optional[Set[str]] = None) -> Optional[str]:
        """Core switch acting as the spanning-tree root for group *gid*.

        With ``exclude``, dead cores are skipped and the root is picked
        from the survivors with the same ``gid``-based rotation — every
        surviving rank computes the same answer from the same dead set.
        """
        cores = self.core_switches
        if exclude:
            cores = [c for c in cores if c not in exclude]
        if not cores:
            return None
        return cores[gid % len(cores)]

    def mcast_tree(
        self,
        gid: int,
        members: Sequence[int],
        exclude: Optional[Set[str]] = None,
    ) -> Dict[str, Set[str]]:
        """Spanning-tree adjacency for a multicast group.

        Returns ``node → set(tree neighbors)`` covering all member hosts.
        Built as the union of deterministic unicast paths root→member, so
        the tree inherits the routing's spine choice determinism.  With
        ``exclude``, the tree avoids the named dead nodes entirely — the
        repair path for a switch-down reroute via a surviving spine.
        """
        members = sorted(set(members))
        if len(members) < 2:
            raise ValueError("a multicast group needs at least 2 members")
        tree: Dict[str, Set[str]] = collections.defaultdict(set)
        root = self.mcast_root(gid, exclude)
        if root is None:
            # Switchless topology (back-to-back): direct host-host edge.
            if len(members) != 2:
                raise ValueError("switchless multicast only supports 2 members")
            a, b = host_name(members[0]), host_name(members[1])
            if b not in self.adjacency[a]:
                raise ValueError("members are not directly connected")
            tree[a].add(b)
            tree[b].add(a)
            return dict(tree)
        # The repair path splices member branches onto whatever root the
        # rotation produced — verify it really is a surviving core before
        # trusting it (a stale/foreign root would silently build a tree
        # the subnet manager could never have programmed).
        if root not in self.core_switches:
            raise TopologyError(
                f"multicast root {root!r} is not a core switch "
                f"(cores: {self.core_switches[:4]}…)")
        if exclude and root in exclude:
            raise TopologyError(
                f"multicast root {root!r} is in the excluded (dead) set")
        # Build a BFS spanning tree from the root (deterministic neighbor
        # order, rotated by gid so distinct groups use distinct links), then
        # keep only the branches leading to members.  A per-destination
        # ECMP walk would not do: different members may pick different
        # equal-cost mid switches, and the union would contain cycles on
        # 3-level fat-trees.
        parent: Dict[str, Optional[str]] = {root: None}
        order = [root]
        i = 0
        while i < len(order):
            node = order[i]
            i += 1
            if is_host(node):
                continue  # hosts are tree leaves, never relay points
            neighbors = self.adjacency[node]
            rot = gid % len(neighbors) if neighbors else 0
            for nxt in neighbors[rot:] + neighbors[:rot]:
                if nxt not in parent and not (exclude and nxt in exclude):
                    parent[nxt] = node
                    order.append(nxt)
        for m in members:
            node = host_name(m)
            if node not in parent:
                raise ValueError(f"member h{m} unreachable from {root}")
            while parent[node] is not None:
                up = parent[node]
                tree[node].add(up)
                tree[up].add(node)
                node = up
        return dict(tree)

    # ------------------------------------------------------------ factories

    @classmethod
    def back_to_back(cls) -> "Topology":
        """Two hosts wired NIC-to-NIC (the paper's DPA testbed)."""
        return cls(2, [(host_name(0), host_name(1))], core_switches=[], kind="back_to_back")

    @classmethod
    def star(cls, n_hosts: int) -> "Topology":
        """All hosts on one switch (crossbar)."""
        edges = [(host_name(i), "sw000") for i in range(n_hosts)]
        return cls(n_hosts, edges, kind="star", params={"n_hosts": n_hosts})

    @classmethod
    def leaf_spine(
        cls, n_hosts: int, n_leaf: int, n_spine: int, hosts_per_leaf: Optional[int] = None
    ) -> "Topology":
        """Two-level fat-tree: every leaf connects to every spine.

        Hosts fill leaves sequentially (``hosts_per_leaf`` each, default
        ``ceil(n_hosts / n_leaf)``).
        """
        if hosts_per_leaf is None:
            hosts_per_leaf = -(-n_hosts // n_leaf)
        if n_leaf * hosts_per_leaf < n_hosts:
            raise ValueError("not enough leaf capacity for hosts")
        edges: List[Tuple[str, str]] = []
        leaves = [f"leaf{i:03d}" for i in range(n_leaf)]
        spines = [f"spine{i:03d}" for i in range(n_spine)]
        for i in range(n_hosts):
            edges.append((host_name(i), leaves[i // hosts_per_leaf]))
        for leaf in leaves:
            for spine in spines:
                edges.append((leaf, spine))
        return cls(n_hosts, edges, core_switches=spines, kind="leaf_spine",
                   params={"n_hosts": n_hosts, "n_leaf": n_leaf,
                           "n_spine": n_spine, "hosts_per_leaf": hosts_per_leaf})

    @classmethod
    def testbed_188(cls) -> "Topology":
        """The paper's UCC testbed: 188 hosts, 18 switches (12 leaf + 6
        spine, 16 hosts per leaf — consistent with 36-port SX6036)."""
        return cls.leaf_spine(188, n_leaf=12, n_spine=6, hosts_per_leaf=16)

    @classmethod
    def fat_tree3(
        cls,
        n_hosts: int,
        n_leaf: int,
        n_mid: int,
        n_core: int,
        hosts_per_leaf: Optional[int] = None,
        mid_group: Optional[int] = None,
    ) -> "Topology":
        """Three-level fat-tree (the Fig 2 scale shape, e.g. 1024 nodes on
        radix-32 switches).

        Leaves are partitioned into pods; each pod connects to a group of
        ``mid_group`` middle switches (default: evenly split); every middle
        switch connects to every core switch.  Multicast trees root at the
        core level.
        """
        if hosts_per_leaf is None:
            hosts_per_leaf = -(-n_hosts // n_leaf)
        if n_leaf * hosts_per_leaf < n_hosts:
            raise ValueError("not enough leaf capacity for hosts")
        if mid_group is None:
            mid_group = max(1, n_mid // max(1, n_leaf // 4))
        leaves = [f"leaf{i:03d}" for i in range(n_leaf)]
        mids = [f"mid{i:03d}" for i in range(n_mid)]
        cores = [f"core{i:03d}" for i in range(n_core)]
        edges: List[Tuple[str, str]] = []
        for i in range(n_hosts):
            edges.append((host_name(i), leaves[i // hosts_per_leaf]))
        # Pods: contiguous groups of leaves share a group of mid switches.
        n_groups = max(1, n_mid // mid_group)
        for li, leaf in enumerate(leaves):
            group = (li * n_groups // n_leaf) % n_groups
            for m in range(mid_group):
                edges.append((leaf, mids[(group * mid_group + m) % n_mid]))
        for mid in mids:
            for core in cores:
                edges.append((mid, core))
        return cls(n_hosts, edges, core_switches=cores, kind="fat_tree3",
                   params={"n_hosts": n_hosts, "n_leaf": n_leaf, "n_mid": n_mid,
                           "n_core": n_core, "hosts_per_leaf": hosts_per_leaf,
                           "mid_group": mid_group})

    # ------------------------------------------------- topology zoo families

    @classmethod
    def torus(cls, dims: Sequence[int], hosts_per_node: int = 1) -> "Topology":
        """k-ary n-cube: one router per coordinate, wrap-around rings in
        every dimension, ``hosts_per_node`` hosts hanging off each router.

        Node ids follow the row-major mixed-radix coordinate math of the
        Fugaku bine-tree construction (:func:`torus_coord` /
        :func:`torus_id`): host ``i`` lives on router ``i // hosts_per_node``
        and the last dimension varies fastest.
        """
        dims = [int(d) for d in dims]
        if not dims or any(d < 1 for d in dims):
            raise TopologyError(f"torus dims must be positive, got {dims}")
        if hosts_per_node < 1:
            raise TopologyError("hosts_per_node must be >= 1")
        n_routers = 1
        for d in dims:
            n_routers *= d
        if n_routers < 2:
            raise TopologyError("torus needs at least 2 routers")
        width = max(2, max(len(str(d - 1)) for d in dims))

        def rname(rid: int) -> str:
            coord = torus_coord(rid, dims)
            return "t" + "-".join(f"{c:0{width}d}" for c in coord)

        n_hosts = n_routers * hosts_per_node
        edges: List[Tuple[str, str]] = []
        for i in range(n_hosts):
            edges.append((host_name(i), rname(i // hosts_per_node)))
        for rid in range(n_routers):
            coord = torus_coord(rid, dims)
            for axis, size in enumerate(dims):
                if size == 1:
                    continue
                nxt = list(coord)
                nxt[axis] = (coord[axis] + 1) % size
                edges.append((rname(rid), rname(torus_id(nxt, dims))))
        return cls(n_hosts, edges, kind="torus",
                   params={"dims": dims, "hosts_per_node": hosts_per_node})

    @classmethod
    def dragonfly(cls, n_groups: int, routers_per_group: int,
                  hosts_per_router: int = 1) -> "Topology":
        """Dragonfly: all-to-all router cliques inside each group, one
        global link per group pair.

        The global link for pair ``(a, b)`` lands on router
        ``(b - a - 1) % R`` in group *a* (and symmetrically in *b*), the
        usual round-robin port assignment — every router carries
        ``ceil((G-1)/R)`` global links.
        """
        if n_groups < 1 or routers_per_group < 1 or hosts_per_router < 1:
            raise TopologyError("dragonfly shape parameters must be >= 1")
        if n_groups * routers_per_group < 2:
            raise TopologyError("dragonfly needs at least 2 routers")

        def rname(g: int, r: int) -> str:
            return f"g{g:02d}r{r:02d}"

        n_hosts = n_groups * routers_per_group * hosts_per_router
        edges: List[Tuple[str, str]] = []
        for i in range(n_hosts):
            j = i // hosts_per_router
            edges.append((host_name(i),
                          rname(j // routers_per_group, j % routers_per_group)))
        for g in range(n_groups):
            for r1 in range(routers_per_group):
                for r2 in range(r1 + 1, routers_per_group):
                    edges.append((rname(g, r1), rname(g, r2)))
        for a in range(n_groups):
            for b in range(a + 1, n_groups):
                ra = (b - a - 1) % routers_per_group
                rb = (a - b - 1) % routers_per_group
                edges.append((rname(a, ra), rname(b, rb)))
        return cls(n_hosts, edges, kind="dragonfly",
                   params={"n_groups": n_groups,
                           "routers_per_group": routers_per_group,
                           "hosts_per_router": hosts_per_router})

    @classmethod
    def multi_rail(cls, base: "Topology", n_rails: int) -> "Topology":
        """Wrap *base* into ``n_rails`` parallel planes (Nezha-style).

        Every switch and switch-level link of the base topology is
        replicated once per rail (rail *r*'s copy of switch ``s`` is
        ``s.r{r}``); every host gets one attachment per rail, plugged
        into its base leaf's per-rail copy.  Planes only meet at the
        hosts — the planner stripes multicast groups across them.
        """
        if n_rails < 1:
            raise TopologyError("n_rails must be >= 1")
        if base.rails != 1:
            raise TopologyError("multi_rail wraps a single-rail base topology")
        if not base.switch_names:
            raise TopologyError("multi_rail needs a switched base topology")

        def sname(name: str, rail: int) -> str:
            return f"{name}.r{rail}"

        edges: List[Tuple[str, str]] = []
        edge_rails: Dict[Tuple[str, str], int] = {}
        for r in range(n_rails):
            for a, b in base.edges:
                ra = a if is_host(a) else sname(a, r)
                rb = b if is_host(b) else sname(b, r)
                key = (ra, rb) if ra < rb else (rb, ra)
                edges.append(key)
                edge_rails[key] = r
        cores = [sname(c, r) for r in range(n_rails) for c in base.core_switches]
        return cls(base.n_hosts, edges, core_switches=cores, kind="multi_rail",
                   rails=n_rails, edge_rails=edge_rails,
                   params={"base_kind": base.kind,
                           "base_params": dict(base.params),
                           "n_rails": n_rails})


@dataclass
class TopologySpec:
    """Declarative topology description (handy for experiment configs).

    ``kind``/``params`` round-trip through the tuning cache key for every
    family (see :meth:`key`); :meth:`build` raises a typed
    :class:`TopologyError` — never a bare :class:`KeyError` — on missing
    or invalid parameters.
    """

    kind: str = "star"
    n_hosts: int = 2
    params: Dict[str, object] = field(default_factory=dict)

    KINDS = ("star", "back_to_back", "leaf_spine", "testbed_188",
             "fat_tree3", "torus", "dragonfly", "multi_rail")

    def _param(self, name: str):
        try:
            return self.params[name]
        except KeyError:
            raise TopologyError(
                f"topology kind {self.kind!r} requires param {name!r} "
                f"(got {sorted(self.params)})") from None

    def build(self) -> Topology:
        try:
            return self._build()
        except TopologyError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise TopologyError(
                f"invalid params for topology kind {self.kind!r}: {err}") from err

    def _build(self) -> Topology:
        if self.kind == "star":
            return Topology.star(self.n_hosts)
        if self.kind == "back_to_back":
            return Topology.back_to_back()
        if self.kind == "leaf_spine":
            # Unsized, a leaf-spine takes 16 hosts per leaf (at least two
            # leaves) and half as many spines (at least two).
            n_leaf = self.params.get("n_leaf") or max(2, -(-self.n_hosts // 16))
            return Topology.leaf_spine(
                self.n_hosts,
                n_leaf=n_leaf,
                n_spine=self.params.get("n_spine") or max(2, n_leaf // 2),
                hosts_per_leaf=self.params.get("hosts_per_leaf"),
            )
        if self.kind == "testbed_188":
            return Topology.testbed_188()
        if self.kind == "fat_tree3":
            return Topology.fat_tree3(
                self.n_hosts,
                n_leaf=self._param("n_leaf"),
                n_mid=self._param("n_mid"),
                n_core=self._param("n_core"),
                hosts_per_leaf=self.params.get("hosts_per_leaf"),
                mid_group=self.params.get("mid_group"),
            )
        if self.kind == "torus":
            topo = Topology.torus(
                self._param("dims"),
                hosts_per_node=int(self.params.get("hosts_per_node", 1)),
            )
            if topo.n_hosts != self.n_hosts:
                raise TopologyError(
                    f"torus dims {self.params.get('dims')} give "
                    f"{topo.n_hosts} hosts, spec says {self.n_hosts}")
            return topo
        if self.kind == "dragonfly":
            topo = Topology.dragonfly(
                self._param("n_groups"),
                self._param("routers_per_group"),
                hosts_per_router=int(self.params.get("hosts_per_router", 1)),
            )
            if topo.n_hosts != self.n_hosts:
                raise TopologyError(
                    f"dragonfly shape gives {topo.n_hosts} hosts, "
                    f"spec says {self.n_hosts}")
            return topo
        if self.kind == "multi_rail":
            base = TopologySpec(
                kind=str(self._param("base_kind")),
                n_hosts=self.n_hosts,
                params=dict(self.params.get("base_params", {})),
            ).build()
            return Topology.multi_rail(base, int(self._param("n_rails")))
        raise TopologyError(f"unknown topology kind {self.kind!r}")

    def key(self) -> Dict[str, object]:
        """Canonical JSON-safe form for tuning cache keys: the family and
        its parameters, lists normalized so digests are order-stable.

        Parameters canonicalize *through the factory*: the spec is built
        and the constructed topology's fully-defaulted ``params`` are
        emitted, so equivalent spellings (``hosts_per_leaf`` omitted vs
        explicit, dims as tuple vs list) share one digest — and malformed
        params fail here, at key time, as a :class:`TopologyError`.
        """
        def norm(v):
            if isinstance(v, dict):
                return {str(k): norm(x) for k, x in sorted(v.items())}
            if isinstance(v, (list, tuple)):
                return [norm(x) for x in v]
            return v
        params = self.params
        if params or self.kind in ("torus", "dragonfly", "multi_rail"):
            params = dict(self.build().params)
        return {"kind": self.kind, "n_hosts": self.n_hosts,
                "params": norm(params)}


def auto_spec(n_hosts: int) -> TopologySpec:
    """The shape ``topo="auto"`` stands for at *n_hosts*: a star up to 8
    hosts, the paper's testbed at 188, an unsized leaf-spine otherwise."""
    if n_hosts == 188:
        return TopologySpec("testbed_188", n_hosts)
    return TopologySpec("star" if n_hosts <= 8 else "leaf_spine", n_hosts)
