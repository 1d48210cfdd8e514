"""Fig 2: the fat-tree traffic model.

The paper models a 1024-node cluster on a fat-tree of radix-32 switches
and compares the total data movement of a P2P Allgather against the
multicast composition.  The governing facts:

* Any P2P Allgather moves each rank's N-byte send buffer out of its NIC
  **P−1 times** (Insight 1) and into every other NIC once; counting both
  directions of the node boundary, ``2·N·(P−1)`` bytes per node.
* The multicast Allgather injects each buffer **once**; the fabric
  replicates it, and each link of the group's spanning tree carries any
  byte exactly once.  Per node boundary: ``N`` out + ``N·(P−1)`` in.

The ratio approaches 2 at scale — the paper's headline 2× saving.  This
module also counts *link traversals* inside the tree so the model can be
cross-checked against the packet-level simulator's switch telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["FatTreeTraffic", "TorusTraffic", "DragonflyTraffic", "MultiRailTraffic"]


@dataclass(frozen=True)
class FatTreeTraffic:
    """Traffic accounting on a two- or three-level fat-tree.

    Parameters
    ----------
    n_hosts:
        Cluster size P (paper Fig 2: 1024).
    radix:
        Switch port count (paper Fig 2: 32).
    """

    n_hosts: int = 1024
    radix: int = 32

    def __post_init__(self) -> None:
        if self.n_hosts < 2 or self.radix < 2:
            raise ValueError("need n_hosts >= 2 and radix >= 2")

    # ------------------------------------------------------------- topology

    @property
    def hosts_per_leaf(self) -> int:
        """Half the radix faces down in a full-bandwidth fat-tree."""
        return self.radix // 2

    @property
    def n_leaves(self) -> int:
        return -(-self.n_hosts // self.hosts_per_leaf)

    @property
    def levels(self) -> int:
        """Switch levels needed (1 = single switch, 2 = leaf-spine, ...)."""
        if self.n_hosts <= self.radix:
            return 1
        if self.n_hosts <= self.hosts_per_leaf * self.radix:
            return 2
        return 3

    def mcast_tree_links(self) -> int:
        """Links in a spanning tree covering every host: one per host plus
        one per switch beyond the root (tree edges = nodes − 1)."""
        if self.levels == 1:
            return self.n_hosts  # host links only
        if self.levels == 2:
            return self.n_hosts + self.n_leaves  # leaves each link up once
        # 3 levels: leaves→mid, mid→root; count switches conservatively.
        n_mid = -(-self.n_leaves // (self.radix // 2))
        return self.n_hosts + self.n_leaves + n_mid

    # ----------------------------------------------------- per-node boundary

    def p2p_node_bytes(self, send_bytes: int) -> Dict[str, int]:
        """Per-NIC bytes of any P2P Allgather (Insight 1 lower bound)."""
        p = self.n_hosts
        return {"tx": send_bytes * (p - 1), "rx": send_bytes * (p - 1)}

    def mcast_node_bytes(self, send_bytes: int) -> Dict[str, int]:
        """Per-NIC bytes of the multicast Allgather."""
        p = self.n_hosts
        return {"tx": send_bytes, "rx": send_bytes * (p - 1)}

    def savings_ratio(self) -> float:
        """Node-boundary traffic ratio P2P / multicast = 2 − 2/P."""
        p = self.n_hosts
        p2p = 2 * (p - 1)
        mc = 1 + (p - 1)
        return p2p / mc

    # -------------------------------------------------------- fabric totals

    def mcast_fabric_bytes(self, send_bytes: int) -> int:
        """Total bytes over all links: each sender's buffer crosses every
        spanning-tree link exactly once (the bandwidth-optimality claim)."""
        return self.n_hosts * send_bytes * self.mcast_tree_links()

    def p2p_fabric_bytes(self, send_bytes: int, avg_hops: float | None = None) -> int:
        """Total bytes over all links for a P2P Allgather.

        ``avg_hops`` is the mean link count of a P2P transfer; by default
        a topology-oblivious schedule on a fat-tree: most pairs cross
        ``2·levels`` links (up and down the tree).
        """
        if avg_hops is None:
            # Fraction of peers outside the own leaf ≈ 1 for large P.
            same_leaf = (self.hosts_per_leaf - 1) / (self.n_hosts - 1)
            avg_hops = same_leaf * 2 + (1 - same_leaf) * 2 * self.levels
        total_msgs = self.n_hosts * (self.n_hosts - 1)
        return int(total_msgs * send_bytes * avg_hops)

    def fabric_savings(self, send_bytes: int = 1) -> float:
        """Fabric-level traffic ratio P2P / multicast (Fig 2's curve)."""
        return self.p2p_fabric_bytes(send_bytes) / self.mcast_fabric_bytes(send_bytes)

    # -------------------------------------------------- completion-time floors

    def bcast_time_bound(self, nbytes: int, link_bandwidth: float) -> float:
        """Single-port floor: the root injects its N bytes exactly once."""
        return nbytes / link_bandwidth

    def allgather_time_bound(self, shard_bytes: int, link_bandwidth: float) -> float:
        """Each NIC must receive (P−1)·N through one access link."""
        return (self.n_hosts - 1) * shard_bytes / link_bandwidth


# --------------------------------------------------------------------------
# Topology-zoo analogues.  Each class answers the same two questions the
# fat-tree model does — how many links does one multicast spanning tree
# occupy, and what is the single-port completion-time floor — so the
# bench sweep can report achieved-vs-bound per family with one code path.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusTraffic:
    """Traffic accounting on a k-ary n-cube (direct network).

    Every router is also a host attachment point, so the spanning tree of
    a multicast group covering all hosts uses every host link plus a
    router-level spanning tree: ``P + (#routers − 1)`` links.
    """

    dims: tuple
    hosts_per_node: int = 1

    def __post_init__(self) -> None:
        if not self.dims or any(d < 2 for d in self.dims):
            raise ValueError("torus dims must all be >= 2")
        if self.hosts_per_node < 1:
            raise ValueError("hosts_per_node must be >= 1")

    @property
    def n_routers(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def n_hosts(self) -> int:
        return self.n_routers * self.hosts_per_node

    def mcast_tree_links(self) -> int:
        return self.n_hosts + self.n_routers - 1

    def avg_hops(self) -> float:
        """Mean e-cube route length: ~size/4 per dimension (ring), plus
        the two host links at the ends."""
        return 2 + sum(d / 4.0 for d in self.dims)

    def bcast_time_bound(self, nbytes: int, link_bandwidth: float) -> float:
        """Single-port store-and-forward floor: the root injects N once."""
        return nbytes / link_bandwidth

    def allgather_time_bound(self, shard_bytes: int, link_bandwidth: float) -> float:
        """Each NIC must receive (P−1)·N through one access link."""
        return (self.n_hosts - 1) * shard_bytes / link_bandwidth

    def mcast_fabric_bytes(self, send_bytes: int) -> int:
        return self.n_hosts * send_bytes * self.mcast_tree_links()

    def p2p_fabric_bytes(self, send_bytes: int) -> int:
        total_msgs = self.n_hosts * (self.n_hosts - 1)
        return int(total_msgs * send_bytes * self.avg_hops())

    def fabric_savings(self, send_bytes: int = 1) -> float:
        return self.p2p_fabric_bytes(send_bytes) / self.mcast_fabric_bytes(send_bytes)


@dataclass(frozen=True)
class DragonflyTraffic:
    """Traffic accounting on a fully-connected dragonfly.

    One multicast tree spans the root's group clique, one global link per
    remote group, and a clique tree inside every remote group:
    ``P + G·(R−1) + (G−1)`` links.
    """

    n_groups: int
    routers_per_group: int
    hosts_per_router: int = 1

    def __post_init__(self) -> None:
        if self.n_groups < 2 or self.routers_per_group < 1:
            raise ValueError("need n_groups >= 2 and routers_per_group >= 1")
        if self.n_groups > self.routers_per_group * self.routers_per_group + 1:
            raise ValueError("fully-connected dragonfly needs G <= R^2 + 1")
        if self.hosts_per_router < 1:
            raise ValueError("hosts_per_router must be >= 1")

    @property
    def n_hosts(self) -> int:
        return self.n_groups * self.routers_per_group * self.hosts_per_router

    def mcast_tree_links(self) -> int:
        g, r = self.n_groups, self.routers_per_group
        return self.n_hosts + g * (r - 1) + (g - 1)

    def avg_hops(self) -> float:
        """Minimal-route mean: local→global→local plus host links; pairs
        inside one group take the single clique hop."""
        p = self.n_hosts
        same_group = (self.routers_per_group * self.hosts_per_router - 1) / (p - 1)
        return 2 + same_group * 1 + (1 - same_group) * 3

    def bcast_time_bound(self, nbytes: int, link_bandwidth: float) -> float:
        return nbytes / link_bandwidth

    def allgather_time_bound(self, shard_bytes: int, link_bandwidth: float) -> float:
        return (self.n_hosts - 1) * shard_bytes / link_bandwidth

    def mcast_fabric_bytes(self, send_bytes: int) -> int:
        return self.n_hosts * send_bytes * self.mcast_tree_links()

    def p2p_fabric_bytes(self, send_bytes: int) -> int:
        total_msgs = self.n_hosts * (self.n_hosts - 1)
        return int(total_msgs * send_bytes * self.avg_hops())

    def fabric_savings(self, send_bytes: int = 1) -> float:
        return self.p2p_fabric_bytes(send_bytes) / self.mcast_fabric_bytes(send_bytes)


@dataclass(frozen=True)
class MultiRailTraffic:
    """Nezha-style rail striping over any single-rail base model.

    With chunks striped across ``n_rails`` parallel planes (subgroup g on
    plane ``g mod n_rails``), every per-plane figure scales by
    ``1/n_rails`` while per-NIC aggregate bandwidth scales by
    ``n_rails`` — the ideal-speedup bound the sweep measures against.
    """

    base: object  # FatTreeTraffic | TorusTraffic | DragonflyTraffic
    n_rails: int = 2

    def __post_init__(self) -> None:
        if self.n_rails < 1:
            raise ValueError("n_rails must be >= 1")

    @property
    def n_hosts(self) -> int:
        return self.base.n_hosts

    def mcast_tree_links(self) -> int:
        """Links occupied across all planes when every plane carries a
        1/n_rails stripe (host links counted once per plane used)."""
        return self.base.mcast_tree_links() * self.n_rails

    def bcast_time_bound(self, nbytes: int, link_bandwidth: float) -> float:
        """Each plane injects only its stripe: N/(n_rails·B)."""
        return nbytes / (self.n_rails * link_bandwidth)

    def allgather_time_bound(self, shard_bytes: int, link_bandwidth: float) -> float:
        return ((self.n_hosts - 1) * shard_bytes
                / (self.n_rails * link_bandwidth))
