"""Fabric partitioning for the conservative parallel-DES engine (since removed).

The parallel fast-forward engine shards per-host simulation state across
worker processes.  The shard boundary runs along *switch* edges: every
host lives in the shard of its attachment switch, host-bearing switches
are split into contiguous groups, and core/spine switches stay with the
coordinator (shard 0).  All traffic that crosses shards therefore rides
a switch-to-switch *cut edge*, whose propagation latency is the
conservative lookahead bound: a shard may safely advance its local clock
to ``t + lookahead`` before it can possibly observe an event injected at
``t`` on the far side of any cut.

The partition is planner-aware in the sense that it is computed from the
same :class:`~repro.net.topology.Topology` structures the multicast
planners consume (``attach_point``, ``switch_names``, ``core_switches``)
and respects family-canonical switch ordering, so fat-tree leaf groups,
torus rows and dragonfly groups each map to contiguous shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.topology import TopologyError, is_host

__all__ = ["FabricPartition", "PartitionError", "partition_fabric",
           "validate_partition"]


class PartitionError(TopologyError):
    """A requested partition is inconsistent with the fabric."""


@dataclass
class FabricPartition:
    """A sharding of one fabric for the parallel engine.

    ``switch_shard`` assigns every switch; ``host_shard[h]`` equals the
    shard of host *h*'s rail-0 attachment switch.  ``cut_edges`` lists
    the undirected switch-switch edges whose endpoints land in different
    shards; ``lookahead`` is the minimum propagation latency over them
    (``inf`` when nothing is cut — a single-shard partition).
    """

    n_shards: int
    switch_shard: Dict[str, int]
    host_shard: List[int]
    groups: List[List[str]] = field(default_factory=list)
    cut_edges: List[Tuple[str, str]] = field(default_factory=list)
    lookahead: float = float("inf")

    def hosts_of(self, shard: int) -> List[int]:
        return [h for h, s in enumerate(self.host_shard) if s == shard]


def partition_fabric(fabric, n_shards: int) -> FabricPartition:
    """Split *fabric* into at most *n_shards* shards along switch
    boundaries.

    Host-bearing switches, in family-canonical order
    (:attr:`Topology.switch_names`), are grouped into contiguous blocks
    balanced by attached-host count; switches with no hosts (spines,
    cores) belong to shard 0, which the coordinator owns.  The effective
    shard count is clamped to the number of host-bearing switches — a
    shard smaller than one switch would put a host-to-switch edge on the
    cut, and those are exactly the edges the engine keeps shard-local.
    """
    if n_shards < 1:
        raise PartitionError(f"n_shards must be >= 1, got {n_shards}")
    topo = fabric.topology
    hosts_by_switch: Dict[str, int] = {}
    for h in range(topo.n_hosts):
        sw = topo.attach_point(h, rail=0)
        hosts_by_switch[sw] = hosts_by_switch.get(sw, 0) + 1
    hosting = [s for s in topo.switch_names if s in hosts_by_switch]
    if not hosting:
        raise PartitionError("fabric has no host-bearing switches")
    k = min(n_shards, len(hosting))

    # Contiguous blocks over the family-canonical switch order, balanced
    # by host count: block i takes switches until it holds >= (i+1)/k of
    # all hosts.  Deterministic, and identical on every machine.
    switch_shard: Dict[str, int] = {}
    groups: List[List[str]] = [[] for _ in range(k)]
    total = topo.n_hosts
    taken = 0
    shard = 0
    for sw in hosting:
        if shard < k - 1 and taken * k >= (shard + 1) * total:
            shard += 1
        switch_shard[sw] = shard
        groups[shard].append(sw)
        taken += hosts_by_switch[sw]
    for sw in topo.switch_names:
        if sw not in switch_shard:  # spine/core: coordinator-owned
            switch_shard[sw] = 0
            groups[0].append(sw)

    host_shard = [switch_shard[topo.attach_point(h, rail=0)]
                  for h in range(topo.n_hosts)]

    cut_edges: List[Tuple[str, str]] = []
    lookahead = float("inf")
    for a, b in topo.edges:
        if is_host(a) or is_host(b):
            continue
        if switch_shard[a] != switch_shard[b]:
            cut_edges.append((a, b))
            for src, dst in ((a, b), (b, a)):
                ch = fabric.channels.get((src, dst))
                if ch is not None and ch.latency < lookahead:
                    lookahead = ch.latency

    part = FabricPartition(n_shards=k, switch_shard=switch_shard,
                           host_shard=host_shard, groups=groups,
                           cut_edges=cut_edges, lookahead=lookahead)
    validate_partition(fabric, part)
    return part


def validate_partition(fabric, part: FabricPartition) -> None:
    """Prove the invariants the parallel engine relies on."""
    topo = fabric.topology
    if part.n_shards < 1:
        raise PartitionError("partition has no shards")
    for sw in topo.switch_names:
        s = part.switch_shard.get(sw)
        if s is None or not 0 <= s < part.n_shards:
            raise PartitionError(f"switch {sw!r} has no valid shard")
    if len(part.host_shard) != topo.n_hosts:
        raise PartitionError("host_shard must cover every host")
    for h, s in enumerate(part.host_shard):
        attach = topo.attach_point(h, rail=0)
        if s != part.switch_shard[attach]:
            raise PartitionError(
                f"host {h} in shard {s} but its attachment {attach!r} is "
                f"in shard {part.switch_shard[attach]}"
            )
    seen = set()
    for group in part.groups:
        for sw in group:
            if sw in seen:
                raise PartitionError(f"switch {sw!r} in two groups")
            seen.add(sw)
    for a, b in part.cut_edges:
        if is_host(a) or is_host(b):
            raise PartitionError(
                f"cut edge ({a!r}, {b!r}) touches a host: host links must "
                "stay shard-local"
            )
        if part.switch_shard[a] == part.switch_shard[b]:
            raise PartitionError(f"edge ({a!r}, {b!r}) does not cross shards")
    if part.cut_edges and not part.lookahead > 0.0:
        raise PartitionError(
            "cut edges need positive propagation latency: a zero-latency "
            "cut gives the conservative engine no lookahead window"
        )
