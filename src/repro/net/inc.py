"""SHARP-like in-network-compute (INC) reduction substrate.

The paper's Appendix B pairs the multicast Allgather with an in-network
Reduce-Scatter (SHARP [48]): each host injects its contribution *once*;
switches along a spanning tree reduce element-wise; the tree root unicasts
each fully-reduced shard down to its owner.  The send path thus carries N
bytes per NIC and the receive path N/P — the mirror image of multicast
Allgather's bandwidth profile (Insight 2 / Fig 3).

:class:`IncTree` programs that behaviour onto the simulated switches:

* every member host sends INC_REDUCE packets (one per buffer segment,
  tagged with a PSN) toward the tree root,
* each switch accumulates float32 partial sums per (tree, PSN) until all
  of its tree children have contributed, then forwards one packet up,
* the root switch, once a PSN is complete, issues an RDMA-write-with-
  immediate toward the shard's owner host (placed via the symmetric rkey),
* in a switchless (back-to-back) topology the peer host acts as root.

Reduction is element-wise float32 addition, performed on real data so
results are verifiable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.packet import MCAST_FLAG, Packet, PacketKind
from repro.net.topology import host_id, host_name, is_host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric import Fabric

__all__ = ["IncTree"]

class _SwitchRole:
    """Per-switch view of the reduction tree."""

    __slots__ = ("parent", "children", "expected")

    def __init__(self, parent: Optional[str], children: List[str]) -> None:
        self.parent = parent
        self.children = children
        self.expected = len(children)


class IncTree:
    """One reduction tree over a member set.

    Parameters
    ----------
    fabric:
        The fabric to program.
    members:
        Host ids contributing to (and receiving shards of) the reduction.
    rkey:
        Symmetric rkey under which every member registered its shard
        receive buffer.
    qpn_of:
        ``host → qpn`` of the QP whose receive queue consumes the
        down-going write-with-immediate notifications.
    shard_bytes:
        Result bytes per member (the Reduce-Scatter output size), or —
        with ``root_host`` set — the full reduced-buffer size.
    segment_bytes:
        Wire segment size (≤ MTU, multiple of 4 for float32).
    root_host:
        When set, the tree runs a *rooted* Reduce instead of a
        Reduce-Scatter: every PSN's reduced segment is owned by this one
        member, which receives the whole ``shard_bytes`` result while the
        other members receive nothing.
    """

    def __init__(
        self,
        fabric: "Fabric",
        members: Sequence[int],
        rkey: int,
        qpn_of: Dict[int, int],
        shard_bytes: int,
        segment_bytes: int = 4096,
        root_host: Optional[int] = None,
    ) -> None:
        if shard_bytes % 4 or segment_bytes % 4:
            raise ValueError("shard and segment sizes must be float32-aligned")
        if segment_bytes > fabric.mtu:
            raise ValueError("segment_bytes must fit in the MTU")
        self.fabric = fabric
        self.members = sorted(set(int(m) for m in members))
        if len(self.members) < 2:
            raise ValueError("INC reduction needs at least 2 members")
        self.rkey = rkey
        self.qpn_of = dict(qpn_of)
        self.shard_bytes = shard_bytes
        self.segment_bytes = segment_bytes
        self.root_host = None if root_host is None else int(root_host)
        if self.root_host is not None and self.root_host not in self.members:
            raise ValueError(f"root host {self.root_host} is not a tree member")
        # Per-fabric allocation: the gid value picks the tree's spine root
        # (gid % n_cores), so a process-global counter would make event
        # schedules depend on how many trees *other* fabrics created.
        self.gid = next(fabric._inc_gid_counter)
        self.segs_per_shard = -(-shard_bytes // segment_bytes)
        self.n_segments = self.segs_per_shard * (
            1 if self.root_host is not None else len(self.members))
        #: (psn) → (count, accumulator) per switch name
        self._state: Dict[Tuple[str, int], Tuple[int, np.ndarray]] = {}
        self.roles: Dict[str, _SwitchRole] = {}
        self._host_root: Optional[int] = None  # back-to-back fallback
        self._build()

    # ----------------------------------------------------------------- build

    def _build(self) -> None:
        topo = self.fabric.topology
        self.fabric._inc_trees[self.gid] = self
        tree = topo.mcast_tree(self.gid, self.members)
        root = topo.mcast_root(self.gid)
        if root is None:
            # Switchless: designate the lowest member as the reducing host.
            self._host_root = self.members[0]
            return
        # Orient the tree away from the root switch.
        parent: Dict[str, Optional[str]] = {root: None}
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            node = order[i]
            i += 1
            for nxt in sorted(tree.get(node, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = node
                    order.append(nxt)
        for node in order:
            if is_host(node):
                continue
            children = [n for n in sorted(tree.get(node, ())) if parent.get(n) == node]
            self.roles[node] = _SwitchRole(parent[node], children)
            sw = self.fabric.switches[node]
            if sw.inc_handler is None:
                sw.inc_handler = self.fabric._dispatch_inc

    # ----------------------------------------------------------- host inject

    def owner_of(self, psn: int) -> Tuple[int, int]:
        """``psn → (owner host, byte offset within the owner's shard)``."""
        if not 0 <= psn < self.n_segments:
            raise IndexError(f"psn {psn} out of range ({self.n_segments})")
        if self.root_host is not None:
            return self.root_host, psn * self.segment_bytes
        shard, seg = divmod(psn, self.segs_per_shard)
        return self.members[shard], seg * self.segment_bytes

    def seg_len(self, psn: int) -> int:
        _, off = self.owner_of(psn)
        return min(self.segment_bytes, self.shard_bytes - off)

    def inject(self, host: int, psn: int, data: np.ndarray) -> float:
        """Send one contribution segment up the tree from *host*; returns
        the serialization finish time on the host's link."""
        pkt = Packet(
            src=host,
            dst=MCAST_FLAG + self.gid,
            kind=PacketKind.INC_REDUCE,
            payload=data,
            header_bytes=self.fabric.header_bytes,
            imm=psn,
        )
        nic = self.fabric.nic(host)
        if self._host_root is not None:
            # Back-to-back: the peer host reduces in software-on-NIC model.
            if host == self._host_root:
                self._accumulate(host_name(host), pkt)
                return self.fabric.sim.now
            return nic.egress.transmit(pkt)
        return nic.egress.transmit(pkt)

    # -------------------------------------------------------- switch compute

    def on_switch_packet(self, switch, packet: Packet, in_port: Optional[str]) -> None:
        self._accumulate(switch.name, packet)

    def _accumulate(self, node: str, packet: Packet) -> None:
        psn = packet.imm
        assert psn is not None
        key = (node, psn)
        payload = packet.payload.view(np.float32)
        count, acc = self._state.get(key, (0, None))
        acc = payload.copy() if acc is None else acc + payload
        count += 1
        role = self.roles.get(node)
        if role is not None:
            expected = self._expected_at(node)
        else:
            expected = len(self.members) - 1 + 1  # host root: all members
        if count < expected:
            self._state[key] = (count, acc)
            return
        self._state.pop(key, None)
        self._emit(node, psn, acc)

    def _expected_at(self, node: str) -> int:
        """Contributions a switch waits for: one per tree child subtree."""
        return max(self.roles[node].expected, 1)

    def _emit(self, node: str, psn: int, acc: np.ndarray) -> None:
        role = self.roles.get(node)
        if role is not None and role.parent is not None:
            up = Packet(
                src=-1,
                dst=MCAST_FLAG + self.gid,
                kind=PacketKind.INC_REDUCE,
                payload=acc.view(np.uint8),
                header_bytes=self.fabric.header_bytes,
                imm=psn,
            )
            self.fabric.switches[node].ports[role.parent].transmit(up)
            return
        # Tree root: ship the reduced shard segment to its owner.
        owner, off = self.owner_of(psn)
        down = Packet(
            src=-1,
            dst=owner,
            kind=PacketKind.RC_WRITE,
            payload=acc.view(np.uint8),
            header_bytes=self.fabric.header_bytes,
            imm=psn,
            qpn=self.qpn_of[owner],
            ctx={"remote_key": self.rkey, "remote_offset": off},
        )
        if role is not None:
            sw = self.fabric.switches[node]
            neighbor = sw.unicast_table[owner]
            sw.ports[neighbor].transmit(down)
        else:
            # Host root (back-to-back): deliver locally or over the wire.
            nic = self.fabric.nic(self._host_root)
            if owner == self._host_root:
                self.fabric.sim.call_later(self.fabric.loopback_delay,
                                           nic.receive, down, None)
            else:
                nic.egress.transmit(down)
