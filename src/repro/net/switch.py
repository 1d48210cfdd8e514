"""Switch model: unicast forwarding, multicast replication, port counters.

A switch owns one egress :class:`~repro.net.link.Channel` per neighbor.  A
fixed forwarding delay after a packet arrives it either forwards along its
row of the fabric's unicast route table (``dst host → channel``) or, for
multicast, replicates the packet to every port that is part of the group's
spanning tree except the ingress port — exactly how IB switches flood a
multicast LID along the spanning tree installed by the subnet manager.
A replica is the packet object itself: packets are immutable (DESIGN.md
§6b).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.net.link import Channel
from repro.net.packet import MCAST_FLAG, Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Switch"]


class Switch:
    """A store-and-forward switch node."""

    def __init__(self, sim: "Simulator", name: str, forwarding_delay: float = 0.0) -> None:
        self.sim = sim
        self.name = name
        self.forwarding_delay = float(forwarding_delay)
        #: neighbor node name → egress channel toward that neighbor
        self.ports: Dict[str, Channel] = {}
        #: destination host id → egress channel (None: no route); the
        #: switch's row of the fabric's route table, set by the fabric
        self.route_row: List[Optional[Channel]] = []
        #: multicast gid → set of tree-adjacent neighbor names
        self.mcast_table: Dict[int, Set[str]] = {}
        #: ``(gid, ingress port)`` → egress channels (:meth:`_egress_of`);
        #: every write of ``mcast_table`` drops them
        self._egress: Dict[Tuple[int, Optional[str]], List[Channel]] = {}
        #: optional in-network-compute hook: ``fn(switch, packet, in_port)``
        #: consumes INC_REDUCE packets (installed by repro.net.inc)
        self.inc_handler = None
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        #: fail-stop flag: a dead switch black-holes everything it touches
        #: (set by Fabric.crash_switch, never cleared — crashes are permanent)
        self.dead = False
        self.packets_dropped_dead = 0

    # ----------------------------------------------------------------- wiring

    def add_port(self, channel: Channel) -> None:
        """Register the egress channel toward ``channel.dst_name``."""
        self.ports[channel.dst_name] = channel

    def install_mcast(self, gid: int, neighbors: Set[str]) -> None:
        missing = neighbors - set(self.ports)
        if missing:
            raise ValueError(f"{self.name}: no ports toward {sorted(missing)}")
        self.mcast_table[gid] = set(neighbors)
        self._egress.clear()

    def remove_mcast(self, gid: int) -> None:
        """Forget group *gid*'s tree: its packets are dropped as unroutable."""
        self.mcast_table.pop(gid, None)
        self._egress.clear()

    def _egress_of(self, gid: int, in_port: Optional[str]) -> Optional[List[Channel]]:
        """The channels a group-*gid* packet arriving on *in_port* is
        replicated to — every tree port but the ingress one, in name order,
        compiled on first use — or ``None`` when the group has no tree here."""
        egress = self._egress.get((gid, in_port))
        if egress is None:
            tree_ports = self.mcast_table.get(gid)
            if tree_ports is None:
                return None
            egress = [self.ports[n] for n in sorted(tree_ports) if n != in_port]
            self._egress[(gid, in_port)] = egress
        return egress

    # ------------------------------------------------------------------ data

    def arrive(self, packet: Packet, in_channel: Channel, at: float) -> None:
        """Hand-over from the delivering channel at transmit time: the
        packet reaches this switch at *at* and nothing about forwarding
        depends on what happens in between, so the hop costs one event.
        ``at + delay`` is the float expression :meth:`receive` would
        evaluate at the arrival instant."""
        self.sim.post_at(at + self.forwarding_delay, self._forward, packet,
                         in_channel.src_name)

    def receive(self, packet: Packet, in_channel: Optional[Channel]) -> None:
        """Entry point for a packet that is here *now* (direct injection;
        channels use :meth:`arrive`)."""
        in_port = in_channel.src_name if in_channel is not None else None
        if self.forwarding_delay > 0.0:
            self.sim.post_later(self.forwarding_delay, self._forward, packet, in_port)
        else:
            self._forward(packet, in_port)

    def _forward(self, packet: Packet, in_port: Optional[str]) -> None:
        if self.dead:
            self.packets_dropped_dead += 1
            return
        if self.inc_handler is not None and packet.kind is PacketKind.INC_REDUCE:
            self.inc_handler(self, packet, in_port)
            return
        dst = packet.dst
        if dst >= MCAST_FLAG:
            egress = self._egress_of(dst - MCAST_FLAG, in_port)
            if egress is None:
                self.packets_dropped_no_route += 1
                return
            for ch in egress:
                ch.transmit(packet)
            self.packets_forwarded += len(egress)
        else:
            row = self.route_row
            ch = row[dst] if 0 <= dst < len(row) else None
            if ch is None:
                self.packets_dropped_no_route += 1
                return
            ch.transmit(packet)
            self.packets_forwarded += 1

    # -------------------------------------------------------------- counters

    @property
    def egress_wire_bytes(self) -> int:
        """Total wire bytes transmitted out of all ports (PortXmitData)."""
        return sum(ch.bytes_sent for ch in self.ports.values())

    @property
    def egress_payload_bytes(self) -> int:
        return sum(ch.payload_bytes_sent for ch in self.ports.values())

    def reset_counters(self) -> None:
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        for ch in self.ports.values():
            ch.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} ports={len(self.ports)}>"
