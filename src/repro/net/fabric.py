"""Fabric: topology + switches + links + NICs, wired and runnable.

The :class:`Fabric` is the deployment unit protocol code runs against::

    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 2, 2), link_bandwidth=gbit_per_s(56))
    nic = fabric.nic(3)
    qp = nic.create_qp(Transport.UD)
    gid = fabric.create_mcast_group([0, 1, 2, 3])
    qp.attach_mcast(gid)

It also owns the **switch telemetry** (per-port byte counters) that the
paper's Figure 12 experiment scrapes, and the fault-injection knobs used by
the reliability tests.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.faults import CrashSpec, StragglerSpec
from repro.net.link import Channel, FaultSpec
from repro.net.nic import Nic
from repro.net.packet import MCAST_FLAG
from repro.net.plan import MulticastPlan, plan_mcast
from repro.net.switch import Switch
from repro.net.topology import Topology, host_id, host_name, is_host
from repro.sim.random import RandomStreams
from repro.units import US, gbit_per_s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Fabric", "McastGroup"]


@dataclass
class McastGroup:
    """Bookkeeping for one multicast group."""

    gid: int
    members: Set[int]
    tree: Dict[str, Set[str]]
    #: the planner output the tree was programmed from (root, rail, chain
    #: hints); ``tree`` stays the source the switches were programmed with
    plan: Optional[MulticastPlan] = None

    @property
    def rail(self) -> int:
        return self.plan.rail if self.plan is not None else 0


class Fabric:
    """A runnable network instance.

    Parameters
    ----------
    sim:
        The simulator everything schedules on.
    topology:
        Node/edge structure and routing (see :class:`Topology`).
    link_bandwidth:
        Bytes/second for every channel (per direction).
    link_latency:
        Per-hop propagation delay in seconds.
    mtu:
        Maximum datagram payload (IB: up to 4096).
    header_bytes:
        Per-packet wire overhead.
    switch_delay:
        Per-switch forwarding delay.
    streams:
        Named RNG streams for fault injection / jitter.
    default_fault:
        Fault spec cloned onto every channel (fabric-wide BER / jitter).
    reference:
        Run the reference engine: every packet and every receive CQE is
        its own event, and no fold engages.  The default ``False`` is the
        production engine — packet trains, look-ahead delivery, CQE
        batches and the folds — with virtual time, traffic and payloads
        identical to the reference; only wall-clock differs (DESIGN.md
        "Two paths, one semantics").
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        link_bandwidth: float = gbit_per_s(56),
        link_latency: float = 1.0 * US,
        mtu: int = 4096,
        header_bytes: int = 64,
        switch_delay: float = 0.1 * US,
        streams: Optional[RandomStreams] = None,
        default_fault: Optional[FaultSpec] = None,
        reference: bool = False,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.link_bandwidth = float(link_bandwidth)
        self.link_latency = float(link_latency)
        self.mtu = int(mtu)
        self.header_bytes = int(header_bytes)
        self.loopback_delay = 0.5 * US
        self.streams = streams or RandomStreams(seed=0)
        self._default_fault = default_fault
        self.reference = bool(reference)

        self.nics: Dict[int, Nic] = {}
        self.switches: Dict[str, Switch] = {}
        self.channels: Dict[Tuple[str, str], Channel] = {}
        self._stragglers: Dict[int, StragglerSpec] = {}
        #: bumped on every fault/straggler/crash mutation.  The vectorized
        #: fast-forward hoists its O(P) per-phase eligibility scans to
        #: session start and re-checks only this counter per phase: any
        #: mid-run fault injection invalidates the cached verdicts.
        self.fault_epoch = 0
        # --- fail-stop state (crashes are permanent; sets only grow) ---
        self.dead_hosts: Set[int] = set()
        self.dead_switches: Set[str] = set()
        self.dead_links: Set[Tuple[str, str]] = set()
        #: crash specs armed but not yet executed — the flow fast-forward
        #: layer refuses to fold while any fail-stop is pending, since a
        #: crash landing mid-fold would invalidate the analytic advance
        self.pending_crashes: Set[CrashSpec] = set()
        self._crash_listeners: list = []
        #: callbacks invoked after every SM failure sweep (routes and
        #: multicast trees already repaired) — the communicator hooks its
        #: control-plane/QP rail migration here, mirroring IB's SM-assisted
        #: automatic path migration
        self.sweep_listeners: list = []
        #: delay between a switch/link hard-down and the subnet manager's
        #: automatic re-sweep (reroute + multicast tree rebuild).  Host
        #: crashes do not trigger a sweep: routes through a dead host's
        #: leaf port are harmless, and the collective layer owns host
        #: membership repair.
        self.sm_reroute_delay = 1e-3
        self.mcast_groups: Dict[int, McastGroup] = {}
        self._gid_counter = itertools.count(0)
        self._inc_gid_counter = itertools.count(1 << 16)  # disjoint from mcast gids
        self._inc_trees: Dict[int, object] = {}
        #: INC passes folded into closed form (DESIGN.md §6j), passes that
        #: ran at packet level by gate reason, and the folds still in flight
        self.inc_folds = 0
        self.inc_fold_misses: Dict[str, int] = {}
        self._inc_live: list = []
        #: callbacks run at every fault_epoch bump, before the change (a
        #: communicator's control fold hands its unserved tokens back)
        self.epoch_listeners: list = []

        # --- build nodes ---
        #: host → per-rail NICs (index = rail); ``nics[h]`` stays the
        #: rail-0 NIC so every single-rail caller is untouched.  Rail
        #: NICs of one host share its Memory: an MR registered once is
        #: addressable from any plane, as with real multi-port HCAs.
        self.rail_nics: Dict[int, list] = {}
        for h in range(topology.n_hosts):
            nic0 = Nic(sim, h, self, mtu=mtu, header_bytes=header_bytes)
            per_rail = [nic0]
            for r in range(1, topology.rails):
                per_rail.append(Nic(sim, h, self, mtu=mtu,
                                    header_bytes=header_bytes,
                                    memory=nic0.memory, rail=r))
            self.nics[h] = nic0
            self.rail_nics[h] = per_rail
        for name in topology.switch_names:
            self.switches[name] = Switch(sim, name, forwarding_delay=switch_delay)

        # --- build channels (both directions per edge) ---
        for a, b in topology.edges:
            self._make_channel(a, b)
            self._make_channel(b, a)

        # --- install unicast routing ---
        for sw_name, table in topology.unicast_tables().items():
            self.switches[sw_name].install_unicast_table(table)

    # ------------------------------------------------------------- wiring

    def _node(self, name: str, rail: int = 0):
        if is_host(name):
            return self.rail_nics[host_id(name)][rail]
        return self.switches[name]

    def _make_channel(self, src: str, dst: str) -> None:
        rail = self.topology.rail_of_edge(src, dst)
        ch = Channel(
            self.sim,
            src,
            dst,
            self._node(dst, rail),
            bandwidth=self.link_bandwidth,
            latency=self.link_latency,
            coalescing=not self.reference,
        )
        if self._default_fault is not None:
            # Each channel gets its own copy so counters/seq state differ.
            self._arm(ch, self._default_fault.clone())
        self.channels[(src, dst)] = ch
        if is_host(src):
            self.rail_nics[host_id(src)][rail].egress = ch
        else:
            self.switches[src].add_port(ch)

    # -------------------------------------------------------- observability

    def install_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.trace.Tracer` to the whole fabric.

        Gives every channel, NIC and switch its observability track and
        hooks the engine's dispatch histogram.  Call before traffic flows;
        passing ``None`` detaches everything.
        """
        if tracer is None:
            self.sim.trace_hook = None
            for ch in self.channels.values():
                ch.trace = None
            for nics in self.rail_nics.values():
                for nic in nics:
                    nic.trace = None
            for sw in self.switches.values():
                sw.trace = None
            return
        self.sim.trace_hook = tracer.on_engine_event
        for (src, dst), ch in sorted(self.channels.items()):
            ch.trace = tracer.track("link", f"{src}->{dst}")
        for h in sorted(self.rail_nics):
            for r, nic in enumerate(self.rail_nics[h]):
                nic.trace = tracer.track("nic", f"h{h}" if r == 0 else f"h{h}.r{r}")
        for name in sorted(self.switches):
            self.switches[name].trace = tracer.track("switch", name)

    # ------------------------------------------------------------ accessors

    def nic(self, host: int) -> Nic:
        return self.nics[host]

    def rail_nic(self, host: int, rail: int) -> Nic:
        """The NIC host *host* uses on plane *rail* (rail 0 == ``nic()``)."""
        return self.rail_nics[host][rail]

    @property
    def n_hosts(self) -> int:
        return self.topology.n_hosts

    def channel(self, src: str, dst: str) -> Channel:
        return self.channels[(src, dst)]

    def _arm(self, ch: Channel, fault: Optional[FaultSpec]) -> None:
        """The one way a fault spec reaches a channel: a channel gets its
        RNG with its first fault (a clean fabric creates no stream).  The
        streams are seeded by name, not by creation order, so the draws do
        not depend on when the binding happens; it survives a clearing."""
        if fault is not None and ch.rng is None:
            ch.rng = self.streams.stream(f"chan:{ch.name}")
        ch.fault = fault

    def _new_fault_epoch(self) -> None:
        """A fault, straggler or crash is about to change: bump the epoch
        the folds check, and hand any folded INC pass — and, through the
        listeners, any folded control token — back to packets."""
        self.fault_epoch += 1
        self.unfold_inc()
        for listener in self.epoch_listeners:
            listener()

    def unfold_inc(self) -> None:
        """Hand every in-flight INC fold back to the packet path, at the
        current instant (a collective is being admitted beside it)."""
        for fold in list(self._inc_live):
            fold.unfold()

    def set_fault(self, src: str, dst: str, fault: Optional[FaultSpec]) -> None:
        """Install a fault spec on one directed channel."""
        self._new_fault_epoch()
        self._arm(self.channels[(src, dst)], fault)

    def set_fault_all(self, fault_factory) -> None:
        """Install ``fault_factory(src, dst) -> FaultSpec|None`` everywhere."""
        self._new_fault_epoch()
        for (src, dst), ch in self.channels.items():
            self._arm(ch, fault_factory(src, dst))

    def set_straggler(self, host: int, spec: Optional[StragglerSpec]) -> None:
        """Install (or clear, with ``None``) a slow-receiver injection on
        *host*: inside the spec's windows, that host's progress engine pays
        extra delay per CQE poll."""
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host {host} out of range")
        self._new_fault_epoch()
        if spec is None:
            self._stragglers.pop(host, None)
        else:
            self._stragglers[host] = spec

    @property
    def stragglers_armed(self) -> bool:
        """True while any slow-receiver injection is installed (a gate of
        the flow-level and control-plane folds)."""
        return bool(self._stragglers)

    def straggler_delay(self, host: int, now: float) -> float:
        """Extra per-poll delay currently injected on *host* (0 if none)."""
        spec = self._stragglers.get(host)
        return spec.delay_at(now) if spec is not None else 0.0

    def straggler_inert(self, host: int, t0: float, t1: float) -> bool:
        """True when every straggler sample on *host* over ``[t0, t1]``
        would return 0 — the receiver-batch eligibility gate (the host-side
        mirror of :meth:`Channel.fault_inert`)."""
        spec = self._stragglers.get(host)
        return spec is None or spec.inert_over(t0, t1)

    # ------------------------------------------------------------ fail-stop

    def on_crash(self, listener) -> None:
        """Register ``listener(spec: CrashSpec)``, called at the instant a
        scheduled crash executes.  Used by the communicator to terminate the
        dead host's *local* processes (software dies with the host) — the
        surviving ranks must learn about the death through the liveness
        protocol, never from this oracle."""
        self._crash_listeners.append(listener)

    def schedule_crash(self, spec: CrashSpec) -> None:
        """Arm a fail-stop fault to strike at ``spec.at`` virtual seconds.

        Validates the target now so a typo'd name fails at the call site.
        Composable with the chaos schedules: drops/flaps/stragglers keep
        running on the surviving elements.
        """
        if spec.host is not None:
            self._resolve_host(spec.host)  # raises on bad name
        elif spec.switch is not None:
            if spec.switch not in self.switches:
                raise ValueError(f"unknown switch {spec.switch!r}")
        else:
            a, b = spec.link  # type: ignore[misc]
            if (a, b) not in self.channels and (b, a) not in self.channels:
                raise ValueError(f"no link between {a!r} and {b!r}")
        self._new_fault_epoch()
        self.pending_crashes.add(spec)
        self.sim.post_at(spec.at, self._execute_crash, spec)

    def _resolve_host(self, host) -> int:
        if isinstance(host, str):
            return host_id(host)
        h = int(host)
        if not 0 <= h < self.n_hosts:
            raise ValueError(f"host {host} out of range")
        return h

    def _execute_crash(self, spec: CrashSpec) -> None:
        self.pending_crashes.discard(spec)
        if spec.host is not None:
            self.crash_host(self._resolve_host(spec.host))
        elif spec.switch is not None:
            self.crash_switch(spec.switch)
            self.sim.post_later(self.sm_reroute_delay, self._sm_sweep)
        else:
            self.crash_link(*spec.link)  # type: ignore[misc]
            self.sim.post_later(self.sm_reroute_delay, self._sm_sweep)
        for listener in self._crash_listeners:
            listener(spec)

    def _sm_sweep(self) -> None:
        """Subnet-manager failure sweep: reprogram unicast routes around the
        dead set and rebuild every multicast tree over surviving members.
        Runs ``sm_reroute_delay`` after a switch or link crash, so a
        mid-collective spine failure heals via the surviving spine and the
        existing cutoff/fetch recovery re-delivers what was black-holed."""
        self.reroute_unicast()
        dead = self.dead_node_names()
        for gid, group in self.mcast_groups.items():
            survivors = [m for m in sorted(group.members) if m not in self.dead_hosts]
            if not survivors:
                continue
            try:
                self.rebuild_mcast_group(gid, survivors, dead)
            except ValueError:
                # Partitioned group (no surviving tree spans the members);
                # leave the stale tree — the collective layer will abort.
                pass
        for listener in self.sweep_listeners:
            listener()

    def crash_host(self, host: int) -> None:
        """Kill host *host* permanently: its NICs (every rail) stop
        transmitting and receiving (wire and loopback) from this instant
        on."""
        self._new_fault_epoch()
        for nic in self.rail_nics[host]:
            nic.fail_stop()
        self.dead_hosts.add(host)

    def crash_switch(self, name: str) -> None:
        """Kill switch *name* permanently: it black-holes every packet and
        all its ports (both directions) go down."""
        self._new_fault_epoch()
        sw = self.switches[name]
        sw.dead = True
        for ch in sw.ports.values():
            ch.down = True
        for (src, dst), ch in self.channels.items():
            if dst == name:
                ch.down = True
        self.dead_switches.add(name)

    def crash_link(self, a: str, b: str) -> None:
        """Take the ``a ↔ b`` link hard-down, both directions."""
        self._new_fault_epoch()
        found = False
        for pair in ((a, b), (b, a)):
            ch = self.channels.get(pair)
            if ch is not None:
                ch.down = True
                found = True
        if not found:
            raise ValueError(f"no link between {a!r} and {b!r}")
        key = (a, b) if a < b else (b, a)
        self.dead_links.add(key)

    def host_isolated(self, host: int) -> bool:
        """True when *host* cannot reach the rest of the fabric: its NIC is
        dead, or every access channel touching it (either direction) is
        hard-down.  The liveness layer consults this before propagating a
        death confirmation — a partitioned minority that cannot deliver a
        packet must not be allowed to declare the healthy majority dead
        through communicator-level bookkeeping."""
        nic = self.nics.get(host)
        if nic is None or nic.dead:
            return True
        name = host_name(host)
        attached = [ch for (src, dst), ch in self.channels.items()
                    if src == name or dst == name]
        return bool(attached) and all(ch.down for ch in attached)

    def dead_node_names(self) -> Set[str]:
        """Names of every dead host and switch (routing exclusion set)."""
        out = {host_name(h) for h in self.dead_hosts}
        out |= self.dead_switches
        return out

    def reroute_unicast(self, exclude: Optional[Set[str]] = None) -> None:
        """Reprogram every surviving switch's unicast table with routes
        that detour around ``exclude`` (default: the current dead set) —
        the subnet-manager sweep after a hard failure."""
        if exclude is None:
            exclude = self.dead_node_names()
        tables = self.topology.unicast_tables(exclude)
        for sw_name, table in tables.items():
            sw = self.switches[sw_name]
            if sw.dead:
                continue
            sw.install_unicast_table(table)

    def rebuild_mcast_group(self, gid: int, members: Sequence[int],
                            exclude: Optional[Set[str]] = None) -> None:
        """Re-plan group *gid*'s spanning tree around dead elements and
        reprogram the surviving switches (switch-down repair path)."""
        group = self.mcast_groups.get(gid)
        if group is None:
            raise KeyError(f"multicast group {gid} does not exist")
        if exclude is None:
            exclude = self.dead_node_names()
        members_set = set(int(m) for m in members)
        plan = plan_mcast(self.topology, gid, sorted(members_set), exclude)
        for sw in self.switches.values():
            sw.remove_mcast(gid)
        for node, neighbors in plan.tree.items():
            if not is_host(node):
                self.switches[node].install_mcast(gid, set(neighbors))
        group.members = members_set
        group.tree = plan.tree
        group.plan = plan

    def unicast_route(self, src, dst: int) -> Optional[List[Channel]]:
        """The channels a unicast packet from *src* — a host, or a switch by
        name — to host *dst* crosses by the installed tables; ``None`` when
        it would not reach *dst*'s NIC."""
        if isinstance(src, str):
            node, walk = self.switches[src], []
        else:
            walk = [self.nics[src].egress]
            node = walk[0].dst_node
        while getattr(node, "unicast_table", None) is not None:
            neighbor = node.unicast_table.get(dst)
            if neighbor is None or len(walk) > len(self.switches):
                return None  # unroutable, or a loop
            walk.append(node.ports[neighbor])
            node = walk[-1].dst_node
        return walk if node is self.nics[dst] else None

    def one_way_delay(self, src: int, dst: int) -> float:
        """Propagation-only delay estimate host→host (for ack modeling).
        *dst* is any integral host id, or a multicast destination
        (``MCAST_FLAG + gid``); anything else raises."""
        dst = operator.index(dst)
        if dst >= MCAST_FLAG:
            # Multicast destination: use tree depth bound (2 hops in leaf-spine).
            return 2 * self.link_latency
        if not 0 <= dst < self.n_hosts:
            raise ValueError(f"one_way_delay: {dst} is not a host id")
        return self.topology.hops(src, dst) * self.link_latency

    # ------------------------------------------------------------- multicast

    def create_mcast_group(self, members: Sequence[int]) -> int:
        """Create a group, plan its spanning tree, program the switches.

        Planning dispatches on the topology family (fat-tree plans are
        bit-identical to the legacy spine-rooted BFS); the plan — root,
        rail, chain hints — is kept on the :class:`McastGroup`.
        """
        gid = next(self._gid_counter)
        members_set = set(int(m) for m in members)
        plan = plan_mcast(self.topology, gid, sorted(members_set))
        for node, neighbors in plan.tree.items():
            if not is_host(node):
                self.switches[node].install_mcast(gid, set(neighbors))
        self.mcast_groups[gid] = McastGroup(gid=gid, members=members_set,
                                            tree=plan.tree, plan=plan)
        return gid

    def create_inc_tree(self, members: Sequence[int], rkey: int,
                        qpn_of: Dict[int, int], shard_bytes: int,
                        segment_bytes: int = 4096,
                        root_host: Optional[int] = None):
        """Program a SHARP-like reduction tree (see :mod:`repro.net.inc`).

        ``root_host`` switches the tree from Reduce-Scatter ownership
        (shard per member) to a rooted Reduce (one member owns the whole
        reduced buffer)."""
        from repro.net.inc import IncTree

        return IncTree(self, members, rkey, qpn_of, shard_bytes, segment_bytes,
                       root_host=root_host)

    def _dispatch_inc(self, switch, packet, in_port) -> None:
        tree = self._inc_trees.get(packet.mcast_gid)
        if tree is not None:
            tree.on_switch_packet(switch, packet, in_port)

    def register_mcast_member(self, gid: int, host: int) -> None:
        group = self.mcast_groups.get(gid)
        if group is None:
            raise KeyError(f"multicast group {gid} does not exist")
        if host not in group.members:
            raise ValueError(f"host {host} is not in multicast group {gid}")

    # -------------------------------------------------------------- counters

    def switch_egress_bytes(self, payload_only: bool = False) -> int:
        """Sum of bytes transmitted out of every switch port — the
        'performance counters across all switch ports' of Figure 12."""
        if payload_only:
            return sum(sw.egress_payload_bytes for sw in self.switches.values())
        return sum(sw.egress_wire_bytes for sw in self.switches.values())

    def switch_port_traffic(self, payload_only: bool = False) -> int:
        """PortXmitData + PortRcvData summed over every switch port — the
        Figure 12 telemetry.  Egress counts what a switch transmitted;
        ingress counts what arrived at it (host→switch injection included,
        switch↔switch links counted from both sides, as real per-port
        counters do)."""
        total = 0
        switch_names = set(self.switches)
        for (src, dst), ch in self.channels.items():
            n = ch.payload_bytes_sent if payload_only else ch.bytes_sent
            if src in switch_names:
                total += n  # xmit side
            if dst in switch_names:
                total += n  # rcv side
        return total

    def host_injected_bytes(self, payload_only: bool = False) -> int:
        """Bytes hosts pushed into the fabric (NIC send path)."""
        total = 0
        for (src, _dst), ch in self.channels.items():
            if is_host(src):
                total += ch.payload_bytes_sent if payload_only else ch.bytes_sent
        return total

    def per_switch_egress(self) -> Dict[str, int]:
        return {name: sw.egress_wire_bytes for name, sw in self.switches.items()}

    def total_trains(self) -> int:
        """Coalesced trains moved across all channels (fast-path telemetry)."""
        return sum(ch.trains_sent for ch in self.channels.values())

    def total_train_packets(self) -> int:
        """Packets that rode coalesced trains (vs per-packet events)."""
        return sum(ch.train_packets for ch in self.channels.values())

    def total_drops(self) -> int:
        return sum(ch.packets_dropped for ch in self.channels.values())

    def total_rnr_drops(self) -> int:
        return sum(nic.rnr_drops
                   for nics in self.rail_nics.values() for nic in nics)

    def total_stamped_cqes(self) -> int:
        """Receive CQEs pushed at hand-over instead of by an arrival event
        (look-ahead delivery, DESIGN.md §6c)."""
        return sum(nic.stamped_cqes
                   for nics in self.rail_nics.values() for nic in nics)

    def reset_counters(self) -> None:
        for ch in self.channels.values():
            ch.reset_counters()
        for sw in self.switches.values():
            sw.packets_forwarded = 0
            sw.packets_dropped_no_route = 0
        for nics in self.rail_nics.values():
            for nic in nics:
                nic.rnr_drops = 0
                nic.packets_received = 0
                nic.bytes_received = 0
                nic.stamped_cqes = 0
