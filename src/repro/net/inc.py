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
* each switch holds the float32 contributions per (tree, PSN) until all of
  its tree children have sent, then reduces them in tree-child order and
  forwards one packet up,
* the root switch, once a PSN is complete, issues an RDMA-write-with-
  immediate toward the shard's owner host (placed via the symmetric rkey),
* in a switchless (back-to-back) topology the peer host acts as root.

Reduction is element-wise float32 addition, performed on real data so
results are verifiable.  On the production path a whole pass runs as one
closed-form :class:`IncFold` instead of per-packet events (DESIGN.md §6j).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import serialize
from repro.net.nic import CQE, Opcode
from repro.net.packet import MCAST_FLAG, Packet, PacketKind
from repro.net.topology import host_id, host_name, is_host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric import Fabric

__all__ = ["IncTree", "IncFold"]

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
        #: (node, psn) → the contributions received so far, by tree child
        self._state: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}
        self.roles: Dict[str, _SwitchRole] = {}
        self.root: Optional[str] = None  #: root switch (None: switchless)
        self.order: List[str] = []  #: tree switches, root first (BFS)
        self._host_root: Optional[int] = None  # back-to-back fallback
        #: this pass's fold: None until its first rank asks, then False (the
        #: packets run) or the :class:`IncFold`; ``procs`` (host → rank
        #: process) is filled in by the collective running the pass
        self._fold = None
        self.procs: Dict[int, object] = {}
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
        self.root = root
        self.order = [node for node in order if not is_host(node)]
        for node in self.order:
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

    def segment(self, psn: int) -> Tuple[int, int]:
        """``psn → (byte offset in a contribution, segment length)``."""
        _, off = self.owner_of(psn)
        return ((psn // self.segs_per_shard) * self.shard_bytes + off,
                min(self.segment_bytes, self.shard_bytes - off))

    def owned(self, host: int) -> int:
        """How many segments *host* receives (its shard, or the rooted
        Reduce's whole buffer)."""
        if self.root_host is not None:
            return self.n_segments if host == self.root_host else 0
        return self.segs_per_shard if host in self.members else 0

    def inject(self, host: int, psn: int, data: np.ndarray) -> float:
        """Send one contribution segment up the tree from *host*; returns
        the serialization finish time on the host's link."""
        pkt = self._packet(host, psn, data)
        if host == self._host_root:
            # Back-to-back: the root host reduces its own part on-NIC.
            self._accumulate(host_name(host), host_name(host), pkt)
            return self.fabric.sim.now
        return self.fabric.nic(host).egress.transmit(pkt)

    # -------------------------------------------------------- switch compute

    def children(self, node: str) -> List[str]:
        """Who *node* waits for, in reduction order: its tree children (a
        host root: every member, in member order)."""
        role = self.roles.get(node)
        if role is not None:
            return role.children
        return [host_name(m) for m in self.members]

    def on_switch_packet(self, switch, packet: Packet, in_port: Optional[str]) -> None:
        self._accumulate(switch.name, in_port, packet)

    def _accumulate(self, node: str, child: str, packet: Packet) -> None:
        """Hold *child*'s contribution to PSN ``packet.imm`` at *node* until
        every child has sent, then reduce in :meth:`children` order — so the
        float32 sum does not depend on which packet arrived first."""
        key = (node, packet.imm)
        parts = self._state.setdefault(key, {})
        parts[child] = packet.payload.view(np.float32)
        kids = self.children(node)
        if len(parts) < len(kids):
            return
        del self._state[key]
        acc = parts[kids[0]].copy()
        for kid in kids[1:]:
            acc += parts[kid]
        self._emit(node, packet.imm, acc)

    def _emit(self, node: str, psn: int, acc: np.ndarray) -> None:
        role = self.roles.get(node)
        if role is not None and role.parent is not None:
            self.fabric.switches[node].ports[role.parent].transmit(
                self._packet(-1, psn, acc.view(np.uint8)))
            return
        # Tree root: ship the reduced shard segment to its owner.
        owner = self.owner_of(psn)[0]
        down = self._down(psn, acc)
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

    def _packet(self, src: int, psn: int, payload: np.ndarray) -> Packet:
        return Packet(src=src, dst=MCAST_FLAG + self.gid, kind=PacketKind.INC_REDUCE,
                      payload=payload, header_bytes=self.fabric.header_bytes,
                      imm=psn)

    def _down(self, psn: int, acc: np.ndarray) -> Packet:
        owner, off = self.owner_of(psn)
        return Packet(src=-1, dst=owner, kind=PacketKind.RC_WRITE,
                      payload=acc.view(np.uint8),
                      header_bytes=self.fabric.header_bytes, imm=psn,
                      qpn=self.qpn_of[owner],
                      ctx={"remote_key": self.rkey, "remote_offset": off})

    # ------------------------------------------------------------------ fold

    def begin(self, exclusive, contrib: Dict[int, np.ndarray],
              owners: Dict[int, tuple], send_batch, cqe_cost: float):
        """Whether this pass folds: the first rank to ask decides for all.
        Returns the :class:`IncFold`, or ``None`` for the packet path.

        *exclusive* answers "is this the only collective in flight"
        (``None``: nobody vouches); *contrib* is each member's whole
        contribution, *owners* each owner's ``(qp, cached recv WR)``,
        *send_batch* / *cqe_cost* the ranks' host costs."""
        if self._fold is None:
            fabric = self.fabric
            try:
                self._fold = IncFold(self, exclusive, contrib, owners,
                                     send_batch, cqe_cost)
                fabric.inc_folds += 1
                note = {"psns": self.n_segments}
            except _Miss as miss:
                self._fold = False
                note = {"miss": _count_miss(fabric, miss.args[0])}
            trc = fabric.nic(self.members[0]).trace
            if trc is not None:
                trc.instant("engine.inc_fold", fabric.sim.now, note)
        return self._fold or None


class _Miss(Exception):
    """A fold gate declined; ``args[0]`` is the typed reason."""


def _count_miss(fabric: "Fabric", reason: str) -> str:
    fabric.inc_fold_misses[reason] = fabric.inc_fold_misses.get(reason, 0) + 1
    return reason


class IncFold:
    """One INC pass in closed form (DESIGN.md §6j).

    Each member's paced injection chain, each switch's per-PSN completion
    (the latest child arrival, which already carries the switch's
    forwarding delay), every up-port's and down-leg channel's busy chain
    and each owner's ``cqe_poll + cqe_process`` chain are evaluated in the
    packet path's float expressions, so every rank process sleeps once, to
    its completion.  What the packets would have left behind is committed
    when the last rank wakes; :meth:`unfold` commits what happened before
    now and hands the rest back to the packet path.
    """

    def __init__(self, tree: IncTree, exclusive, contrib, owners,
                 send_batch, cqe_cost: float) -> None:
        fabric = tree.fabric
        self.tree, self.sim = tree, fabric.sim
        self.contrib, self.owners = contrib, owners
        now = self.sim.now
        if fabric.reference:
            raise _Miss("reference")
        if tree.root is None:
            raise _Miss("switchless")
        if exclusive is None or not exclusive():
            raise _Miss("not_exclusive")
        if fabric.dead_hosts or fabric.dead_switches or fabric.dead_links:
            raise _Miss("dead")
        if fabric.pending_crashes:
            raise _Miss("pending_crash")
        self.index = {h: i for i, h in enumerate(tree.members)}
        self.egress = [fabric.nic(h).egress for h in tree.members]
        self.ups = {x: fabric.switches[x].ports[tree.roles[x].parent]
                    for x in tree.order[1:]}
        routes = {o: self._route(o) for o in owners}
        chans = (self.egress + list(self.ups.values())
                 + [ch for route in routes.values() for ch in route])
        for ch in chans:
            # INC and RC packets are immune to drops, jitter and flaps
            # unless the spec says otherwise; a bandwidth window is not.
            f = ch.fault
            if f is not None and (not f.protect_reliable or any(
                    w.end > now for w in f.bandwidth_windows)):
                raise _Miss("timing_fault")
        if any(ch.busy_until > now or ch.horizon > now for ch in chans):
            raise _Miss("busy")
        if any(tree.owned(o) > len(qp.recv_queue) for o, (qp, _) in owners.items()):
            raise _Miss("rq_depth")

        n = tree.n_segments
        self.owner = [tree.owner_of(p) for p in range(n)]
        self.src, L = zip(*(tree.segment(p) for p in range(n)))
        self.L = np.array(L, dtype=np.int64)
        self.W = self.L + fabric.header_bytes
        self._inject(now, send_batch)
        self._up_tree()
        self._down_leg(routes)
        # Each owner: the notifications in arrival order, served one by one
        # from the end of its injection on.
        self.done = dict(zip(tree.members, self.E.tolist()))
        self.chains = {}
        for o in owners:
            ps = sorted((p for p in range(n) if self.owner[p][0] == o),
                        key=self.arrive.__getitem__)
            t, serve, end = self.done[o], [], []
            for p in ps:
                a = self.arrive[p]
                serve.append(t if t > a else a)
                t = serve[-1] + cqe_cost
                end.append(t)
            self.chains[o] = (ps, serve, end)
            self.done[o] = t
        self.vec = self._reduce(tree.root, 0, len(next(iter(contrib.values()))) // 4)
        self.woken: set = set()
        fabric._inc_live.append(self)

    # ------------------------------------------------------------ the pass

    def _route(self, owner: int) -> list:
        """Channels of the root's unicast write to *owner*."""
        walk = self.tree.fabric.unicast_route(self.tree.root, owner)
        if walk is None:
            raise _Miss("dead")
        return walk

    def _inject(self, t0: float, send_batch) -> None:
        """Every member's paced chain, vectorised over members: ``S`` the
        instants each segment is handed to the egress, ``F`` its finish,
        ``E`` when the rank leaves its last pacing sleep."""
        egress, n, W = self.egress, self.tree.n_segments, self.W.tolist()
        bw = np.array([ch.bandwidth for ch in egress])
        bypass = np.array([ch.ctrl_bypass_bytes for ch in egress])
        busy = np.array([ch.busy_until for ch in egress])
        t = np.full(len(egress), t0)
        self.S = np.empty((len(egress), n))
        self.F = np.empty_like(self.S)
        for p in range(n):
            if p % 32 == 0:
                t = t + send_batch(min(32, n - p))
            ser = W[p] / bw
            bulk = W[p] > bypass
            fin = np.where(bulk, np.where(t > busy, t, busy) + ser, t + ser)
            busy = np.where(bulk, fin, busy)
            self.S[:, p] = t
            self.F[:, p] = fin
            t = np.where(fin > t, t + (fin - t), t)
        self.E = t

    def _edge(self, child: str, fwd: float):
        """``(sent, arrived)`` per PSN on the edge *child* → its parent,
        whose forwarding delay is *fwd*."""
        if is_host(child):
            i = self.index[host_id(child)]
            return self.S[i], (self.F[i] + self.egress[i].latency) + fwd
        return self.T[child], self.UA[child]

    def _up_tree(self) -> None:
        """Per switch, children first: ``T`` when each PSN completes (and
        is sent on), ``U`` / ``UA`` its up-port finish / parent arrival."""
        tree, W = self.tree, self.W.tolist()
        switches = tree.fabric.switches
        self.T, self.U, self.UA = {}, {}, {}
        for x in reversed(tree.order):
            fwd = switches[x].forwarding_delay
            kids = tree.roles[x].children
            T = self._edge(kids[0], fwd)[1]
            for kid in kids[1:]:
                T = np.maximum(T, self._edge(kid, fwd)[1])
            self.T[x] = T
            if x != tree.root:
                up = self.ups[x]
                self.U[x] = np.array(serialize(T.tolist(), W, up.bandwidth,
                                               up.busy_until, up.ctrl_bypass_bytes))
                self.UA[x] = ((self.U[x] + up.latency)
                              + switches[tree.roles[x].parent].forwarding_delay)

    def _down_leg(self, routes) -> None:
        """The root's writes, hop by hop.  Hop *j* of every route leaves a
        switch *j* hops from the root, so a level's channels see all their
        packets at once; a channel serves them in the engine's order —
        arrival instant, then (recursively) the instant each was sent on
        the hop before."""
        n, W = self.tree.n_segments, self.W.tolist()
        t = self.T[self.tree.root].tolist()
        key = [(x,) for x in t]
        self.hops: List[list] = [[] for _ in range(n)]  # (channel, call, fin)
        self.down = []  # per channel: (channel, psns, calls, fins) in order
        self.arrive = [0.0] * n
        level, j = list(range(n)), 0
        while level:
            groups: Dict[object, List[int]] = {}
            for p in level:
                groups.setdefault(routes[self.owner[p][0]][j], []).append(p)
            level = []
            for ch, ps in groups.items():
                ps.sort(key=key.__getitem__)
                calls = [t[p] for p in ps]
                fins = serialize(calls, [W[p] for p in ps], ch.bandwidth,
                                 ch.busy_until, ch.ctrl_bypass_bytes)
                self.down.append((ch, ps, calls, fins))
                node = ch.dst_node
                for p, call, fin in zip(ps, calls, fins):
                    self.hops[p].append((ch, call, fin))
                    if getattr(node, "unicast_table", None) is None:
                        self.arrive[p] = fin + ch.latency
                        continue
                    t[p] = (fin + ch.latency) + node.forwarding_delay
                    key[p] = (t[p],) + key[p]
                    level.append(p)
            j += 1

    def _reduce(self, node: str, lo: int, hi: int) -> np.ndarray:
        """Float32 elements ``[lo, hi)`` of what *node* sends up: its
        subtree's contributions summed in tree-child order, one running
        accumulator per level (never a ``[members, elems]`` stack)."""
        if is_host(node):
            return self.contrib[host_id(node)].view(np.float32)[lo:hi]
        kids = self.tree.roles[node].children
        acc = self._reduce(kids[0], lo, hi)
        if is_host(kids[0]):
            acc = acc.copy()
        for kid in kids[1:]:
            acc += self._reduce(kid, lo, hi)
        return acc

    # ------------------------------------------------------------- ranks

    def woke(self, host: int) -> None:
        """*host*'s rank woke at its folded completion (``done[host]``)."""
        self.woken.add(host)
        if len(self.woken) == len(self.done):
            self._commit(math.inf)
            self._end()

    def _end(self) -> None:
        """The pass is over (or handed back): nothing holds the fold now."""
        self.tree.fabric._inc_live.remove(self)
        self.tree._fold = False
        self.tree.procs = {}

    # ------------------------------------------------------------ commit

    def _commit(self, upto: float) -> None:
        """Leave behind what the packets sent, and the notifications
        served, before *upto* would have: channel ``bytes_sent`` /
        ``payload_bytes_sent`` / ``packets_sent`` / ``busy_until`` /
        ``horizon``, relay ``packets_forwarded``, the owners' NIC
        ``packets_received`` / ``bytes_received``, MR bytes, receive-queue
        WRs and CQ entries."""
        tree = self.tree
        fabric = tree.fabric
        for i, ch in enumerate(self.egress):
            k = int(np.searchsorted(self.S[i], upto))
            self._charge(ch, self.S[i], self.F[i], slice(k))
        for x, ch in self.ups.items():
            k = int(np.searchsorted(self.T[x], upto))
            self._charge(ch, self.T[x], self.U[x], slice(k))
        for ch, ps, calls, fins in self.down:
            k = bisect_left(calls, upto)
            self._charge(ch, calls, fins, ps[:k])
            if ch.src_name != tree.root:
                fabric.switches[ch.src_name].packets_forwarded += k
            if k and getattr(ch.dst_node, "unicast_table", None) is None:
                ch.horizon = max(ch.horizon, max(self.arrive[p] for p in ps[:k]))
        for o, (qp, wr) in self.owners.items():
            ps, serve, end = self.chains[o]
            nic, cq = fabric.nic(o), qp.recv_cq
            mr = nic.memory.lookup(tree.rkey)
            arrived = ps[:bisect_left([self.arrive[p] for p in ps], upto)]
            served = bisect_left(end, upto)
            polled = served + (served < len(ps) and serve[served] < upto)
            wrs = [qp.recv_queue.popleft() for _ in arrived]
            qp.post_recv_cached_batch([wr] * served)
            cq.total_pushed += polled
            for j, p in enumerate(arrived):
                off, n = self.owner[p][1], int(self.L[p])
                mr.view(off, n)[:] = self._part(tree.root, p).view(np.uint8)
                nic.packets_received += 1
                nic.bytes_received += n
                if nic.trace is not None:
                    nic.trace.instant("nic.cqe", self.arrive[p])
                if j >= polled:
                    cq.push_at(CQE(wrs[j].wr_id, Opcode.RECV_RDMA_WITH_IMM,
                                   qp.qpn, n, p, -1, None), self.arrive[p])

    def _charge(self, ch, calls, fins, psns) -> None:
        """What *ch* transmitting *psns* (a slice or list) — the head of its
        stream, handed over at *calls*, finishing at *fins* — leaves: its
        counters, ``busy_until`` and (traced) ``link.busy`` spans."""
        w = self.W[psns]
        if not len(w):
            return
        ch.packets_sent += len(w)
        ch.bytes_sent += int(w.sum())
        ch.payload_bytes_sent += int(self.L[psns].sum())
        bulk = np.flatnonzero(w > ch.ctrl_bypass_bytes).tolist()
        if ch.trace is not None:
            busy = ch.busy_until
            for i in bulk:
                start = calls[i] if calls[i] > busy else busy
                busy = fins[i]
                ch.trace.complete("link.busy", start, busy - start)
        if bulk:
            ch.busy_until = float(fins[bulk[-1]])

    def _part(self, node: str, p: int) -> np.ndarray:
        """What *node* sends up (the root: down) for PSN *p*."""
        lo = self.src[p] // 4
        hi = lo + int(self.L[p]) // 4
        return self.vec[lo:hi] if node == self.tree.root else (
            self._reduce(node, lo, hi))

    # ----------------------------------------------------------- hand-back

    def unfold(self) -> None:
        """Hand the pass back to the packet path at *now*: a collective is
        being admitted, or the fault state is about to change.  What
        happened before now is committed; a packet on the wire gets its
        arrival event, a partially reduced PSN its switch accumulator, and
        every rank still asleep resumes from the ``(psn, wake, owed, got)``
        the packet path would be at — its next PSN, the instant its current
        sleep ends, whether that sleep already paid the PSN's doorbell
        batch (past the last PSN: a notification's service), and the
        notifications it has served."""
        now, tree = self.sim.now, self.tree
        fabric = tree.fabric
        fabric.inc_folds -= 1
        _count_miss(fabric, "preempted")
        self._commit(now)
        post = self.sim.post_at
        for x in tree.order:
            sw = fabric.switches[x]
            for kid in tree.roles[x].children:
                sent, arrived = self._edge(kid, sw.forwarding_delay)
                arrived = arrived.tolist()
                for p in np.flatnonzero(sent < now).tolist():
                    if arrived[p] >= now:
                        src = host_id(kid) if is_host(kid) else -1
                        post(arrived[p], sw._forward, tree._packet(
                            src, p, self._part(kid, p).view(np.uint8)), kid)
                    elif self.T[x][p] >= now:
                        tree._state.setdefault((x, p), {})[kid] = self._part(kid, p)
        for p, hops in enumerate(self.hops):
            if hops[0][1] >= now:
                continue  # not yet reduced at the root
            j = next((j for j, hop in enumerate(hops) if hop[1] >= now), None)
            pkt = tree._down(p, self._part(tree.root, p))
            if j is not None:
                post(hops[j][1], fabric.switches[hops[j][0].src_name]._forward,
                     pkt, hops[j - 1][0].src_name)
            elif self.arrive[p] >= now:
                ch = hops[-1][0]
                post(self.arrive[p], ch.dst_node.receive, pkt, ch)
        for i, h in enumerate(tree.members):
            if h not in self.woken:
                tree.procs[h].interrupt(self._resume(i, h, now))
        self._end()

    def _resume(self, i: int, host: int, now: float) -> tuple:
        S, F, n = self.S[i].tolist(), self.F[i].tolist(), self.tree.n_segments
        k = bisect_left(S, now)  # segments handed over
        if k == 0:
            return (0, S[0], True, 0)  # in the first doorbell batch
        paced = S[k - 1] + (F[k - 1] - S[k - 1]) if F[k - 1] > S[k - 1] else S[k - 1]
        if paced >= now:
            return (k, paced, False, 0)
        if k < n:
            return (k, S[k], True, 0)  # in PSN k's doorbell batch
        ps, serve, end = self.chains.get(host, ((), (), ()))
        got = bisect_left(end, now)
        if got < len(ps) and serve[got] < now:
            return (n, end[got], True, got)
        return (n, None, False, got)
