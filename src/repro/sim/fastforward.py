"""Flow-level fast-forward: the data fold of a fault-inert collective.

When a multicast phase's timing is provably fault-inert — no timing fault
or drop predicate on any tree channel, no straggler window, no pending
crash, no concurrent collective that could contend — the whole phase (send
batching, per-link busy chains, switch relays, receive-worker processing,
staging DMA drain) is folded arithmetically instead of simulated packet by
packet.  Drops armed on tree channels fold too
(:class:`~repro.sim.parallel.TreeDrops`): each channel draws them in the
order it serves the packets, and a rank left with holes gets its survivors
and no completion — its cutoff fires at packet level and recovery goes on
from there.  The fold always tries; a ``Fabric(reference=True)`` declines
every phase.

A :class:`_Session` folds a collective's phases, for a broadcast (one
phase) or an allgather of any chunk and chain count (one phase per
sender), on any multicast tree:

* **Compiled tree** (:class:`_Tree`, once per ``fault_epoch``): the
  group's switches in breadth-first order from one root, each with its
  up- and down-channel, and every attached host's switch→host channel
  and NIC egress.
* **One phase**: the sender's doorbell batches (:func:`_fold_sender`),
  then every tree edge (:class:`~repro.sim.parallel.TreeEdges`) and
  receiver lane (:class:`~repro.sim.parallel.ReceiverLanes`) serving the
  session's packets FIFO in the order they reach it — concurrent chains
  included — in :func:`repro.net.link.serialize`'s expressions.
* **Deferred commit**: a phase commits only the session's watermark
  arrays and the sender's bytes into the session's gather image.  Each
  rank gets one completion event at its ``data_done`` instant; channel,
  switch, NIC and DMA state is written in one closed-form pass
  (:meth:`_Session._flush`) at the last phase, or when the session ends
  early.
* **Receive queue**: left untouched.  A consumed WR is field-for-field
  its own repost (UC dummies, UD cached staging WRs), so only the depth
  matters; the gate keeps the posted depth at build above the chunks in
  flight, so no RNR is possible while the session runs.

Exactness contract
------------------
The fold replicates the **slow-path** float arithmetic expression by
expression — ``max`` written as the same branch shapes, costs summed in
the same order — so every committed instant (channel ``busy_until``, DMA
watermarks, worker cursors, ``data_done``) is bit-identical to the
reference engine (``Fabric(reference=True)``).  Event counts
necessarily *drop* under the fold, so equivalence checks compare virtual
time, counters and payloads.

Declines and re-entry
---------------------
Every gate that declines names its reason in :attr:`FlowFastForward.misses`
(``CollectiveResult.engine["ff_misses"]``), once per phase offered.  The
gates a collective fails for its whole life (``transport``,
``subgroups``, ``segmented``, ``tree``) are evaluated once, at its first
phase.  After any other decline the collective is not latched to packet
level: a later phase starts a new session as soon as the fabric is
quiescent (:func:`_unsettled` — ``busy`` while an earlier phase's
packets, CQEs, copies or sends are still under way, ``missing`` while a
rank lacks a chunk of a phase already sent), counting only the senders
not yet sent.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.sequencer import effective_chains
from repro.net.link import serialize
from repro.net.topology import host_id, is_host
from repro.sim.parallel import (ReceiverLanes, TreeDrops, TreeEdges,
                                count_channel, forward_packet, without)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.communicator import Communicator
    from repro.core.ops import OpState
    from repro.core.progress import RankEngine

__all__ = ["FlowFastForward"]

_INF = float("inf")
_NEG_INF = float("-inf")


class _Miss(Exception):
    """A fold gate declined; ``args[0]`` is the reason."""


class FlowFastForward:
    """Data-fold entry point of one communicator."""

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm
        self.sim = comm.sim
        # --- telemetry (summed into CollectiveResult.engine) ---
        self.ff_phases = 0  #: phases folded analytically
        self.ff_skipped_events = 0  #: estimated packet-level events avoided
        self.misses: Dict[str, int] = {}  #: gate reason → phases declined
        #: coll_id → its current session; ``None`` after a decline, until
        #: a later phase finds the fabric quiescent and starts another
        self._sessions: Dict[int, Optional[_Session]] = {}
        #: coll_id → the static gate it fails (``None``: it passes them)
        self._static: Dict[int, Optional[str]] = {}
        self._tree: Optional[_Tree] = None

    @property
    def ff_aborts(self) -> int:
        """Phases that ran at packet level although offered to the fold."""
        return sum(self.misses.values())

    def _miss(self, reason: str, engine: Optional["RankEngine"] = None) -> None:
        """Count one declined phase under *reason*, and trace it on
        *engine*'s track (rank 0's when the decline is no rank's hook)."""
        self.misses[reason] = self.misses.get(reason, 0) + 1
        trc = (engine or self.comm.engines[0]).trace
        if trc is not None:
            trc.instant("engine.ff_miss", self.sim.now, {"reason": reason})

    def preempt(self) -> None:
        """Flush every live session *now* — called before a second
        collective is admitted, or a recovery starts, whose packets would
        otherwise observe the deferred channel state.  The collective
        folds again once a later phase finds the fabric quiescent."""
        for cid, sess in self._sessions.items():
            if sess is not None and sess.live:
                sess.abort()
                self._sessions[cid] = None
                self._miss("preempted")

    # ------------------------------------------------------------ entry point

    def try_advance(self, engine: "RankEngine", op: "OpState",
                    participants: List[int]) -> Optional[float]:
        """Fold *op*'s multicast phase from ``engine`` (the sender).
        Returns the sender's ``run_send`` completion instant, or ``None``
        to run the phase at packet level."""
        cid = op.coll_id
        sessions = self._sessions
        if cid not in sessions:
            # Coll-ids grow monotonically; forget finished collectives.
            active = {c for e in self.comm.engines for c in e.ops}
            for c in [c for c in sessions if c not in active]:
                del sessions[c]
                self._static.pop(c, None)
            sessions[cid] = None
        sess = sessions[cid]
        try:
            reason = self.gate(op, participants)
            if reason is None:
                if cid not in self._static:
                    self._static[cid] = _static_miss(self, op, participants)
                reason = self._static[cid]
            if reason is not None:
                raise _Miss(reason)
            if sess is None or not sess.live:
                sess = sessions[cid] = _Session(self, engine, op,
                                                participants)
            done = sess.phase(engine, op)
        except _Miss as miss:
            if sess is not None:
                sess.abort()
            sessions[cid] = None
            self._miss(miss.args[0], engine)
            return None
        # The folded send holds the send path until ``run_send`` would
        # have returned; the sender's controller releases it then.
        engine._send_lock.try_acquire()
        self.comm.cf.publish(cid, "sent", engine.rank, done)
        return done

    def horizon(self, coll_id: int) -> Optional[float]:
        """While *coll_id*'s session is live in this fault epoch, a lower
        bound on when any of its waiting ranks' cutoffs can fire (the control
        fold's activation gate); else ``None``."""
        sess = self._sessions.get(coll_id)
        if (sess is None or not sess.live
                or sess.epoch != self.comm.fabric.fault_epoch):
            return None
        return sess._deadline(self.sim.now)

    def gate(self, op: "OpState", participants: List[int]) -> Optional[str]:
        """The O(1) fault-inert gates the data fold and the control fold
        share; the reason of the first miss, or ``None``.  A reference
        fabric declines first, with the word the INC fold uses too."""
        comm = self.comm
        fabric = comm.fabric
        if fabric.reference:
            return "reference"
        if fabric.topology.rails != 1:
            return "rails"
        if not comm.ff_exclusive(op.coll_id):
            return "not_exclusive"
        if (comm.dead_ranks or fabric.dead_hosts or fabric.dead_switches
                or fabric.dead_links or op.aborted or op.dead_ranks):
            return "dead"
        if fabric.pending_crashes:
            return "pending_crash"
        return None

    def tree(self, gid: int) -> "_Tree":
        """Multicast group *gid*'s compiled tree for the current epoch."""
        fabric = self.comm.fabric
        t = self._tree
        if t is None or t.key != (gid, fabric.fault_epoch):
            t = self._tree = _Tree(fabric, gid)
        return t


class _Tree:
    """One multicast tree, compiled once per ``fault_epoch``.

    Switches are numbered breadth-first from the root (index 0; the switch
    with the most tree neighbours), so every tree level is a contiguous
    index slice.  A non-root switch ``c`` has parent ``par[c]``, the
    up-channel ``up[c]`` (``c → par[c]``) and the down-channel ``down[c]``
    (``par[c] → c``).  ``host[h]`` is ``(switch, switch→host channel, NIC
    egress)`` of every host the tree reaches.
    """

    def __init__(self, fabric, gid: int) -> None:
        self.key = (gid, fabric.fault_epoch)
        ports = {name: sw.mcast_table.get(gid)
                 for name, sw in fabric.switches.items()}
        ports = {name: p for name, p in ports.items() if p}
        nbrs = {name: sorted(x for x in p if not is_host(x))
                for name, p in ports.items()}
        if not ports or any(m not in ports or name not in ports[m]
                            for name, ns in nbrs.items() for m in ns):
            raise _Miss("tree")
        root = max(sorted(nbrs), key=lambda name: len(nbrs[name]))
        names, par, idx = [root], [0], {root: 0}
        bounds = []  # [lo, hi) of each level below the root
        lo = 0
        while lo < len(names):
            hi = len(names)
            for p in range(lo, hi):
                for m in nbrs[names[p]]:
                    if p and m == names[par[p]]:
                        continue
                    if m in idx:
                        raise _Miss("tree")  # a cycle
                    idx[m] = len(names)
                    names.append(m)
                    par.append(p)
            if len(names) > hi:
                bounds.append((hi, len(names)))
            lo = hi
        if len(names) != len(ports):
            raise _Miss("tree")  # disconnected
        sws = [fabric.switches[name] for name in names]
        up = [None] + [sws[c].ports.get(names[par[c]])
                       for c in range(1, len(names))]
        down = [None] + [sws[par[c]].ports.get(names[c])
                         for c in range(1, len(names))]
        if None in up[1:] or None in down[1:]:
            raise _Miss("tree")
        self.host: Dict[int, tuple] = {}
        for c, name in enumerate(names):
            for p in ports[name]:
                if not is_host(p):
                    continue
                h = host_id(p)
                hd = sws[c].ports.get(p)
                eg = fabric.nics[h].egress if h in fabric.nics else None
                if (h in self.host or hd is None or eg is None
                        or eg.dst_name != name):
                    raise _Miss("tree")
                self.host[h] = (c, hd, eg)
        self.S = len(names)
        self.par = par
        self.depth = [0] * self.S
        #: ``anc[c, x]``: switch ``x`` is on the path from ``c`` to the root
        self.anc = np.eye(self.S, dtype=bool)
        self.kids: List[List[int]] = [[] for _ in range(self.S)]
        for c in range(1, self.S):
            self.depth[c] = self.depth[par[c]] + 1
            self.anc[c] |= self.anc[par[c]]
            self.kids[par[c]].append(c)
        self.switches = sws
        self.nports = [len(ports[name]) for name in names]
        self.up = up
        self.down = down
        self.d = [sw.forwarding_delay for sw in sws]
        dbw = np.array([1.0] + [ch.bandwidth for ch in down[1:]])
        dlat = np.array([0.0] + [ch.latency for ch in down[1:]])
        d = np.array(self.d)
        pa = self.pa = np.array(par, dtype=np.intp)
        self.levels = [(lo, hi, pa[lo:hi], dbw[lo:hi], dlat[lo:hi], d[lo:hi])
                       for lo, hi in bounds]
        self.chans = (up[1:] + down[1:]
                      + [ch for _, hd, eg in self.host.values()
                         for ch in (hd, eg)])
        #: every channel with its destination's forwarding delay: its last
        #: packet is gone once ``(busy_until + latency) + delay`` is past
        self.drain = ([(up[c], self.d[par[c]]) for c in range(1, self.S)]
                      + [(down[c], self.d[c]) for c in range(1, self.S)]
                      + [(ch, d) for c, hd, eg in self.host.values()
                         for ch, d in ((hd, 0.0), (eg, self.d[c]))])
        self.faulty = {ch for ch in self.chans if ch.fault is not None}
        #: channels one phase crosses: the egress plus every out-port
        self.chans_per_phase = 1 + sum(k - 1 for k in self.nports)


def _static_miss(ff: FlowFastForward, op: "OpState",
                 participants: List[int]) -> Optional[str]:
    """The gates a collective passes or fails for its whole life: evaluated
    once, at the first phase the shared gates let through, and the reason
    of every phase it offers after that."""
    comm = ff.comm
    cfg = comm.config
    if cfg.transport not in ("ud", "uc"):
        return "transport"
    if cfg.n_subgroups != 1:
        return "subgroups"
    if op.plan.chunk_size > comm.fabric.mtu:
        return "segmented"  # one wire segment per chunk
    try:
        T = ff.tree(comm.mcast_gids[0])
    except _Miss as miss:
        return miss.args[0]
    if sorted(comm.host_of(r) for r in participants) != sorted(T.host):
        return "tree"  # receivers must be exactly the tree's hosts
    return None


class _Session:
    """The data fold of a collective's phases, from the first phase
    offered — or, after a decline, from a later one that finds the fabric
    quiescent — to its last.

    Between phases the session holds the fold's state in arrays — egress,
    up- and down-channel watermarks, the receiver lanes — and the payload
    in one gather image; objects are written at each rank's completion
    event and in one flush.  Gates hoisted to the build are evaluated
    once; anything that could invalidate them (a fault or straggler
    change, a second collective, a recovery) either bumps
    ``fault_epoch`` or preempts the session.
    """

    def __init__(self, ff: FlowFastForward, engine: "RankEngine",
                 op: "OpState", participants: List[int]) -> None:
        comm = ff.comm
        cfg = comm.config
        fabric = comm.fabric
        T = ff.tree(comm.mcast_gids[0])
        ranks, self.order = sorted(participants), participants
        engines = [comm.engines[r] for r in ranks]
        ops = [e.ops.get(op.coll_id) for e in engines]
        if any(o is None or o.aborted for o in ops):
            raise _Miss("dead")
        if any(o.stats["recoveries"] for o in ops):
            raise _Miss("recovery")
        drops = {ch.fold_drops() for ch in T.chans}
        if "fault" in drops or "lossy" in drops or ("drops" in drops and (
                op.kind != "broadcast" and effective_chains(len(ranks), cfg.n_chains) > 1)):
            # (concurrent chains draw in an order only a merge of them knows)
            raise _Miss("fault" if "fault" in drops else "lossy")
        #: senders whose phase already ran, folded or at packet level
        sent = [o.is_sender and "send_done" in o.phases for o in ops]
        reason = _unsettled(ff.sim.now, T, engines, ops, sent)
        if reason is not None:
            raise _Miss(reason)
        self.ff = ff
        self.sim = ff.sim
        self.fabric = fabric
        self.T = T
        self.epoch = fabric.fault_epoch
        self.uc = cfg.transport == "uc"
        self.bypass = max(ch.ctrl_bypass_bytes for ch in T.chans)
        self.qlen = min(len(e.sub_qps[0].recv_queue) for e in engines)
        self.ranks = ranks
        self.pos = {r: j for j, r in enumerate(ranks)}
        self.engines = engines
        self.ops = ops
        hosts = [comm.host_of(r) for r in ranks]
        if any(h not in T.host for h in hosts):
            raise _Miss("tree")  # recompiled in a later epoch without one
        self.hosts = hosts
        att = [T.host[h] for h in hosts]
        self.sw_of = [a[0] for a in att]
        self.hd = [a[1] for a in att]
        self.eg = [a[2] for a in att]
        self.hd_bw = max(ch.bandwidth for ch in self.hd)
        self.eg_busy = [ch.busy_until for ch in self.eg]
        self.loss = TreeDrops(T, np.array(self.sw_of), self.hd, self.eg) if (
            "drops" in drops) else None
        self.holes = {} if self.loss is None else self.loss.holes
        self.edges = TreeEdges(T, np.array(self.sw_of, dtype=np.intp),
                               [ch.latency for ch in self.eg])
        #: while the lanes have served every pending packet: per pending
        #: phase, ``(its latest forward, its packets, lanes before it,
        #: up- and down-channel watermarks after it)``
        self.snaps: List[tuple] = []
        #: else the lanes have served the pending packets that reach them
        #: before ``cut``, and the phases from ``defer_from`` on are pending
        self.deferred, self.cut, self.defer_from = False, _NEG_INF, 0
        self.drops: List[tuple] = []  # (worker past them, packets) served
        cost = engine.cost
        # Each worker's step under way (RankEngine.rx_step): the fold's
        # packets queue behind it, and its copies on the DMA engine.
        steps = [e.rx_step[0] for e in engines]
        dma = None if self.uc else (
            np.array([e.dma.bandwidth for e in engines]),
            np.array([e.dma.latency for e in engines]),
            np.array([e.dma.after(f.copies) for e, f in zip(engines, steps)]))
        self.lanes = ReceiverLanes(
            self.edges.switch_of,
            cost.cqe_poll + cost.cqe_process,
            cost.recv_repost if self.uc else cost.copy_issue + cost.recv_repost,
            np.array([ch.bandwidth for ch in self.hd]),
            np.array([ch.latency for ch in self.hd]),
            np.array([ch.busy_until for ch in self.hd]),
            np.array([max(f.free, e.ff_resume_floor)
                      for e, f in zip(engines, steps)]), dma)
        if dma is not None and engine.trace is not None:
            self.lanes.hold = ()  # traced: each lane's staging holds
        # --- cutoff deadlines of the ranks still waiting for data --------
        self.md = _INF  # earliest armed deadline
        self.unarmed: Dict[int, float] = {}  # lane -> its arming allowance
        for j, o in enumerate(ops):
            if o.data_done.triggered:
                continue
            if o.cutoff_deadline < _INF:
                self.md = min(self.md, o.cutoff_deadline)
            else:
                expected, slack = engines[j].cutoff_allowance(o)
                self.unarmed[j] = expected + slack
        # Hosts a straggler window may still slow down.
        now = self.sim.now
        self.strag = [j for j, h in enumerate(hosts)
                      if not fabric.straggler_inert(h, now, _INF)]
        # --- schedule ----------------------------------------------------
        # A rank is complete once the chunks folded, less its own, reach
        # what it lacked at build: ``target`` is that folded count, and
        # ``due`` a heap of (target, lane) entries, stale ones included.
        self.target = [o.n_chunks - o.bitmap.count - e.unset(o)
                       for e, o in zip(engines, ops)]
        self.finished = [not n for n in self.target]
        self.due = [(n, j) for j, n in enumerate(self.target) if n]
        heapify(self.due)
        # Each rank's own byte range; its completion places around it.
        self.own = [(o.plan.bounds(o.send_lo)[0],
                     sum(o.plan.bounds(o.send_hi - 1)))
                    if o.is_sender else (0, 0) for o in ops]
        self.senders = sum(o.is_sender for o in ops) - sum(sent)
        self.sent = sent
        #: the session folds every phase, so the gather image is whole
        self.whole = not any(sent)
        #: per folded phase: (lane, first psn, chunks, wire bytes, payload
        #: bytes, doorbell batches)
        self.phases: List[tuple] = []
        self.env: List[float] = []  # running max of each phase's finish
        self.cum = [0]  # chunks folded before each phase
        self.ptr = 0  # phases wholly finished by the current hook
        self.gather = np.empty(op.plan.buffer_len, dtype=np.uint8)
        self._run_memo = (0, [])
        self.live = True

    # ------------------------------------------------------------ per phase

    def phase(self, engine: "RankEngine", op: "OpState") -> float:
        """Fold one phase and commit it to the session; returns the
        sender's ``run_send`` done instant.  Raises :class:`_Miss`, with
        nothing committed, when a gate declines."""
        sim = self.sim
        t_hook = sim.now
        T = self.T
        if self.fabric.fault_epoch != self.epoch:
            raise _Miss("fault_epoch")
        i = self.pos.get(engine.rank, -1)
        if i < 0 or not self.live or self.sent[i] or op is not self.ops[i]:
            raise _Miss("order")
        if engine._send_lock.in_use:  # another send owns the send path
            raise _Miss("send_busy")
        if len(engine.send_cq):  # stale completions would skew the replay
            raise _Miss("stale_cq")
        eg = self.eg[i]
        deadline = self._deadline(t_hook)
        if deadline <= t_hook:
            raise _Miss("deadline")
        lens = [op.plan.bounds(p)[1] for p in range(op.send_lo, op.send_hi)]
        n = len(lens)
        self._advance(t_hook)
        # No-RNR envelope: the posted depth at build must cover every
        # chunk still in flight, this phase's included: a phase's until its
        # finish; while the lanes are deferred, a packet's until they serve
        # it and the worker steps past it.
        env = self.env
        stop = self.defer_from if self.deferred else len(env)
        while self.ptr < stop and env[self.ptr] <= t_hook:
            self.ptr += 1
        flight = self.cum[stop] - self.cum[self.ptr] + n
        if self.deferred:
            flight += len(self.edges.rows()[2]) + sum(k for t, k in self.drops
                                               if t > t_hook)
        header = engine.nic.header_bytes
        wires = [ln + header for ln in lens]
        # A worker that steps at least as fast as its edge delivers holds
        # one packet, and at most one more from its step under way at build.
        lanes = self.lanes
        if flight > self.qlen and not (
                self.qlen > 2 and lanes.c1 + lanes.c2 <= min(wires) / self.hd_bw):
            raise _Miss("qlen")
        if min(wires) <= self.bypass:
            raise _Miss("bypass")  # every data packet rides the bulk queue

        # --- the sender, then every tree edge ----------------------------
        send_done, eg_fins, batches = _fold_sender(
            engine, t_hook, wires, eg.bandwidth, self.eg_busy[i])
        edges, reach, got = self.edges, None, None
        if self.loss is not None:
            reach, got, lost = self.loss.phase(i, op.send_lo, wires, lens)
        pend, rows = edges.add(i, eg_fins, wires, lens, reach)
        if pend is None:
            raise _Miss("tie" if reach is None else "lossy")
        # --- receivers ---------------------------------------------------
        eager = rows is not None and not self.deferred
        end = len(self.phases) + 1 == self.senders
        if eager:
            state, fins = lanes.phase(rows, wires, lens, i, got)
        else:
            # From the lanes before the oldest pending phase, every packet
            # not yet served: exactly at the last phase, else bounded — on
            # the edges' exact forwards where their bound could fail a gate.
            base = (lanes.state if self.deferred or not self.snaps
                    else self.snaps[0][2])
            state, W, L = None, *edges.rows(pend)[2:4]
            fin = lanes.bound(base, edges.bound(pend), W, L)
            if fin >= deadline or end or self.strag:
                packets = edges.settle(pend)
                fin = lanes.bound(base, edges.bound(pend), W, L)
                if fin >= deadline or end:
                    state = lanes.settle(base, packets, self.cut if
                                         self.deferred else _NEG_INF, _INF)
            fins = np.full(len(self.ranks), fin) if state is None else state.last_fin
        fin_rx = float(fins.max())
        for j in self.strag:
            if j != i and not self.fabric.straggler_inert(
                    self.hosts[j], t_hook, float(fins[j])):
                raise _Miss("straggler")
        fin_all = fin_rx if fin_rx > send_done else send_done
        if reach is not None:  # every forward, host edges' losses included
            fin_all = max(fin_all, float(rows.max()))
            if not end:  # the chain's next root
                k = self.order.index(engine.rank)
                j = self.pos[self.order[k + 1]]
                o, b = self.ops[j], engine.cost.send_batch(1)
                first = self.ff.comm.cf.activation_floor(op, self.order, k, send_done) + b
                span = o.own_chunks * (o.plan.bounds(o.send_hi - 1)[1] + header)
                if not self.loss.clear(pend[4], j, first,
                                       first + span / self.eg[j].bandwidth + b):
                    raise _Miss("lossy")  # their draws could meet these packets
        if fin_all >= deadline:
            raise _Miss("deadline")

        # ------------------------------------------------------- commit
        self.eg_busy[i] = eg_fins[-1]
        edges.commit(pend)
        if got is not None:
            self.loss.commit(lost)
        if eager:
            self.snaps.append((rows[n - 1].max(), n, lanes.state, edges.up,
                               edges.down))
            lanes.commit(state)
            env.append(fin_all if not env or fin_all > env[-1] else env[-1])
        else:
            if not self.deferred:  # back to the lanes before the pending
                if self.snaps:
                    lanes.commit(self.snaps[0][2])
                self.defer_from = len(self.phases) - len(self.snaps)
                self.snaps, self.deferred, self.cut = [], True, _NEG_INF
            env.append(env[-1] if env else fin_all)
            if state is not None and end:
                self._settle(_INF, state)
        self.sent[i] = True
        self.phases.append((i, op.send_lo, n, sum(wires), sum(lens),
                            len(batches)))
        self.cum.append(self.cum[-1] + n)
        lo, ln = op.plan.bounds(op.send_lo)[0], sum(lens)
        src, so = op.mr.source(lo, ln)
        self.gather[lo:lo + ln] = src[so:so + ln]
        # --- completions: one event per rank, in ascending rank order ----
        target, due = self.target, self.due
        target[i] += n
        if not self.finished[i]:
            heappush(due, (target[i], i))
        done = []
        while due and due[0][0] <= self.cum[-1]:
            t, j = heappop(due)
            if t == target[j] and not self.finished[j] and j not in self.holes:
                done.append(j)
        cf = self.ff.comm.cf
        for j in sorted(done) if done else ():
            self.finished[j] = True
            if self.deferred:  # only its own phase is left: none reaches it
                fin = float(lanes.settle(lanes.state, edges.settle(), self.cut,
                                         _INF, [j]).last_fin[0])
            else:
                fin = float(lanes.last_fin[j])
            sim.post_at(fin, self._complete, j)
            if cf is not None:
                cf.publish(op.coll_id, "done", self.ranks[j], fin)
        if len(self.phases) == self.senders:
            self.abort()
        # --- watchdog liveness over the folded window --------------------
        if sim._wd_armed and sim._wd_interval > 0.0:
            step = sim._wd_interval / 2.0
            tick = t_hook + step
            while tick < fin_all:
                sim.post_at(tick, sim.note_progress)
                tick += step
        # --- telemetry ---------------------------------------------------
        ff = self.ff
        ff.ff_phases += 1
        ff.ff_skipped_events += (n * (T.chans_per_phase + 3 * (len(self.ranks) - 1))
                                 + 2 * len(batches))
        trc = engine.trace
        if trc is not None:
            trc.instant("engine.ff_enter", t_hook, {"chunks": n})
            trc.instant("engine.ff_exit", t_hook,
                        {"until": fin_all, "send_done": send_done})
        return send_done

    def _advance(self, t_hook: float) -> None:
        """Drop the pending packets no later phase can reach ahead of — every
        forward before *t_hook* — once the lanes have served them."""
        edges = self.edges
        if self.deferred:
            if edges.fresh and 2 * edges.forwarded_by(t_hook) < len(edges.rows()[2]):
                return  # fewer than half can be final: no settle below either
            final = edges.settle()[0].max(1, initial=_NEG_INF) < t_hook
            if final.any() and 2 * final.sum() >= len(final):
                self._settle(t_hook)
            return
        k = rows = 0
        while k < len(self.snaps) and self.snaps[k][0] < t_hook:
            rows += self.snaps[k][1]
            k += 1
        if k:  # every channel served them last: its watermark then is a base
            edges.drop_front(rows, *self.snaps[k - 1][3:])
            del self.snaps[:k]

    def _settle(self, hi: float, state=None) -> None:
        """Serve the lanes every pending packet reaching them before *hi*
        (*state*: that, computed already), then drop what is final."""
        lanes, edges = self.lanes, self.edges
        packets = edges.settle()
        lanes.commit(state or lanes.settle(lanes.state, packets, self.cut, hi))
        self.cut = hi
        final = packets[0].max(1, initial=_NEG_INF) < hi
        if final.all():  # every phase served: their finishes are known
            self.deferred = False
            env, start = self.env, self.defer_from
            fin = max([float(lanes.last_fin.max())] + env[start - 1:start])
            env[start:] = [fin] * (len(env) - start)
        if hi < _INF:  # (at the end, the flush reads them)
            edges.drop(final)
            self.drops = [] if not self.deferred else self.drops + [
                (float(lanes.cursor.max()), int(final.sum()))]

    def _deadline(self, t_hook: float) -> float:
        """A lower bound on every waiting rank's cutoff deadline: armed
        ones exactly, unarmed ones by the controller's own allowance from
        now (the deadline arms at or after the hook)."""
        if not self.unarmed:
            return self.md
        ops = self.ops
        armed = [j for j in self.unarmed if ops[j].cutoff_deadline < _INF]
        for j in armed:
            self.md = min(self.md, ops[j].cutoff_deadline)
            del self.unarmed[j]
        if self.unarmed:
            return min(self.md, t_hook + min(self.unarmed.values()))
        return self.md

    # --------------------------------------------------------- completion

    def _complete(self, j: int) -> None:
        """One event per rank, at its exact ``data_done`` instant: commit
        its bitmap, payload and stats, then let the op complete."""
        o = self.ops[j]
        newly = o.bitmap.fill()
        o.placed.fill()
        lo, hi = self.own[j]
        if self.whole:
            o.mr.place(0, self.gather, 0, lo)
            o.mr.place(hi, self.gather, hi, len(self.gather) - hi)
        else:  # the phases before the session landed at packet level
            for psn, n in self._runs():
                a = o.plan.bounds(psn)[0]
                b = sum(o.plan.bounds(psn + n - 1))
                for x, y in ((a, min(b, lo)), (max(a, hi), b)):
                    if x < y:
                        o.mr.place(x, self.gather, x, y - x)
        o.stats["chunks_received"] += newly
        o.maybe_complete(at_once=True)  # a waiting rank resumes in this event

    def _release(self, j: int) -> None:
        o = self.ops[j]
        o.ff_hold -= 1
        o.maybe_complete()

    # -------------------------------------------------------------- flush

    def abort(self) -> None:
        """End the session — early, or at its last phase: flush every folded
        phase, then give each rank still waiting, or left with holes, the
        chunks it has received so far (bitmap, payload, stats), holding its
        completion until its last folded receive finishes.  The packet path
        resumes from this state."""
        if not self.live:
            return
        self.live = False
        if not self.phases:
            return
        if self.deferred:
            self._settle(_INF)
        self._flush()
        now = self.sim.now
        for j, o in enumerate(self.ops):
            if self.finished[j]:
                continue  # its completion event commits everything
            got = 0
            for psn, n in without(self._runs(), self.holes.get(j, ())):
                got += o.bitmap.set_range(psn, n)
                o.placed.set_range(psn, n)
                lo = o.plan.bounds(psn)[0]
                hi = sum(o.plan.bounds(psn + n - 1))
                o.mr.place(lo, self.gather, lo, hi - lo)
            o.stats["chunks_received"] += got
            fin = float(self.lanes.last_fin[j])
            if fin > now:
                o.ff_hold += 1
                self.sim.post_at(fin, self._release, j)

    def _runs(self) -> List[List[int]]:
        """The folded phases' chunks as ascending ``[first psn, count]``
        runs, adjacent phases joined."""
        if self._run_memo[0] != len(self.phases):
            runs: List[List[int]] = []
            for lo, n in sorted((p[1], p[2]) for p in self.phases):
                if runs and runs[-1][0] + runs[-1][1] == lo:
                    runs[-1][1] += n
                else:
                    runs.append([lo, n])
            self._run_memo = (len(self.phases), runs)
        return self._run_memo[1]

    def _flush(self) -> None:
        """Write every deferred channel, switch, NIC and DMA counter and
        watermark in one pass.  A phase carries the same packets over every
        channel it crosses, so each channel's counters are a sum of phase
        records: its own phases on a sender's egress, everyone else's on a
        host's switch→host channel, the phases sent from below a switch on
        its up-channel and the rest on its down-channel."""
        T = self.T
        per = np.zeros((len(self.ranks), 4), dtype=np.int64)
        below = np.zeros((T.S, 3), dtype=np.int64)
        for rec in self.phases:
            per[rec[0]] += rec[2:]
            below[self.sw_of[rec[0]]] += rec[2:5]
        total = per[:, :3].sum(axis=0)
        for c in range(T.S - 1, 0, -1):
            below[T.par[c]] += below[c]
        faulty, lanes, loss = T.faulty, self.lanes, self.loss
        count = count_channel if loss is None else loss.count
        if loss is not None:
            loss.flush()
        for j, e in enumerate(self.engines):
            mine = per[j].tolist()
            if mine[0]:
                count(self.eg[j], self.eg_busy[j], mine[:3], faulty)
                e.send_cq.total_pushed += mine[3]
            rx = (total - per[j, :3]).tolist()
            count(self.hd[j], float(lanes.hd_busy[j]), rx, faulty)
            packets, payload = (rx[0], rx[2]) if loss is None else loss.rx[j].tolist()
            e.nic.packets_received += packets
            e.nic.bytes_received += payload
            e.sub_qps[0].recv_cq.total_pushed += packets
            if not self.uc:
                busy = float(lanes.dma_busy[j])
                step = e.rx_step[0]
                if step.copies:
                    # The worker issues its own copies first, on the old
                    # watermark; it leaves the fold's behind them.
                    step.dma_after = busy
                else:
                    e.dma.busy_until = busy
                e.dma.bytes_copied += payload
                e.dma.ops += packets
                e.stagings[0].reposts += packets
            cursor = float(lanes.cursor[j])
            if cursor > e.ff_resume_floor:
                e.ff_resume_floor = cursor
        for c in range(1, T.S):
            count(T.up[c], float(self.edges.up[c]), below[c].tolist(), faulty)
            count(T.down[c], float(self.edges.down[c]),
                  (total - below[c]).tolist(), faulty)
        fwd = [int(total[0])] * T.S if loss is None else loss.fwd.tolist()
        for sw, k, packets in zip(T.switches, T.nports, fwd):
            sw.packets_forwarded += packets * (k - 1)
        if lanes.hold is not None:  # each lane's peak of held staging slots
            for e, (held, t) in zip(self.engines, lanes.peaks()):
                if held:
                    e.trace.counter("staging.hold", t, held)
        # A switch forwarding a packet after every lane is done sends it down
        # branches without a receiver, maybe after the collective ends: it
        # is counted when the switch forwards it.
        F, _, W, L, src = self.edges.rows()
        fin = max(float(lanes.last_fin.max()), self.sim.now)
        up = T.anc[self.edges.switch_of[src]]  # the sender is below
        for r, c in zip(*np.nonzero(F > fin)):
            to = [(T.down[k], k) for k in T.kids[c] if not up[r, k]] + (
                [(T.up[c], T.par[c])] if c and up[r, c] else [])
            args = (T.switches[c], T.nports[c] - 1, [ch for ch, _ in to], int(W[r]),
                    int(L[r]), faulty, {ch for ch, k in to if F[r, k] == _NEG_INF})
            forward_packet(*args, -1)  # (lost: -inf past the edge that lost it)
            self.sim.post_at(float(F[r, c]), forward_packet, *args, 1)


def _unsettled(now: float, T: _Tree, engines, ops, sent) -> Optional[str]:
    """Why a session cannot start from the objects' state, or ``None``.
    ``busy``: something an earlier phase sent is still on its way — a tree
    channel's last packet has not arrived (or, into a switch, not been
    forwarded), a receive CQE is queued, a worker is in a step whose end
    is unknown (:attr:`RankEngine.rx_step`) or would wait for its fold
    floor, or a send is under way.  ``missing``: a rank lacks a chunk of
    a phase already sent — counting those its worker's step sets —, which
    only recovery can deliver."""
    for ch, d in T.drain:
        if (ch.busy_until + ch.latency) + d >= now:
            return "busy"
    for e in engines:
        free = e.rx_step[0].free
        if (len(e.sub_qps[0].recv_cq) or free == _INF or e._send_lock.in_use
                or (free > now and e.ff_resume_floor > free)):
            return "busy"
    unsent = sum(o.own_chunks for o, s in zip(ops, sent) if not s)
    for e, o, s in zip(engines, ops, sent):
        if (o.n_chunks - o.bitmap.count - e.unset(o)
                != unsent - (0 if s else o.own_chunks)):
            return "missing"
    return None


def _fold_sender(engine: "RankEngine", t: float, wires: List[int],
                 bandwidth: float, busy: float):
    """Replicate ``run_send`` + the egress burst: per-batch doorbell cost,
    one busy-chain walk per batch, one signaled CQE per batch pushed at
    its last serialization finish, bounded outstanding batches replayed
    against the push instants.  Returns ``(send_done, finishes,
    batch_sizes)``.  (The session gates every wire above the bypass lane.)"""
    cfg = engine.config
    cost = engine.cost
    finishes: List[float] = []
    batch_sizes: List[int] = []
    pending: List[float] = []  # signaled-CQE push instants, increasing
    p_lo = 0  # drained prefix of `pending`
    outstanding = 0
    for i in range(0, len(wires), cfg.batch_size):
        batch = wires[i:i + cfg.batch_size]
        batch_sizes.append(len(batch))
        t = t + cost.send_batch(len(batch))
        # One doorbell: the whole batch reaches the egress at ``t``.
        fins = serialize([t] * len(batch), batch, bandwidth, busy, 0)
        finishes += fins
        busy = fins[-1]
        pending.append(busy)
        outstanding += 1
        while outstanding >= cfg.max_outstanding_batches:
            t, k, p_lo = _drain_cq(pending, p_lo, t)
            outstanding -= k
    while outstanding > 0:
        t, k, p_lo = _drain_cq(pending, p_lo, t)
        outstanding -= k
    return t, finishes, batch_sizes


def _drain_cq(pending: List[float], lo: int, t: float) -> Tuple[float, int, int]:
    """Replay one ``send_cq.wait() + poll()`` round of ``run_send``.

    ``pending[lo:]`` holds undrained signaled-CQE push instants in
    increasing order.  If any are due at *t* the wait returns immediately
    and the poll drains all of them; otherwise the worker parks until the
    next push and drains exactly it.
    """
    if lo < len(pending) and pending[lo] <= t:
        k = 0
        while lo < len(pending) and pending[lo] <= t:
            lo += 1
            k += 1
        return t, k, lo
    t = pending[lo]
    return t, 1, lo + 1
