"""Flow-level fast-forward: the data fold of a fault-inert collective.

When a multicast phase is provably fault-inert — no drop machinery armed
on any tree channel, no straggler window, no pending crash, no concurrent
collective that could contend — the whole phase (send batching, per-link
busy chains, switch relays, receive-worker processing, staging DMA drain)
is folded arithmetically instead of simulated packet by packet.

One :class:`_Session` per collective does it, for a broadcast (one phase)
or an allgather of any chunk count (one phase per sender), on any
multicast tree:

* **Compiled tree** (:class:`_Tree`, once per ``fault_epoch``): the
  group's switches in breadth-first order from one root, each with its
  up- and down-channel, and every attached host's switch→host channel
  and NIC egress.
* **One phase**: the sender's doorbell batches (:func:`_fold_sender`), a
  scalar up-chain from the sender's switch to the root, one vectorised
  busy-chain step per tree level per chunk over the down-channels (the
  sender's own path masked), and one
  :meth:`~repro.sim.parallel.ReceiverLanes.phase` over the receiver lanes.
  Every edge is :func:`repro.net.link.serialize`'s expression.
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
packet-level engine (``fast_forward="off"``).  Event counts and
receiver-batch telemetry necessarily *drop* under fast-forward, so
equivalence checks compare virtual time, counters and payloads.

Every gate that declines names its reason in :attr:`FlowFastForward.misses`
(``CollectiveResult.engine["ff_misses"]``); a collective that declined
once runs its remaining phases at packet level (``poisoned``, unless a
shared gate such as ``reference`` names a phase's reason first), because
the fold's cursors can no longer follow the real ones.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.sequencer import effective_chains
from repro.net.link import serialize
from repro.net.topology import host_id, is_host
from repro.sim.parallel import ReceiverLanes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.communicator import Communicator
    from repro.core.ops import OpState
    from repro.core.progress import RankEngine

__all__ = ["FlowFastForward"]

_INF = float("inf")


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
        #: coll_id → its session; ``None`` once the collective fell back
        self._sessions: Dict[int, Optional[_Session]] = {}
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
        simply stops folding."""
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
        if cid not in self._sessions:
            # Coll-ids grow monotonically; forget finished collectives.
            active = {c for e in self.comm.engines for c in e.ops}
            for c in [c for c in self._sessions if c not in active]:
                del self._sessions[c]
        sess = self._sessions.get(cid)
        try:
            reason = self.gate(op, participants)
            if reason is not None:
                raise _Miss(reason)
            if sess is None and cid in self._sessions:
                raise _Miss("poisoned")
            if sess is None:
                sess = self._sessions[cid] = _Session(self, engine, op,
                                                      participants)
            done = sess.phase(engine, op)
        except _Miss as miss:
            if sess is not None:
                sess.abort()
            self._sessions[cid] = None
            self._miss(miss.args[0], engine)
            return None
        if self.comm.cf is not None:
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
        for c in range(1, self.S):
            self.depth[c] = self.depth[par[c]] + 1
        self.switches = sws
        self.nports = [len(ports[name]) for name in names]
        self.up = up
        self.down = down
        self.d = [sw.forwarding_delay for sw in sws]
        dbw = np.array([1.0] + [ch.bandwidth for ch in down[1:]])
        dlat = np.array([0.0] + [ch.latency for ch in down[1:]])
        d = np.array(self.d)
        pa = np.array(par, dtype=np.intp)
        self.levels = [(lo, hi, pa[lo:hi], dbw[lo:hi], dlat[lo:hi], d[lo:hi])
                       for lo, hi in bounds]
        self.chans = (up[1:] + down[1:]
                      + [ch for _, hd, eg in self.host.values()
                         for ch in (hd, eg)])
        self.faulty = {ch for ch in self.chans if ch.fault is not None}
        #: channels one phase crosses: the egress plus every out-port
        self.chans_per_phase = 1 + sum(k - 1 for k in self.nports)


class _Session:
    """The data fold of one collective, built at its first folded phase.

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
        if cfg.transport not in ("ud", "uc"):
            raise _Miss("transport")
        if cfg.n_subgroups != 1:
            raise _Miss("subgroups")
        # The sequencer's own fallback arithmetic: concurrent chains would
        # contend on shared tree links, which the fold cannot serialize.
        if (op.kind == "allgather"
                and effective_chains(len(participants), cfg.n_chains) != 1):
            raise _Miss("chains")
        if op.plan.chunk_size > fabric.mtu:
            raise _Miss("segmented")  # one wire segment per chunk
        T = ff.tree(comm.mcast_gids[0])
        ranks = sorted(participants)
        engines = [comm.engines[r] for r in ranks]
        ops = [e.ops.get(op.coll_id) for e in engines]
        if any(o is None or o.aborted for o in ops):
            raise _Miss("dead")
        if any(o.stats["recoveries"] for o in ops):
            raise _Miss("recovery")
        hosts = [comm.host_of(r) for r in ranks]
        if sorted(hosts) != sorted(T.host):
            raise _Miss("tree")  # receivers must be exactly the tree's hosts
        if not all(ch.fault_inert() for ch in T.chans):
            raise _Miss("fault")
        for e in engines:
            e.settle()
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
        self.hosts = hosts
        att = [T.host[h] for h in hosts]
        self.sw_of = [a[0] for a in att]
        self.hd = [a[1] for a in att]
        self.eg = [a[2] for a in att]
        self.eg_busy = [ch.busy_until for ch in self.eg]
        self.up_busy = [0.0] + [ch.busy_until for ch in T.up[1:]]
        self.down_busy = np.array([0.0] + [ch.busy_until
                                           for ch in T.down[1:]])
        cost = engine.cost
        dma = None if self.uc else (
            np.array([e.dma.bandwidth for e in engines]),
            np.array([e.dma.latency for e in engines]),
            np.array([e.dma.busy_until for e in engines]))
        self.lanes = ReceiverLanes(
            np.array(self.sw_of, dtype=np.intp),
            cost.cqe_poll + cost.cqe_process,
            cost.recv_repost if self.uc else cost.copy_issue + cost.recv_repost,
            np.array([ch.bandwidth for ch in self.hd]),
            np.array([ch.latency for ch in self.hd]),
            np.array([ch.busy_until for ch in self.hd]), dma)
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
        self.target = [o.n_chunks - o.bitmap.count for o in ops]
        self.finished = [not n for n in self.target]
        self.due = [(n, j) for j, n in enumerate(self.target) if n]
        heapify(self.due)
        # Each rank's own byte range; its completion places around it.
        self.own = [(o.plan.bounds(o.send_lo)[0],
                     sum(o.plan.bounds(o.send_hi - 1)))
                    if o.is_sender else (0, 0) for o in ops]
        self.senders = sum(o.is_sender for o in ops)
        self.sent = [False] * len(ranks)
        #: per folded phase: (lane, first psn, chunks, wire bytes, payload
        #: bytes, trains, train packets, doorbell batches)
        self.phases: List[tuple] = []
        self.env: List[float] = []  # running max of each phase's finish
        self.cum = [0]  # chunks folded before each phase
        self.ptr = 0  # phases wholly finished by the current hook
        self.gather = np.empty(op.plan.buffer_len, dtype=np.uint8)
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
        if len(engine.send_cq):  # stale completions would skew the replay
            raise _Miss("stale_cq")
        eg = self.eg[i]
        deadline = self._deadline(t_hook)
        if deadline <= t_hook:
            raise _Miss("deadline")
        lens = [op.plan.bounds(p)[1] for p in range(op.send_lo, op.send_hi)]
        n = len(lens)
        # No-RNR envelope: the posted depth at build must cover every
        # chunk still in flight, this phase's included.
        env = self.env
        while self.ptr < len(env) and env[self.ptr] <= t_hook:
            self.ptr += 1
        if self.cum[-1] - self.cum[self.ptr] + n > self.qlen:
            raise _Miss("qlen")
        header = engine.nic.header_bytes
        wires = [ln + header for ln in lens]
        if min(wires) <= self.bypass:
            raise _Miss("bypass")  # every data packet rides the bulk queue

        # --- sender, then the up-chain from its switch to the root -------
        send_done, eg_fins, batches = _fold_sender(
            engine, t_hook, wires, eg.bandwidth, self.eg_busy[i])
        c = self.sw_of[i]
        lat = eg.latency
        inj = [(f + lat) + T.d[c] for f in eg_fins]
        masks = {}  # depth -> (switch on the sender's path, its injections)
        up = {}
        while c:
            masks[T.depth[c]] = (c, inj)
            ch = T.up[c]
            fins = serialize(inj, wires, ch.bandwidth, self.up_busy[c], 0)
            up[c] = fins[-1]
            p = T.par[c]
            lat = ch.latency
            inj = [(f + lat) + T.d[p] for f in fins]
            c = p
        # --- down the tree, one level at a time per chunk ----------------
        db = self.down_busy.copy()
        rows = np.empty((n, T.S))
        for k, w in enumerate(wires):
            row = rows[k]
            row[0] = inj[k]
            for depth, (lo, hi, par, bw, dlat, d) in enumerate(T.levels, 1):
                new = np.maximum(row[par], db[lo:hi]) + w / bw
                db[lo:hi] = new
                row[lo:hi] = (new + dlat) + d
                m = masks.get(depth)
                if m is not None:  # the sender's path: no down hop
                    db[m[0]] = self.down_busy[m[0]]
                    row[m[0]] = m[1][k]
        # --- receivers ---------------------------------------------------
        got = self.lanes.phase(rows, wires, lens, i)
        if got is None:
            raise _Miss("interleave")
        state, fin_rx = got
        fins = state[3]
        for j in self.strag:
            if j != i and not self.fabric.straggler_inert(
                    self.hosts[j], t_hook, float(fins[j])):
                raise _Miss("straggler")
        fin_all = fin_rx if fin_rx > send_done else send_done
        if fin_all >= deadline:
            raise _Miss("deadline")

        # ------------------------------------------------------- commit
        self.eg_busy[i] = eg_fins[-1]
        for c, busy in up.items():
            self.up_busy[c] = busy
        self.down_busy = db
        self.lanes.commit(state)
        self.sent[i] = True
        trains = [b for b in batches if b >= 2]
        self.phases.append((i, op.send_lo, n, sum(wires), sum(lens),
                            len(trains), sum(trains), len(batches)))
        env.append(fin_all if not env or fin_all > env[-1] else env[-1])
        self.cum.append(self.cum[-1] + n)
        lo = op.plan.bounds(op.send_lo)[0]
        ln = sum(lens)
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
            if t == target[j] and not self.finished[j]:
                done.append(j)
        cf = self.ff.comm.cf
        for j in sorted(done) if done else ():
            self.finished[j] = True
            fin = float(fins[j])
            sim.post_at(fin, self._complete, j)
            if cf is not None:
                cf.publish(op.coll_id, "done", self.ranks[j], fin)
        if len(self.phases) == self.senders:
            self._flush()
            self.live = False
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
        newly = o.bitmap.set_range(0, o.n_chunks)
        o.placed.set_range(0, o.n_chunks)
        lo, hi = self.own[j]
        o.mr.place(0, self.gather, 0, lo)
        o.mr.place(hi, self.gather, hi, len(self.gather) - hi)
        o.stats["chunks_received"] += newly
        o.maybe_complete()

    def _release(self, j: int) -> None:
        o = self.ops[j]
        o.ff_hold -= 1
        o.maybe_complete()

    # -------------------------------------------------------------- flush

    def abort(self) -> None:
        """End the session early: flush every folded phase, then give each
        rank still waiting the chunks it has received so far (bitmap,
        payload, stats), holding its completion until its last folded
        receive finishes.  The packet path resumes from this state."""
        if not self.live:
            return
        self.live = False
        if not self.phases:
            return
        self._flush()
        runs: List[List[int]] = []
        for lo, n in sorted((p[1], p[2]) for p in self.phases):
            if runs and runs[-1][0] + runs[-1][1] == lo:
                runs[-1][1] += n
            else:
                runs.append([lo, n])
        now = self.sim.now
        for j, o in enumerate(self.ops):
            if self.finished[j]:
                continue  # its completion event commits everything
            got = 0
            for psn, n in runs:
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

    def _flush(self) -> None:
        """Write every deferred channel, switch, NIC and DMA counter and
        watermark in one pass.  A phase carries the same packets over every
        channel it crosses, so each channel's counters are a sum of phase
        records: its own phases on a sender's egress, everyone else's on a
        host's switch→host channel, the phases sent from below a switch on
        its up-channel and the rest on its down-channel."""
        T = self.T
        per = np.zeros((len(self.ranks), 6), dtype=np.int64)
        below = np.zeros((T.S, 5), dtype=np.int64)
        for rec in self.phases:
            per[rec[0]] += rec[2:]
            below[self.sw_of[rec[0]]] += rec[2:7]
        total = per[:, :5].sum(axis=0)
        for c in range(T.S - 1, 0, -1):
            below[T.par[c]] += below[c]
        faulty = T.faulty
        lanes = self.lanes
        for j, e in enumerate(self.engines):
            mine = per[j].tolist()
            if mine[0]:
                _count(self.eg[j], self.eg_busy[j], mine[:5], faulty)
                e.send_cq.total_pushed += mine[5]
            rx = (total - per[j, :5]).tolist()
            _count(self.hd[j], float(lanes.hd_busy[j]), rx, faulty)
            packets, payload = rx[0], rx[2]
            e.nic.packets_received += packets
            e.nic.bytes_received += payload
            e.sub_qps[0].recv_cq.total_pushed += packets
            if not self.uc:
                e.dma.busy_until = float(lanes.dma_busy[j])
                e.dma.bytes_copied += payload
                e.dma.ops += packets
                e.stagings[0].reposts += packets
            cursor = float(lanes.cursor[j])
            if cursor > e.ff_resume_floor:
                e.ff_resume_floor = cursor
        for c in range(1, T.S):
            _count(T.up[c], self.up_busy[c], below[c].tolist(), faulty)
            _count(T.down[c], float(self.down_busy[c]),
                   (total - below[c]).tolist(), faulty)
        packets = int(total[0])
        for sw, k in zip(T.switches, T.nports):
            sw.packets_forwarded += packets * (k - 1)


def _count(ch, busy: float, counts: List[int], faulty) -> None:
    """Commit one channel: its watermark and ``(packets, wire bytes,
    payload bytes, trains, train packets)``."""
    packets, wire, payload, trains, train_packets = counts
    ch.busy_until = busy
    ch.packets_sent += packets
    ch.bytes_sent += wire
    ch.payload_bytes_sent += payload
    ch.trains_sent += trains
    ch.train_packets += train_packets
    if ch in faulty:
        # Data packets are always fault-affected kinds; keep the droppable
        # index in lockstep (the spec is inert, so no RNG is consumed).
        ch._droppable_seq += packets


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
