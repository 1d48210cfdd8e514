"""RC control plane: synchronization and reliability-layer messaging.

The slow path of the protocol (paper §III-C) runs over reliable connected
QPs: the RNR synchronization barrier before multicasting, activation
signals between chain neighbors (§IV-A), fetch requests/ACKs of the
recovery layer, and the final-handshake packets in the virtual ring.

Design notes
------------
* Control QPs are created lazily and pairwise by the communicator; each
  rank's share one receive CQ drained by a single dispatcher process (the
  UCC backend's progress thread) and one **shared receive queue** (DESIGN.md
  §6g), so bring-up costs O(ranks) however many pairs are created.
* Messages are tiny typed tuples sent as IB *inline* sends — no send-side
  buffer lifetime management.
* The RNR barrier is a dissemination barrier: ``⌈log2 P⌉`` rounds, round k
  sending to ``(me + 2^k) mod P`` and waiting on ``(me − 2^k) mod P``.
  (The paper uses recursive doubling; dissemination has the same round
  count and works for any P, including the 188-rank testbed.)
* Under ``fast_forward="exact"`` the barrier and the final handshake are
  folded into one array pass per phase, and an allgather chain's
  activations into one delivery event each (:class:`ControlFold`,
  DESIGN.md §6i).
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import bypass_arrival, bypass_clear, bypass_fly, bypass_tables
from repro.net.nic import CompletionQueue, QueuePair, RecvWR, SendWR, SharedReceiveQueue
from repro.sim.events import Event, Timeout
from repro.sim.primitives import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.communicator import Communicator
    from repro.core.ops import OpState
    from repro.core.progress import RankEngine
    from repro.net.nic import Nic
    from repro.sim.engine import Simulator

__all__ = ["ControlPlane", "ControlFold", "ControlFoldError", "CtrlMessage",
           "MSG_BARRIER", "MSG_ACTIVATE", "MSG_FETCH_REQ", "MSG_FETCH_ACK",
           "MSG_FINAL", "MSG_PING", "MSG_PONG", "MSG_DEATH"]

MSG_BARRIER = 1
MSG_ACTIVATE = 2
MSG_FETCH_REQ = 3
MSG_FETCH_ACK = 4
MSG_FINAL = 5
#: liveness probe — answered by the dispatcher itself (auto-PONG), so a
#: host is "alive" iff its progress thread still drains its control CQ
MSG_PING = 6
MSG_PONG = 7
#: death notice: ``key`` = the communicator rank confirmed dead.  Consumed
#: by the engine-installed ``on_death`` callback, never by an inbox.
MSG_DEATH = 8

#: message types delivered to an any-source inbox (servers listen for
#: requests regardless of the requester's rank)
_ANY_SOURCE = {MSG_FETCH_REQ}

_WORDS = 6  # mtype, key, src_rank, a0, a1, a2
_SLOT_WORDS = 8  # 32-byte slots
_SLOT_BYTES = _SLOT_WORDS * 4
#: receive slots per slab.  Not a knob: a rank starts with one slab and
#: the dispatcher adds another whenever it wakes to fewer than
#: ``_LOW_WATERMARK`` free slots (the IB SRQ-limit event), so depth tracks
#: the fan-in a rank actually sees.  A burst deeper than the posted slabs
#: is parked by RC's RNR-retry, never dropped.
_SLAB_SLOTS = 32
_LOW_WATERMARK = 8
_U32_MAX = 0xFFFFFFFF
_NEVER = float("-inf")


class ControlFoldError(RuntimeError):
    """A folded control phase met state its gates had excluded (internal)."""


#: ``(src, mtype, key, args)`` — a decoded control message
CtrlMessage = namedtuple("CtrlMessage", "src mtype key args")


class ControlPlane:
    """Per-rank control-plane endpoint of communicator rank *rank* on *nic*.

    ``pair_fn(peer_rank) -> QueuePair``, supplied by the communicator,
    creates or returns the local RC QP connected to *peer_rank*'s control
    plane (creating the remote end too).
    """

    def __init__(
        self,
        sim: "Simulator",
        nic: "Nic",
        rank: int,
        pair_fn: Callable[[int], QueuePair],
        in_flight: List[int],
        per_message_cost: float = 0.0,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.rank = rank
        self._pair_fn = pair_fn
        self.per_message_cost = per_message_cost
        self.recv_cq: CompletionQueue = nic.create_cq(f"ctrl-r{rank}")
        #: the one receive queue every control QP of this rank attaches to
        self.srq: SharedReceiveQueue = nic.create_srq()
        self.qps: Dict[int, QueuePair] = {}
        #: slot slabs: per slab, a ``(slots, words)`` uint32 view of its MR
        self._slabs: List[np.ndarray] = []
        #: cached, validated receive WRs; ``wr_id`` = index = global slot
        self._wrs: List[RecvWR] = []
        self._inboxes: Dict[tuple, Store] = {}
        self.messages_sent = 0
        self.messages_received = 0
        #: ``[n]``: messages sent and not yet served, shared by every plane
        #: of one communicator (the control fold's O(1) idle test)
        self.in_flight = in_flight
        #: peer rank → virtual time of the last message heard from it.
        #: Every control message doubles as a liveness heartbeat, so the
        #: suspicion logic can often clear a peer without spending a probe.
        self.last_heard: Dict[int, float] = {}
        #: ``fn(msg: CtrlMessage)`` invoked for MSG_DEATH notices (installed
        #: by the progress engine); None drops them
        self.on_death: Optional[Callable[[CtrlMessage], None]] = None
        #: when this rank's dispatcher ends its last *folded* service
        self.fold_quiet = _NEVER  # the :class:`ControlFold` cursor
        self._dispatch_proc = sim.spawn(self._dispatch_loop(), name=f"ctrl-dispatch-r{rank}")

    # -------------------------------------------------------------- plumbing

    def adopt_qp(self, peer_rank: int, qp: QueuePair) -> None:
        """Register a connected control QP toward *peer_rank*, created on
        this plane's SRQ; the first adoption posts the first slot slab."""
        if peer_rank in self.qps:
            raise ValueError(f"rank {self.rank}: ctrl QP to {peer_rank} already exists")
        if qp.srq is not self.srq:
            raise ValueError(f"rank {self.rank}: ctrl QP must be created on the plane's SRQ")
        self.qps[peer_rank] = qp
        if not self._slabs:
            self._post_slab()

    def _post_slab(self) -> None:
        """Register one more slab of message slots in the host memory (all
        rails share it, so the slab survives a control-plane migration) and
        post its receive WRs to the SRQ."""
        base = len(self._wrs)
        mr = self.nic.memory.register(_SLAB_SLOTS * _SLOT_BYTES)
        self._slabs.append(mr.buf.view(np.uint32).reshape(_SLAB_SLOTS, _SLOT_WORDS))
        mr.check(0, _SLAB_SLOTS * _SLOT_BYTES)  # the slots tile it: validate once
        wrs = [
            RecvWR(wr_id=base + i, mr_key=mr.key, offset=i * _SLOT_BYTES, length=_SLOT_BYTES)
            for i in range(_SLAB_SLOTS)
        ]
        self._wrs.extend(wrs)
        self.srq.post_recv_cached_batch(wrs)

    @property
    def srq_refills(self) -> int:
        """Slabs added by the low-watermark rule (beyond the first)."""
        return max(len(self._slabs) - 1, 0)

    # ------------------------------------------------------------- messaging

    def send(self, dst_rank: int, mtype: int, key: int, args: Sequence[int] = ()) -> None:
        """Post a control message (non-blocking, reliable, ordered per peer)."""
        if len(args) > _WORDS - 3:
            raise ValueError(f"control message supports up to {_WORDS - 3} args")
        # One pass: OR-ing the fields is negative iff one is, and fits the
        # all-ones word iff every non-negative field does.
        acc = mtype | key
        for a in args:
            acc |= a
        if not 0 <= acc <= _U32_MAX:
            raise ValueError(
                f"control message (mtype={mtype}, key={key}, args={tuple(args)}) "
                f"has a field that does not fit a uint32 word")
        # Always _WORDS words on the wire, unused args zero.
        words = np.array(
            (mtype, key, self.rank, *args) + (0,) * (_WORDS - 3 - len(args)),
            dtype=np.uint32)
        qp = self.qps.get(dst_rank) or self._pair_fn(dst_rank)
        qp.post_send(SendWR(wr_id=0, verb="send", inline_data=words, signaled=False))
        self.messages_sent += 1
        self.in_flight[0] += 1

    def _inbox(self, mtype: int, key: int, src: Optional[int]) -> Tuple[tuple, Store]:
        # Any-source types (servers) get one inbox per type; the message
        # itself carries the key and source.
        ib_key = (mtype,) if mtype in _ANY_SOURCE else (mtype, key, src)
        store = self._inboxes.get(ib_key)
        if store is None:
            store = self._inboxes[ib_key] = Store(self.sim)
        return ib_key, store

    def _retire(self, ib_key: tuple, store: Store) -> None:
        """Drop a keyed inbox that holds no message and no waiter: keys
        are single-use (collective id, round, nonce), so a kept one is
        never read again.  Any-source inboxes stay."""
        if len(ib_key) == 3 and store.idle:
            del self._inboxes[ib_key]

    def recv(self, mtype: int, key: int = 0, src: Optional[int] = None) -> Event:
        """Event yielding the next :class:`CtrlMessage` of this signature.
        ``src`` is required except for any-source types (FETCH_REQ), whose
        single inbox receives requests from every rank and collective."""
        if mtype not in _ANY_SOURCE and src is None:
            raise ValueError(f"mtype {mtype} requires an explicit source rank")
        ib_key, store = self._inbox(mtype, key, src)
        ev = store.get()
        self._retire(ib_key, store)
        return ev

    def _dispatch_loop(self):
        sim = self.sim
        cq = self.recv_cq
        srq = self.srq
        free = srq.recv_queue
        wrs = self._wrs
        slabs = self._slabs
        cost = self.per_message_cost
        while True:
            yield cq.wait()
            if sim.now < self.fold_quiet:
                raise ControlFoldError(f"rank {self.rank}: message at {sim.now} "
                                       f"inside the fold ending {self.fold_quiet}")
            if len(free) < _LOW_WATERMARK and len(wrs) + _SLAB_SLOTS <= srq.max_recv_wr:
                # SRQ limit reached: this wake found the posted slabs
                # (nearly) exhausted by the fan-in — add depth, up to the
                # SRQ's capacity (beyond it RNR parking absorbs the rest).
                self._post_slab()
            for cqe in cq.poll():
                folded = type(cqe) is _Unfolded  # ControlFold.unfold's
                if folded and cqe.until is not None:
                    yield sim.wake_at(cqe.until)  # its service was under way
                elif cost > 0.0:
                    # Progress-thread cycles spent on the control path.
                    yield Timeout(sim, cost)
                if folded:  # no slot to decode or re-post
                    msg = cqe.msg
                    src, mtype, key, _ = msg
                else:
                    slot = cqe.wr_id
                    mtype, key, src, a0, a1, a2 = (
                        slabs[slot // _SLAB_SLOTS][slot % _SLAB_SLOTS, :_WORDS].tolist())
                    msg = CtrlMessage(src, mtype, key, (a0, a1, a2))
                    # Re-post the cached WR immediately (slot content consumed).
                    srq.post_recv_cached(wrs[slot])
                self.messages_received += 1
                self.in_flight[0] -= 1
                self.last_heard[src] = sim.now
                if mtype == MSG_PING:
                    # Liveness probe: the dispatcher answers directly — the
                    # PONG proves this rank's progress loop is alive, which
                    # is exactly the fail-stop property being tested.
                    self.send(src, MSG_PONG, key)
                    continue
                if mtype == MSG_DEATH:
                    if self.on_death is not None:
                        self.on_death(msg)
                    continue
                ib_key, store = self._inbox(mtype, key, src)
                store.put(msg)
                self._retire(ib_key, store)

    # --------------------------------------------------------------- barrier

    def barrier(self, tag: int, ranks: Optional[List[int]] = None,
                me: Optional[int] = None, wait=None, resume: int = -1):
        """Dissemination barrier among *ranks* (generator; ``yield from`` it).

        ``tag`` must be unique per logical barrier instance (e.g. the
        collective id); rounds are disambiguated in the key's low bits.
        *ranks* is required: every participant must pass the **same**
        ordered list (lazily created QPs give ranks different peer sets).

        *me* is this rank's position in *ranks* when the caller already
        knows it (the communicator's per-collective map); otherwise the
        list is searched.  *wait*, a generator ``wait(key, src)``, replaces
        the blocking receive of each round's token (the progress engine
        passes its liveness-bounded receive).  *resume* is the round an
        unfolded barrier (:meth:`ControlFold.unfold`) picks up at: earlier
        rounds are done and that round's token is already on the wire.
        """
        if ranks is None:
            raise ValueError("ControlPlane.barrier requires an explicit, "
                             "identical `ranks` list on every participant")
        if me is None:
            me = ranks.index(self.rank)
        p = len(ranks)
        rnd = max(resume, 0)
        k = 1 << rnd
        while k < p:
            src = ranks[(me - k) % p]
            key = (tag << 6) | rnd
            if rnd != resume:
                self.send(ranks[(me + k) % p], MSG_BARRIER, key)
            if wait is None:
                msg = yield self.recv(MSG_BARRIER, key, src)
                assert msg.mtype == MSG_BARRIER
            else:
                yield from wait(key, src)
            k <<= 1
            rnd += 1
        return None


# --------------------------------------------------------- control-plane fold


class _Miss(Exception):
    """A fold gate declined; ``args[0]`` is the typed reason."""


class _Unfolded:
    """A folded token handed back to a dispatcher's CQ in place of a CQE: the
    decoded message and, if its service was under way, when that ends."""

    __slots__ = ("msg", "until", "timestamp")

    def __init__(self, msg: CtrlMessage, until: Optional[float]) -> None:
        self.msg, self.until = msg, until


class _Folded:
    """One folded phase: ``ends``, when each position leaves it, and what
    :meth:`ControlFold.unfold` needs — per round the inbox ``keys``, sender
    positions ``srcs``, route matrices ``mats`` (over ``chans``) and when each
    token was ``sent``, ``arrived`` and was ``served``, by destination
    position; ``here`` marks the positions whose rank has entered."""

    def __init__(self, **fields) -> None:
        self.__dict__.update(fields)
        self.here = np.zeros(len(self.ctrls), dtype=bool)


class _Coll:
    """One collective's fold state.  The first rank to reach a phase decides
    it for all: ``at[phase]`` is ``False`` for packets, else the fold.  The
    data fold publishes ``sent`` / ``done``: rank → ``run_send`` completion /
    ``data_done`` instant.  ``act`` is the activation chain: ``None`` while
    undecided, ``False`` at packet level, else its last folded token
    ``[plane, msg, arrived, start, served, tail]`` (``tail``: the last)."""

    def __init__(self, t0: float) -> None:
        self.t0 = t0  #: launch instant of every rank's controller
        self.at: Dict[str, object] = {}
        self.t_data: List[float] = []
        self.sent: Dict[int, float] = {}
        self.done: Dict[int, float] = {}
        self.act: Optional[list] = None


class ControlFold:
    """Closed-form RNR barrier, chain activations and final handshake
    (DESIGN.md §6i).

    A control packet rides every channel's bypass lane, so its arrival is a
    fixed float chain along the unicast route (``net.link.bypass_fly``);
    each rank's dispatcher is a serial server charging ``ctrl_message`` per
    CQE in arrival order.  The dissemination barrier is then ⌈log2 P⌉ array
    steps over all ranks, the ring handshake one more and an activation from
    a folded data phase one scalar step.  On any gate miss nothing is
    committed and the packets run; :meth:`unfold` takes unserved tokens back.
    """

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm
        self.sim = comm.sim
        self.folds = 0  #: phases folded
        self.misses: Dict[str, int] = {}  #: gate reason → phases declined
        self._colls: Dict[int, _Coll] = {}
        # Routes of one fabric.fault_epoch: channels by index (0: the null
        # hop padding ragged routes), index tuples by (src host, dst host).
        self._epoch = -1
        self._chans: list = [None]
        self._index: Dict[object, int] = {}
        self._routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        comm.fabric.epoch_listeners.append(self.unfold)

    # ----------------------------------------------------------- engine hooks

    def at(self, phase: str, engine: "RankEngine", op: "OpState",
           participants: List[int], me: int) -> Optional[float]:
        """When position *me* ends *phase* — ``"sync"`` the RNR barrier,
        ``"final"`` the handshake — or ``None`` to run it at packet level."""
        st = self._colls.get(op.coll_id)
        if st is None:
            st = self._colls[op.coll_id] = _Coll(self.sim.now)
        if phase not in st.at:
            fold = self._fold_sync if phase == "sync" else self._fold_final
            try:
                st.at[phase] = f = fold(op, participants, st)
                self.folds += 1
                self._note(engine, phase, "messages", len(f.ctrls) * len(f.keys))
            except _Miss as miss:
                st.at[phase] = False
                self._note(engine, phase, "miss", miss.args[0])
        f = st.at[phase]
        if not f:
            return None
        expected = st.t0 if phase == "sync" else st.t_data[me]
        if self.sim.now != expected:
            raise ControlFoldError(f"position {me} reached folded {phase} at "
                                   f"{self.sim.now}, predicted {expected}")
        f.here[me] = True
        return f.ends[me]

    def _note(self, engine: "RankEngine", phase: str, what: str, arg) -> None:
        if what == "miss":
            self.misses[arg] = self.misses.get(arg, 0) + 1
        if engine.trace is not None:
            engine.trace.instant("engine.ctrl_fold", self.sim.now,
                                 {"phase": phase, what: arg})

    def publish(self, coll_id: int, which: str, rank: int, t: float) -> None:
        """The data fold's hook: *rank*'s ``"sent"`` (``run_send`` completion)
        or ``"done"`` (``data_done``) instant, for the handshake step."""
        st = self._colls.get(coll_id)
        if st is not None:
            getattr(st, which)[rank] = t

    def forget(self, coll_id: int) -> None:
        self._colls.pop(coll_id, None)

    def unfold(self) -> None:
        """Hand every folded phase not over yet — barrier, handshake or
        activation chain — back to the packet path: a collective is being
        admitted, a recovery started or the fault state is about to change.
        A token not yet sent is taken back out of the counters, for its
        sender to send for real; one on the wire reaches its dispatcher's CQ
        at the folded arrival, which the bypass lane fixes (it takes no SRQ
        slot).  A rank asleep in a folded phase is interrupted with the
        barrier round whose token it awaits."""
        now, asleep = self.sim.now, []
        for cid, st in self._colls.items():
            for phase, f in st.at.items():
                if not f or max(f.ends) <= now:
                    continue
                st.at[phase] = False
                self.folds -= 1
                sent = [f.here[src] & (t <= now) for src, t in zip(f.srcs, f.sent)]
                self._count(f, -1, [~w for w in sent])
                left = sum(d > now for d in f.served)  # tokens yet to be served
                turn = np.arange(len(left))  # who acted first at equal instants
                for k, (mtype, key) in enumerate(f.keys):
                    # Events at one instant fire in the order of their causes:
                    # a round's tokens as their senders last acted, the next
                    # round's senders as they were served.
                    order = np.lexsort((turn[f.srcs[k]], f.sent[k]))
                    turn = np.lexsort((order.argsort(), f.arrived[k], f.served[k])).argsort()
                    for i in order.tolist():
                        c, a, d = f.ctrls[i], float(f.arrived[k][i]), float(f.served[k][i])
                        msg = CtrlMessage(f.participants[f.srcs[k][i]], mtype, key, (0, 0, 0))
                        if d <= now:
                            if not f.here[i]:  # served ahead of the rank's ask
                                c._inbox(mtype, key, msg.src)[1].put(msg)
                            continue
                        c.fold_quiet = _NEVER  # the CQ orders what is left
                        if not sent[k][i]:
                            continue
                        c.messages_received -= 1  # counted when served
                        c.in_flight[0] += 1
                        # queued (the first of them mid-service) or on the wire
                        mid = a <= now and k == len(f.keys) - left[i]
                        self.sim.post_at(max(a, now), c.recv_cq.push,
                                         _Unfolded(msg, d if mid else None))
                asleep += [(cid, r, len(f.keys) - n) for r, here, end, n in zip(
                    f.participants, f.here, f.ends, left.tolist()) if here and end > now]
                self._note(self.comm.engines[0], phase, "miss", "preempted")
            tok = st.act
            if tok and not (tok[5] and tok[4] <= now):
                st.act = False
                self.folds -= 1
                self._note(self.comm.engines[0], "activate", "miss", "preempted")
                c, msg, a, start, served, _ = tok
                if served > now:
                    tok[0] = None  # not delivered by the fold
                    c.fold_quiet = _NEVER
                    c.messages_received -= 1
                    c.in_flight[0] += 1
                    self.sim.post_at(max(a, now), c.recv_cq.push,
                                     _Unfolded(msg, served if start <= now else None))
        for cid, rank, rnd in asleep:
            dict(self.comm._op_procs[cid])[rank].interrupt(rnd)

    # ------------------------------------------------------------ activation

    def activate(self, engine: "RankEngine", op: "OpState",
                 participants: List[int], me: int) -> bool:
        """Position *me*'s ``MSG_ACTIVATE`` to the next, sent now.  ``True``
        when folded: arriving at ``A``, it is served at ``D = max(A,
        fold_quiet) + cost``, when one event puts it in the successor's inbox."""
        comm, st = self.comm, self._colls.get(op.coll_id)
        src, dst = participants[me], participants[me + 1]
        c = comm.engines[dst].ctrl
        wire = _WORDS * 4 + c.nic.header_bytes
        chans = comm.fabric.unicast_route(comm.hosts[src], comm.hosts[dst])
        if chans is None or not all(bypass_clear(ch, wire) for ch in chans):
            chans = None  # unroutable, or a channel would touch the packet
        else:
            a = bypass_arrival(self.sim.now, chans, wire)
        try:
            if st is None or st.act is False:
                raise _Miss(None)  # the chain runs at packet level
            horizon = comm.ff.horizon(op.coll_id)  # None unless the data fold is live
            if comm.config.failure_policy is not None:
                raise _Miss("live")
            if comm.fabric.reference:
                raise _Miss("reference")  # the data fold's first gate
            if horizon is None:
                raise _Miss("data_unfolded")
            if c.in_flight[0] or len(c.recv_cq):
                raise _Miss("dispatcher_busy")
            if chans is None:
                raise _Miss("fault")
            quiet, sync = c.fold_quiet, st.at.get("sync")
            # Served in arrival order: after every folded barrier token.
            if a < quiet and not (sync and a > sync.arrived[-1][me + 1]):
                raise _Miss("overlap")
            start = a if a > quiet else quiet
            served = start + c.per_message_cost
            if served >= horizon:
                raise _Miss("deadline")  # a cutoff could fire first
        except _Miss as miss:
            if miss.args[0] is not None:
                self.folds -= st.act is not None  # folded so far: packets on
                st.act = False
                self._note(engine, "activate", "miss", miss.args[0])
            if self.sim.now < c.fold_quiet and not (chans and a >= c.fold_quiet):
                self.unfold()  # the packet would land in a folded window
            return False
        if st.act is None:
            self.folds += 1
            self._note(engine, "activate", "messages", len(participants) - 1)
        for ch in chans:
            self._charge(ch, 1, wire)
        comm.engines[src].ctrl.messages_sent += 1
        c.messages_received += 1
        c.nic.packets_received += 1
        c.nic.bytes_received += _WORDS * 4
        c.last_heard[src] = c.fold_quiet = served
        st.act = [c, CtrlMessage(src, MSG_ACTIVATE, op.coll_id, (0, 0, 0)),
                  a, start, served, me + 2 == len(participants)]
        self.sim.post_at(served, self._deliver, st.act)
        return True

    @staticmethod
    def _deliver(tok: list) -> None:
        """A folded activation's service ends, unless :meth:`unfold` took it."""
        c, msg = tok[0], tok[1]
        if c is not None:
            ib_key, store = c._inbox(MSG_ACTIVATE, msg.key, msg.src)
            store.try_put(msg)
            c._retire(ib_key, store)

    # ------------------------------------------------------------------ gates

    def _gate(self, op: "OpState", participants: List[int], fan_in: int):
        """The gates that need no route; returns ``(planes, hosts, wire)``."""
        comm = self.comm
        if comm.config.failure_policy is not None:
            raise _Miss("live")  # every receive is liveness-bounded
        reason = comm.ff.gate(op, participants) or (
            comm.fabric.stragglers_armed and "straggler")
        if reason:
            raise _Miss(reason)
        ctrls = [comm.engines[r].ctrl for r in participants]
        for c in ctrls:  # in flight, queued or mid-service
            if c.in_flight[0] or len(c.recv_cq):
                raise _Miss("dispatcher_busy")
            free = len(c.srq.recv_queue) if c._slabs else _SLAB_SLOTS
            if free - fan_in < _LOW_WATERMARK:
                raise _Miss("srq_depth")  # a slab would be posted mid-phase
        if comm.fabric.fault_epoch != self._epoch:
            self._epoch = comm.fabric.fault_epoch
            self._chans, self._index, self._routes = [None], {}, {}
        return (ctrls, np.array([comm.hosts[r] for r in participants]),
                _WORDS * 4 + ctrls[0].nic.header_bytes)

    # ----------------------------------------------------------------- routes

    def _route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Channel indices of the unicast route host *src* → host *dst*."""
        walk = self.comm.fabric.unicast_route(src, dst)
        if walk is None:
            raise _Miss("fault")  # unroutable
        index, chans = self._index, self._chans
        for ch in walk:
            if ch not in index:
                index[ch] = len(chans)
                chans.append(ch)
        return tuple(map(index.__getitem__, walk))

    def _matrix(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """``[n, hops]`` route matrix of the messages host ``src[i]`` → host
        ``dst[i]``, short routes padded with the null hop."""
        routes = self._routes
        rows = [routes.get(p) or routes.setdefault(p, self._route(*p))
                for p in zip(src.tolist(), dst.tolist())]
        width = max(map(len, rows))
        return np.array([r + (0,) * (width - len(r)) for r in rows],
                        dtype=np.intp)

    def _tables(self, wire: int):
        """Gate every route channel; the tables :func:`bypass_fly` indexes."""
        if not all(bypass_clear(ch, wire) for ch in self._chans[1:]):
            raise _Miss("fault")
        return bypass_tables(self._chans[1:], wire)

    # ------------------------------------------------------------------ folds

    def _fold_sync(self, op: "OpState", participants: List[int], st: _Coll):
        n = len(participants)
        rounds = (n - 1).bit_length()
        ctrls, hosts, wire = self._gate(op, participants, rounds)
        pos = np.arange(n)
        srcs = [(pos - (1 << k)) % n for k in range(rounds)]
        mats = [self._matrix(hosts[src], hosts) for src in srcs]
        # What follows the barrier: the ring's MSG_FINAL (right → me).  An
        # activation is folded with its real instant, or unfolds the barrier.
        right = (pos + 1) % n
        after = self._matrix(hosts[right], hosts)
        tables = self._tables(wire)
        s = np.full(n, self.sim.now)
        cursor = np.array([c.fold_quiet for c in ctrls])
        sent, arrived, served = [], [np.full(n, _NEVER)], []
        for src, mat in zip(srcs, mats):
            sent.append(s[src])
            a = bypass_fly(sent[-1], mat, tables)
            # A later round's token overtaking an earlier is served first.
            if not (a > arrived[-1]).all():
                raise _Miss("reorder")
            arrived.append(a)
            cursor = np.maximum(a, cursor) + ctrls[0].per_message_cost
            served.append(cursor)
            s = np.maximum(s, cursor)
        # A MSG_FINAL leaves once its sender holds all data, which was sent
        # after every sender's t_sync — and a broadcast's then crossed the
        # receiver's access link (the last real hop of any route to it).
        leave = np.full(n, s.max())
        if op.kind == "broadcast":
            m, root = mats[0], participants.index(op.root)
            leave = np.maximum(
                s, s[root] + tables[1][m[pos, (m != 0).sum(axis=1) - 1]])
            leave[root] = s[root]
        # It must find the receiving dispatcher past its folded tokens.
        if not (cursor <= bypass_fly(leave[right], after, tables)).all():
            raise _Miss("overlap")
        keys = [(MSG_BARRIER, (op.coll_id << 6) | k) for k in range(rounds)]
        return self._commit(_Folded(
            ends=s.tolist(), participants=participants, ctrls=ctrls, wire=wire,
            keys=keys, srcs=srcs, mats=mats, sent=sent, arrived=arrived[1:],
            served=served))

    def _fold_final(self, op: "OpState", participants: List[int], st: _Coll):
        n = len(participants)
        ctrls, hosts, wire = self._gate(op, participants, 1)
        t_data = np.empty(n)
        for i, r in enumerate(participants):
            o = self.comm.engines[r].ops[op.coll_id]
            # A rank enters its data wait no earlier than it left the barrier.
            sync = o.phases.get("sync", st.at["sync"] and st.at["sync"].ends[i])
            if (o.stats["recoveries"] or sync is False
                    or (r not in st.done and o.own_chunks != o.n_chunks)
                    or (r not in st.sent and o.is_sender)):
                raise _Miss("data_unfolded")
            t_data[i] = max(sync, st.done.get(r, sync), st.sent.get(r, sync))
        right = (np.arange(n) + 1) % n  # each rank sends MSG_FINAL leftwards
        mat = self._matrix(hosts[right], hosts)
        arrived = bypass_fly(t_data[right], mat, self._tables(wire))
        cursor = np.array([c.fold_quiet for c in ctrls])
        served = np.maximum(arrived, cursor) + ctrls[0].per_message_cost
        st.t_data = t_data.tolist()
        return self._commit(_Folded(
            ends=np.maximum(t_data, served).tolist(), participants=participants,
            ctrls=ctrls, wire=wire, keys=[(MSG_FINAL, op.coll_id)], srcs=[right],
            mats=[mat], sent=[t_data[right]], arrived=[arrived], served=[served]))

    def _commit(self, f: _Folded) -> _Folded:
        """Leave behind what *f*'s tokens would have: the counters, each
        sender's heartbeat at its receiver, and the dispatcher cursors."""
        f.chans = self._chans  # this epoch's; a later one starts a new list
        self._count(f, 1, [np.ones(len(f.ctrls), dtype=bool)] * len(f.srcs))
        for c, quiet in zip(f.ctrls, f.served[-1].tolist()):
            c.fold_quiet = quiet
        for src, at in zip(f.srcs, f.served):
            for c, j, t in zip(f.ctrls, src.tolist(), at.tolist()):
                c.last_heard[f.participants[j]] = t
        return f

    def _count(self, f: _Folded, sign: int, which: List[np.ndarray]) -> None:
        """Add (*sign* 1) or take back (-1) what the tokens *which* — per
        round, a mask by destination position — leave in the counters: along
        every route, at the receiving NIC, on both control planes."""
        chans, n = f.chans, len(f.ctrls)
        counts = sum(np.bincount(m[w].ravel(), minlength=len(chans))
                     for m, w in zip(f.mats, which))
        payload = _WORDS * 4
        for i in np.flatnonzero(counts[1:]) + 1:
            self._charge(chans[i], sign * int(counts[i]), f.wire)
        gave = sum(np.bincount(src[w], minlength=n) for src, w in zip(f.srcs, which))
        for c, tx, rx in zip(f.ctrls, (sign * gave).tolist(),
                             (sign * sum(which)).tolist()):
            c.messages_sent += tx
            c.messages_received += rx
            c.nic.packets_received += rx
            c.nic.bytes_received += rx * payload

    def _charge(self, ch, k: int, wire: int) -> None:
        """*k* control packets (negative: taken back) crossed channel *ch*."""
        ch.packets_sent += k
        ch.bytes_sent += k * wire
        ch.payload_bytes_sent += k * _WORDS * 4
        sw = self.comm.fabric.switches.get(ch.src_name)
        if sw is not None:
            sw.packets_forwarded += k

