"""RC control plane: synchronization and reliability-layer messaging.

The slow path of the protocol (paper §III-C) runs over reliable connected
QPs: the RNR synchronization barrier before multicasting, activation
signals between chain neighbors (§IV-A), fetch requests/ACKs of the
recovery layer, and the final-handshake packets in the virtual ring.

Design notes
------------
* Control QPs are created lazily and pairwise by the communicator; each
  rank's control QPs share one receive CQ drained by a single dispatcher
  process (mirroring the single progress thread of the UCC backend) and
  one **shared receive queue** (DESIGN.md §6g): a slab of message slots
  is registered and posted once per rank, not per connection, so bring-up
  costs O(ranks) however many pairs the collectives end up creating.
* Messages are tiny typed tuples sent as IB *inline* sends — no send-side
  buffer lifetime management.
* The RNR barrier is a dissemination barrier: ``⌈log2 P⌉`` rounds, round k
  sending to ``(me + 2^k) mod P`` and waiting on ``(me − 2^k) mod P``.
  (The paper uses recursive doubling; dissemination has the same round
  count and works for any P, including the 188-rank testbed.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.nic import CompletionQueue, QueuePair, RecvWR, SendWR, SharedReceiveQueue
from repro.sim.events import Event, Timeout
from repro.sim.primitives import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.nic import Nic
    from repro.sim.engine import Simulator

__all__ = [
    "ControlPlane",
    "CtrlMessage",
    "MSG_BARRIER",
    "MSG_ACTIVATE",
    "MSG_FETCH_REQ",
    "MSG_FETCH_ACK",
    "MSG_FINAL",
    "MSG_PING",
    "MSG_PONG",
    "MSG_DEATH",
]

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


class CtrlMessage(tuple):
    """``(src_rank, mtype, key, args)`` — a decoded control message."""

    __slots__ = ()

    def __new__(cls, src_rank: int, mtype: int, key: int, args: Tuple[int, ...]):
        return super().__new__(cls, (src_rank, mtype, key, args))

    @property
    def src(self) -> int:
        return self[0]

    @property
    def mtype(self) -> int:
        return self[1]

    @property
    def key(self) -> int:
        return self[2]

    @property
    def args(self) -> Tuple[int, ...]:
        return self[3]


class ControlPlane:
    """Per-rank control-plane endpoint.

    Parameters
    ----------
    sim, nic:
        Simulator and this rank's NIC.
    rank:
        Communicator-relative rank of this endpoint.
    pair_fn:
        ``pair_fn(peer_rank) -> QueuePair`` — supplied by the communicator;
        creates/returns the local RC QP connected to *peer_rank*'s control
        plane (creating the remote end too).
    """

    def __init__(
        self,
        sim: "Simulator",
        nic: "Nic",
        rank: int,
        pair_fn: Callable[[int], QueuePair],
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
        #: peer rank → virtual time of the last message heard from it.
        #: Every control message doubles as a liveness heartbeat, so the
        #: suspicion logic can often clear a peer without spending a probe.
        self.last_heard: Dict[int, float] = {}
        #: ``fn(msg: CtrlMessage)`` invoked for MSG_DEATH notices (installed
        #: by the progress engine); None drops them
        self.on_death: Optional[Callable[[CtrlMessage], None]] = None
        self._dispatch_proc = sim.spawn(self._dispatch_loop(), name=f"ctrl-dispatch-r{rank}")

    # -------------------------------------------------------------- plumbing

    def adopt_qp(self, peer_rank: int, qp: QueuePair) -> None:
        """Register a connected control QP toward *peer_rank* (called by
        the communicator when pairing).  The QP must have been created on
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
        wrs = [
            RecvWR(wr_id=base + i, mr_key=mr.key, offset=i * _SLOT_BYTES, length=_SLOT_BYTES)
            for i in range(_SLAB_SLOTS)
        ]
        self._wrs.extend(wrs)
        self.srq.post_recv_batch(wrs)

    @property
    def srq_refills(self) -> int:
        """Slabs added by the low-watermark rule (beyond the first)."""
        return max(len(self._slabs) - 1, 0)

    def _qp_to(self, peer_rank: int) -> QueuePair:
        qp = self.qps.get(peer_rank)
        if qp is None:
            qp = self._pair_fn(peer_rank)
        return qp

    # ------------------------------------------------------------- messaging

    def send(self, dst_rank: int, mtype: int, key: int, args: Sequence[int] = ()) -> None:
        """Post a control message (non-blocking, reliable, ordered per peer)."""
        if len(args) > _WORDS - 3:
            raise ValueError(f"control message supports up to {_WORDS - 3} args")
        # Always _WORDS words on the wire, unused args zero.
        fields = (mtype, key, self.rank, *args) + (0,) * (_WORDS - 3 - len(args))
        if min(fields) < 0 or max(fields) > _U32_MAX:
            raise ValueError(
                f"control message (mtype={mtype}, key={key}, args={tuple(args)}) "
                f"has a field that does not fit a uint32 word")
        words = np.array(fields, dtype=np.uint32)
        qp = self._qp_to(dst_rank)
        qp.post_send(SendWR(wr_id=0, verb="send", inline_data=words, signaled=False))
        self.messages_sent += 1

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
        single inbox receives requests from every rank and collective.
        """
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
            if len(free) < _LOW_WATERMARK and len(wrs) + _SLAB_SLOTS <= srq.max_recv_wr:
                # SRQ limit reached: this wake found the posted slabs
                # (nearly) exhausted by the fan-in — add depth, up to the
                # SRQ's capacity (beyond it RNR parking absorbs the rest).
                self._post_slab()
            for cqe in cq.poll():
                if cost > 0.0:
                    # Progress-thread cycles spent on the control path.
                    yield Timeout(sim, cost)
                slot = cqe.wr_id
                mtype, key, src, a0, a1, a2 = (
                    slabs[slot // _SLAB_SLOTS][slot % _SLAB_SLOTS, :_WORDS].tolist())
                msg = CtrlMessage(src, mtype, key, (a0, a1, a2))
                # Re-post the cached WR immediately (slot content consumed).
                srq.post_recv_cached(wrs[slot])
                self.messages_received += 1
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
                me: Optional[int] = None):
        """Dissemination barrier among *ranks* (generator; ``yield from`` it).

        ``tag`` must be unique per logical barrier instance (e.g. the
        collective id); rounds are disambiguated in the key's low bits.

        *ranks* is required: every participant must pass the **same**
        ordered list.  Deriving it from the set of already-created control
        QPs (as an earlier revision did) is wrong in general — lazy QP
        creation means different ranks can observe different peer sets,
        deadlocking the dissemination pattern.

        *me* is this rank's position in *ranks* when the caller already
        knows it (the communicator's per-collective map); otherwise the
        list is searched.
        """
        if ranks is None:
            raise ValueError(
                "ControlPlane.barrier requires an explicit, identical `ranks` "
                "list on every participant; deriving it from the lazily "
                "created control QPs is unreliable"
            )
        if me is None:
            me = ranks.index(self.rank)
        p = len(ranks)
        k = 1
        rnd = 0
        while k < p:
            dst = ranks[(me + k) % p]
            src = ranks[(me - k) % p]
            key = (tag << 6) | rnd
            self.send(dst, MSG_BARRIER, key)
            msg = yield self.recv(MSG_BARRIER, key, src)
            assert msg.mtype == MSG_BARRIER
            k <<= 1
            rnd += 1
        return None
