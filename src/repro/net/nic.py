"""Host NIC model: queue pairs, completion queues, send engine, receive path.

The API intentionally mirrors InfiniBand Verbs so that the protocol code in
:mod:`repro.core` reads like its C original:

* :meth:`Nic.create_qp` → ``ibv_create_qp`` (UD / UC / RC service models)
* :meth:`QueuePair.post_recv` / :meth:`QueuePair.post_send`
* :meth:`CompletionQueue.poll` / :meth:`CompletionQueue.wait`
* :meth:`QueuePair.attach_mcast` → ``ibv_attach_mcast``

Transport semantics implemented (paper §II-B):

UD
    Datagrams ≤ MTU, connection-less, unreliable, multicast-capable.  A
    datagram arriving with an empty receive queue is an **RNR drop**
    (counted).  Payload lands in the posted receive buffer; the CQE carries
    the 32-bit immediate (the protocol's PSN).
UC
    Connected, unreliable, arbitrary-length RDMA WRITE (+immediate).  We
    also model the paper's hypothesized *multicast UC write* extension.
    Segments place data directly at the remote address; a message whose
    segments do not all arrive never completes (no CQE) — partial data may
    have been placed, which is exactly why the receiver must track
    completion per chunk.
RC
    Connected, reliable (immune to fault injection): two-sided SEND,
    one-sided WRITE and READ.  Sender completions respect acknowledgement
    timing; READ responses consume the *target's* egress bandwidth.
"""

from __future__ import annotations

import collections
import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import Channel
from repro.net.memory import Memory
from repro.net.packet import MCAST_FLAG, Packet, PacketKind
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric import Fabric
    from repro.sim.engine import Simulator

__all__ = [
    "Transport",
    "Opcode",
    "SendWR",
    "RecvWR",
    "CQE",
    "CompletionQueue",
    "SharedReceiveQueue",
    "QueuePair",
    "Nic",
]


class Transport(enum.Enum):
    UD = "ud"
    UC = "uc"
    RC = "rc"


class Opcode(enum.Enum):
    SEND = "send"  #: tx completion of a SEND
    RDMA_WRITE = "rdma_write"  #: tx completion of a WRITE
    RDMA_READ = "rdma_read"  #: tx completion of a READ (data placed locally)
    RECV = "recv"  #: rx completion of a SEND
    RECV_RDMA_WITH_IMM = "recv_rdma_with_imm"  #: rx completion of WRITE+imm


@dataclass
class SendWR:
    """A send-side work request (single SGE).

    ``verb`` selects SEND / WRITE / READ.  For UD, ``dst``+``dst_qpn`` or
    ``mcast_gid`` routes the datagram.  WRITE/READ address remote memory as
    ``(remote_key, remote_offset)``.
    """

    wr_id: int
    verb: str  # 'send' | 'write' | 'read'
    mr_key: int = 0
    offset: int = 0
    length: int = 0
    #: Inline payload (IB inline send): the data is captured by copy at
    #: post time and needs no memory registration.  Mutually exclusive
    #: with ``mr_key``/``offset``/``length``.
    inline_data: Optional[object] = None
    imm: Optional[int] = None
    dst: Optional[int] = None
    dst_qpn: Optional[int] = None
    mcast_gid: Optional[int] = None
    remote_key: Optional[int] = None
    remote_offset: int = 0
    signaled: bool = True


@dataclass
class RecvWR:
    """A receive-side work request: where an inbound message may land."""

    __slots__ = ("wr_id", "mr_key", "offset", "length")

    wr_id: int
    mr_key: int
    offset: int
    length: int


class CQE:
    """Completion queue entry (slotted: one is allocated per completion)."""

    __slots__ = ("wr_id", "opcode", "qpn", "byte_len", "imm", "src",
                 "src_qpn", "ok", "timestamp")

    def __init__(
        self,
        wr_id: int,
        opcode: Opcode,
        qpn: int,
        byte_len: int = 0,
        imm: Optional[int] = None,
        src: Optional[int] = None,
        src_qpn: Optional[int] = None,
        ok: bool = True,
        timestamp: float = 0.0,
    ) -> None:
        self.wr_id = wr_id
        self.opcode = opcode
        self.qpn = qpn
        self.byte_len = byte_len
        self.imm = imm
        self.src = src
        self.src_qpn = src_qpn
        self.ok = ok
        self.timestamp = timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CQE(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class CompletionQueue:
    """A FIFO of CQEs with an event-channel style waitable."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.items: Deque[CQE] = collections.deque()
        #: parked :meth:`wait` events; allocated by the first one that parks
        self._waiters: Optional[Deque[Event]] = None
        self.total_pushed = 0
        #: one-shot batch-notify callback (see :meth:`set_notify`)
        self.notify_cb = None

    def push(self, cqe: CQE) -> None:
        self.push_at(cqe, self.sim.now)

    def push_at(self, cqe: CQE, t: float) -> None:
        """Push a CQE stamped with an explicit completion instant *t*.

        The INC fold (:class:`repro.net.inc.IncFold`) hands a pass back by
        pushing the CQEs of the packets that arrived before it, stamped
        with their arrival instants.  An armed notify callback fires at
        *t*, at once when *t* has passed.
        """
        cqe.timestamp = t
        self.items.append(cqe)
        self.total_pushed += 1
        cb = self.notify_cb
        if cb is not None:
            self.notify_cb = None
            if t > self.sim.now:
                self.sim.post_at(t, cb)
            else:
                cb()
        while self._waiters:
            self._waiters.popleft().succeed()

    def set_notify(self, fn) -> None:
        """Arm a one-shot callback invoked synchronously on the next push.

        The lightweight sibling of :meth:`wait` for the hot receive edge:
        no Event allocation, no subscription churn — the consumer (a
        passively-parked receive worker) re-arms before each park.  The
        callback is disarmed before it runs, so it may poll and re-arm.
        Callers arm only when the queue is empty; a callback armed on a
        non-empty queue fires on the *next* push, not immediately.
        """
        self.notify_cb = fn

    def poll(self, max_entries: Optional[int] = None) -> List[CQE]:
        """Drain up to ``max_entries`` completions (non-blocking)."""
        n = len(self.items) if max_entries is None else min(max_entries, len(self.items))
        return [self.items.popleft() for _ in range(n)]

    def wait(self) -> Event:
        """Event that fires when the CQ is (or becomes) non-empty."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed()
        elif self._waiters is None:
            self._waiters = collections.deque((ev,))
        else:
            self._waiters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.items)


class _ReceiveQueue:
    """A FIFO of posted receive WRs — a QP's own, or a shared one.

    RC never drops: a message that finds the queue dry is *parked* on it
    (the hardware RNR-retries below the software horizon) and completes,
    in arrival order, as soon as WRs are posted.  ``parked`` therefore
    being non-empty implies ``recv_queue`` is empty.
    """

    __slots__ = ("memory", "max_recv_wr", "recv_queue", "parked", "posted",
                 "parked_total")

    def __init__(self, memory: Memory, max_recv_wr: int,
                 recv_queue: Optional[Deque[RecvWR]] = None) -> None:
        self.memory = memory
        self.max_recv_wr = max_recv_wr
        self.recv_queue: Deque[RecvWR] = (
            collections.deque() if recv_queue is None else recv_queue)
        #: RC messages awaiting a WR, as ``(qp, segments, byte_len, imm,
        #: src, src_qpn)`` — ``segments`` is None for a write-with-imm
        #: notification (data already placed).  Allocated on first park.
        self.parked: Optional[Deque[tuple]] = None
        self.posted = 0  #: WRs ever posted (first posts and re-posts)
        self.parked_total = 0  #: messages that found the queue dry

    def _overflow(self, n: int) -> Exception:
        return RuntimeError(
            f"{self!r}: receive queue full — posting {n} WR(s) overflows "
            f"{len(self.recv_queue)}/{self.max_recv_wr}"
        )

    def post_recv(self, wr: RecvWR) -> None:
        if len(self.recv_queue) >= self.max_recv_wr:
            raise self._overflow(1)
        self.memory.lookup(wr.mr_key).check(wr.offset, wr.length)  # validate
        self.recv_queue.append(wr)
        self.posted += 1
        if self.parked:
            _drain_parked(self)

    def post_recv_cached(self, wr: RecvWR) -> None:
        """Re-post a cached, previously validated WR (paper §V-A "fast
        re-posting"): identical to :meth:`post_recv` minus the MR
        validation, which already ran when the WR was first posted."""
        if len(self.recv_queue) >= self.max_recv_wr:
            raise self._overflow(1)
        self.recv_queue.append(wr)
        self.posted += 1
        if self.parked:
            _drain_parked(self)

    def post_recv_cached_batch(self, wrs: Sequence[RecvWR]) -> None:
        """:meth:`post_recv_cached` for a run of WRs posted at one instant
        (ring prime, bulk repost): one capacity check, one queue extension.
        The same cached WR may fill the whole run."""
        if len(self.recv_queue) + len(wrs) > self.max_recv_wr:
            raise self._overflow(len(wrs))
        self.recv_queue.extend(wrs)
        self.posted += len(wrs)
        if self.parked:
            _drain_parked(self)

    def post_recv_batch(self, wrs: Sequence[RecvWR]) -> None:
        """Equivalent to :meth:`post_recv` per WR: validate each against
        the MR table, then :meth:`post_recv_cached_batch`."""
        lookup = self.memory.lookup
        for wr in wrs:
            lookup(wr.mr_key).check(wr.offset, wr.length)  # validate
        self.post_recv_cached_batch(wrs)


def _drain_parked(rq: _ReceiveQueue) -> None:
    """WRs were posted to *rq*: complete parked RC messages, oldest first
    — whichever attached QP they arrived on."""
    parked = rq.parked
    queue = rq.recv_queue
    while parked and queue:
        qp, segments, byte_len, imm, src, src_qpn = parked.popleft()
        qp.nic._complete_recv(qp, queue.popleft(), segments, byte_len, imm,
                              src, src_qpn)


class SharedReceiveQueue(_ReceiveQueue):
    """``ibv_srq``: one receive queue feeding every QP created with
    ``srq=`` on this host.  An inbound RC message takes the oldest WR
    whichever QP it arrives on, so a fan-in of N connections needs one
    pool of buffers instead of N.  The WRs name MRs in the host
    :class:`Memory`, which all of a host's rail NICs share, so QPs on any
    rail of the host may attach."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<SRQ {len(self.recv_queue)} WRs>"


#: shared empty attachment set of QPs that never joined a multicast group
_NO_GROUPS: frozenset = frozenset()


class QueuePair(_ReceiveQueue):
    """A simulated queue pair.

    Allocation-light: the default CQs are built on first access (a control
    QP sends unsignaled and completes into its plane's shared receive CQ,
    so it never needs either), the multicast attachment set on first
    attach, and a QP created on an SRQ has no receive queue of its own.
    """

    __slots__ = ("nic", "qpn", "transport", "send_cq", "recv_cq", "srq",
                 "peer", "mcast_groups", "rnr_drops")

    def __init__(
        self,
        nic: "Nic",
        qpn: int,
        transport: Transport,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
        max_recv_wr: int = 8192,
        srq: Optional[SharedReceiveQueue] = None,
    ) -> None:
        if srq is None:
            super().__init__(nic.memory, max_recv_wr)
        else:
            # IB gives an SRQ-attached QP no receive queue of its own:
            # it consumes the SRQ's WRs (and parks on the SRQ), and any
            # post through the QP overflows its zero capacity.
            super().__init__(nic.memory, 0, srq.recv_queue)
        self.srq = srq
        self.nic = nic
        self.qpn = qpn
        self.transport = transport
        # NB: explicit None checks — an empty CompletionQueue is falsy.
        # An omitted CQ is left unset and built by __getattr__ on demand.
        if send_cq is not None:
            self.send_cq = send_cq
        if recv_cq is not None:
            self.recv_cq = recv_cq
        self.peer: Optional[Tuple[int, int]] = None  # (host, qpn)
        self.mcast_groups: AbstractSet[int] = _NO_GROUPS
        self.rnr_drops = 0

    def __getattr__(self, name: str):
        # Reached only for an unset slot: build the default CQ lazily.
        if name == "send_cq" or name == "recv_cq":
            cq = self.nic.create_cq()
            setattr(self, name, cq)
            return cq
        raise AttributeError(name)

    def __repr__(self) -> str:
        return f"<QP {self.qpn} {self.transport.value} h{self.nic.host}>"

    def _overflow(self, n: int) -> Exception:
        if self.srq is not None:
            return ValueError(
                f"{self!r} is attached to an SRQ: post receives to the SRQ")
        return super()._overflow(n)

    # ----------------------------------------------------------- connection

    def connect(self, remote_host: int, remote_qpn: int) -> None:
        """Connect a UC/RC QP to its remote counterpart."""
        if self.transport is Transport.UD:
            raise ValueError("UD QPs are connection-less")
        self.peer = (remote_host, remote_qpn)

    def attach_mcast(self, gid: int) -> None:
        """Attach this QP to a multicast group (UD, or UC for the
        hypothetical multicast-write extension)."""
        if self.transport is Transport.RC:
            raise ValueError("RC transport does not support multicast")
        self.nic.attach_mcast(gid, self.qpn)
        if self.mcast_groups is _NO_GROUPS:
            self.mcast_groups = set()
        self.mcast_groups.add(gid)

    def detach_mcast(self, gid: int) -> None:
        self.nic.detach_mcast(gid, self.qpn)
        if gid in self.mcast_groups:
            self.mcast_groups.remove(gid)

    # ------------------------------------------------------------- posting

    def post_send(self, wr: SendWR) -> None:
        self._validate_send(wr)
        self.nic._execute_send(self, wr)

    def _validate_send(self, wr: SendWR) -> None:
        t = self.transport
        if wr.verb not in ("send", "write", "read"):
            raise ValueError(f"unknown verb {wr.verb!r}")
        if t is Transport.UD:
            if wr.verb != "send":
                raise ValueError("UD supports two-sided SEND only")
            if wr.length > self.nic.mtu:
                raise ValueError(
                    f"UD datagram of {wr.length} B exceeds MTU {self.nic.mtu}"
                )
            if wr.mcast_gid is None and (wr.dst is None or wr.dst_qpn is None):
                raise ValueError("UD send needs dst+dst_qpn or mcast_gid")
        elif t is Transport.UC:
            if wr.verb == "read":
                raise ValueError("UC does not support RDMA READ")
            if wr.verb == "write" and wr.remote_key is None:
                raise ValueError("write needs remote_key")
            if wr.mcast_gid is None and self.peer is None:
                raise ValueError("UC QP not connected")
        else:  # RC
            if wr.mcast_gid is not None:
                raise ValueError("RC transport does not support multicast")
            if self.peer is None:
                raise ValueError("RC QP not connected")
            if wr.verb in ("write", "read") and wr.remote_key is None:
                raise ValueError(f"{wr.verb} needs remote_key")
        if wr.inline_data is not None:
            if wr.verb != "send":
                raise ValueError("inline data is only supported for SEND")
            return
        if wr.verb != "read" and wr.length > 0:
            self.nic.memory.lookup(wr.mr_key).check(wr.offset, wr.length)  # validate


class _Reassembly:
    """Tracks arrival of a multi-segment message on the receive side.

    ``imm`` caches the immediate value seen on whichever segment carried
    it — under adaptive-routing reordering the imm-bearing (last-sequence)
    segment is not necessarily the last to *arrive*.
    """

    __slots__ = ("arrived", "segments", "byte_len", "first_ts", "imm", "packets")

    def __init__(self, segments: int) -> None:
        self.arrived = 0
        self.segments = segments
        self.byte_len = 0
        self.first_ts = 0.0
        self.imm = None
        #: RC SEND only: the segments held until a receive WR lands them
        self.packets: Optional[List[Packet]] = None


class Nic:
    """A host NIC attached to the fabric through one egress channel."""

    def __init__(
        self,
        sim: "Simulator",
        host: int,
        fabric: "Fabric",
        mtu: int = 4096,
        header_bytes: int = 64,
        memory: Optional[Memory] = None,
        rail: int = 0,
    ) -> None:
        self.sim = sim
        self.host = host
        self.fabric = fabric
        self.mtu = mtu
        self.header_bytes = header_bytes
        #: which network plane this NIC serves (multi-rail fabrics wire
        #: one NIC per rail; all of a host's NICs share its Memory so an
        #: MR registered once is reachable from any plane)
        self.rail = rail
        self.memory = memory if memory is not None else Memory(host)
        self.egress: Optional[Channel] = None  # wired by the Fabric
        self.qps: Dict[int, QueuePair] = {}
        self._qpn_counter = itertools.count(1)
        self._msg_counter = itertools.count(1)
        self._mcast_attached: Dict[int, List[int]] = collections.defaultdict(list)
        # (src_host, src_qpn, msg_id) -> reassembly state
        self._reassembly: Dict[Tuple[int, int, int], _Reassembly] = {}
        self.rnr_drops = 0
        self.packets_received = 0
        self.bytes_received = 0
        #: fail-stop flag: a dead NIC neither transmits nor receives, wire
        #: or loopback (set by :meth:`fail_stop`, never cleared)
        self.dead = False
        #: observability track (repro.obs.trace.Track) or None; records
        #: timestamps only, never schedules events.
        self.trace = None

    # ----------------------------------------------------------------- verbs

    def create_cq(self, name: str = "") -> CompletionQueue:
        return CompletionQueue(self.sim, name or f"h{self.host}-cq")

    def create_srq(self, max_wr: int = 8192) -> SharedReceiveQueue:
        """``ibv_create_srq``: a receive queue QPs of this host can share."""
        return SharedReceiveQueue(self.memory, max_wr)

    def create_qp(
        self,
        transport: Transport,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
        max_recv_wr: int = 8192,
        srq: Optional[SharedReceiveQueue] = None,
    ) -> QueuePair:
        """``ibv_create_qp``.  Omitted CQs are created on first use.  With
        ``srq`` the QP (RC only) takes its receive WRs from that shared
        queue and ``max_recv_wr`` is ignored, as in IB."""
        if srq is not None:
            if transport is not Transport.RC:
                raise ValueError("only RC QPs can attach to an SRQ")
            if srq.memory is not self.memory:
                raise ValueError("SRQ belongs to another host's memory")
        qpn = next(self._qpn_counter)
        qp = QueuePair(self, qpn, transport, send_cq, recv_cq,
                       max_recv_wr=max_recv_wr, srq=srq)
        self.qps[qpn] = qp
        return qp

    def attach_mcast(self, gid: int, qpn: int) -> None:
        self.fabric.register_mcast_member(gid, self.host)
        if qpn not in self._mcast_attached[gid]:
            self._mcast_attached[gid].append(qpn)

    def adopt_qp(self, qp: QueuePair) -> None:
        """Re-home *qp* (and its multicast attachments) onto this NIC —
        the multi-rail plane-failover path.  A host's rail NICs share its
        Memory, so only the addressing moves: the QP keeps its receive
        queue (its own or its SRQ), CQs, posted WRs and parked messages,
        gets a fresh QPN in this NIC's space, and future sends leave
        through this NIC's plane."""
        old = qp.nic
        if old is self:
            return
        gids = sorted(qp.mcast_groups)
        for gid in gids:
            old.detach_mcast(gid, qp.qpn)
        old.qps.pop(qp.qpn, None)
        qp.qpn = next(self._qpn_counter)
        qp.nic = self
        self.qps[qp.qpn] = qp
        for gid in gids:
            self.attach_mcast(gid, qp.qpn)

    def detach_mcast(self, gid: int, qpn: int) -> None:
        if qpn in self._mcast_attached.get(gid, ()):
            self._mcast_attached[gid].remove(qpn)

    # ------------------------------------------------------------- send path

    def _build_send_packets(self, qp: QueuePair, wr: SendWR):
        """Materialize the wire packets of a non-read send WR.

        Returns ``(wr, packets, dst)`` — ``wr`` is replaced by a copy for
        inline sends (payload snapshotted at post time, IB semantics).  The
        packets refer to what the region holds now
        (:meth:`MemoryRegion.source`): a lazy region's snapshot, a copy of a
        materialised region's bytes.
        """
        base = 0
        if wr.inline_data is not None:
            data = np.asarray(wr.inline_data)
            if data.dtype != np.uint8:
                data = data.view(np.uint8)
            data = data.copy()
            wr = SendWR(wr.wr_id, wr.verb, wr.mr_key, wr.offset,
                        int(data.nbytes), None, wr.imm, wr.dst, wr.dst_qpn,
                        wr.mcast_gid, wr.remote_key, wr.remote_offset,
                        wr.signaled)
        elif wr.length > 0:
            data, base = self.memory.lookup(wr.mr_key).source(wr.offset, wr.length)
        else:
            data = None
        if wr.mcast_gid is not None:
            dst = MCAST_FLAG + wr.mcast_gid
        else:
            dst = wr.dst if qp.transport is Transport.UD else qp.peer[0]
        dst_qpn = wr.dst_qpn if qp.transport is Transport.UD else (
            qp.peer[1] if qp.peer else None
        )
        if wr.verb == "send":
            # UC two-sided behaves like RC
            kind = PacketKind.UD_SEND if qp.transport is Transport.UD else PacketKind.RC_SEND
        else:  # write
            kind = PacketKind.UC_WRITE if qp.transport is Transport.UC else PacketKind.RC_WRITE

        # Segment into MTU-sized packets.
        length = wr.length
        n_seg = max(1, -(-length // self.mtu))
        msg_id = next(self._msg_counter)
        packets = []
        for seg in range(n_seg):
            lo = seg * self.mtu
            hi = min(length, lo + self.mtu)
            pkt = Packet(
                src=self.host,
                dst=dst,
                kind=kind,
                payload=data if hi > lo else None,
                payload_off=base + lo,
                payload_len=hi - lo,
                header_bytes=self.header_bytes,
                imm=wr.imm if seg == n_seg - 1 else None,
                qpn=dst_qpn,
                src_qpn=qp.qpn,
                msg_id=msg_id,
                msg_seq=seg,
                msg_segments=n_seg,
                ctx={"remote_key": wr.remote_key,
                     "remote_offset": wr.remote_offset + lo}
                if wr.verb == "write" else None,
            )
            packets.append(pkt)
        return wr, packets, dst

    def _complete_send(self, qp: QueuePair, wr: SendWR, dst: int, last_finish: float) -> None:
        """Schedule the sender-side CQE of a signaled WR."""
        if not wr.signaled:
            return
        opcode = Opcode.SEND if wr.verb == "send" else Opcode.RDMA_WRITE
        cqe = CQE(wr_id=wr.wr_id, opcode=opcode, qpn=qp.qpn, byte_len=wr.length, imm=wr.imm)
        if qp.transport is Transport.RC:
            # Reliable delivery: completion once the last segment is acked.
            delay = (last_finish - self.sim.now) + self.fabric.one_way_delay(self.host, dst) * 2
            self.sim.post_later(delay, qp.send_cq.push, cqe)
        else:
            # Unreliable: local completion when the last byte hits the wire.
            self.sim.post_at(last_finish, qp.send_cq.push, cqe)

    def _execute_send(self, qp: QueuePair, wr: SendWR) -> None:
        if wr.verb == "read":
            self._execute_read(qp, wr)
            return
        wr, packets, dst = self._build_send_packets(qp, wr)
        for pkt in packets:
            last_finish = self._transmit(pkt)
        self._complete_send(qp, wr, dst, last_finish)

    def post_send_batch(self, items) -> None:
        """Post a sequence of ``(qp, wr)`` send WRs at the current instant
        with one doorbell (§V-A): ``qp.post_send(wr)`` for each item in
        order, every packet through :meth:`_transmit`, except that the
        send completions of a back-to-back run toward one destination are
        scheduled after the run's last packet.  The doorbell-batched
        multicast send worker posts through this path."""
        trc = self.trace
        if trc is not None:
            items = list(items)
            trc.instant("nic.doorbell", self.sim.now, {"wrs": len(items)})
        run: List[tuple] = []  # (qp, wr, dst, last finish) not completed yet

        def flush() -> None:
            for args in run:
                self._complete_send(*args)
            run.clear()

        for qp, wr in items:
            qp._validate_send(wr)
            if wr.verb == "read":
                flush()
                self._execute_read(qp, wr)
                continue
            wr, packets, dst = self._build_send_packets(qp, wr)
            if run and dst != run[-1][2]:
                flush()
            for pkt in packets:
                last_finish = self._transmit(pkt)
            if dst == self.host:  # loopback completes per WR
                self._complete_send(qp, wr, dst, last_finish)
            else:
                run.append((qp, wr, dst, last_finish))
        flush()

    def _execute_read(self, qp: QueuePair, wr: SendWR) -> None:
        """RDMA READ: header-only request; target NIC streams the response."""
        target_host, target_qpn = qp.peer  # validated earlier
        pkt = Packet(
            src=self.host,
            dst=target_host,
            kind=PacketKind.RC_READ_REQ,
            payload=None,
            payload_len=0,
            header_bytes=self.header_bytes,
            qpn=target_qpn,
            src_qpn=qp.qpn,
            ctx={
                "remote_key": wr.remote_key,
                "remote_offset": wr.remote_offset,
                "length": wr.length,
                "sink_key": wr.mr_key,
                "sink_offset": wr.offset,
                "wr_id": wr.wr_id,
                "signaled": wr.signaled,
            },
        )
        self._transmit(pkt)

    def _transmit(self, pkt: Packet) -> float:
        if self.dead:
            return self.sim.now  # dead NIC: packet vanishes, no wire time
        if pkt.dst == self.host:
            # Loopback: no wire, small constant DMA turnaround.
            finish = self.sim.now + self.fabric.loopback_delay
            self.sim.post_at(finish, self.receive, pkt, None)
            return finish
        if self.egress is None:
            raise RuntimeError(f"NIC h{self.host} is not wired to the fabric")
        return self.egress.transmit(pkt)

    # ---------------------------------------------------------- receive path

    def arrive(self, packet: Packet, channel: Channel, at: float) -> None:
        """Hand-over from the delivering channel at transmit time: *at* is
        the arrival instant, where :meth:`receive` runs by event."""
        if at > channel.horizon:
            channel.horizon = at
        self.sim.post_at(at, self.receive, packet, channel)

    def fail_stop(self) -> None:
        """Kill this NIC permanently: it neither transmits nor receives
        from this instant on."""
        self.dead = True
        if self.egress is not None:
            self.egress.down = True

    def receive(self, packet: Packet, channel: Optional[Channel]) -> None:
        """Called by the delivering channel (or loopback)."""
        if self.dead:
            return
        self.packets_received += 1
        self.bytes_received += packet.payload_len
        if packet.kind is PacketKind.INC_REDUCE:
            # Host acting as the reduction root of a switchless INC tree.
            tree = self.fabric._inc_trees.get(packet.mcast_gid)
            if tree is not None:
                from repro.net.topology import host_name

                tree._accumulate(host_name(self.host), host_name(packet.src),
                                 packet)
            return
        if packet.is_multicast:
            for qpn in list(self._mcast_attached.get(packet.mcast_gid, ())):
                qp = self.qps.get(qpn)
                if qp is not None:
                    self._deliver(qp, packet)
            return
        if packet.qpn is None or packet.qpn not in self.qps:
            return  # stale/unroutable packet: silently dropped, like HW
        self._deliver(self.qps[packet.qpn], packet)

    def _deliver(self, qp: QueuePair, packet: Packet) -> None:
        kind = packet.kind
        if kind is PacketKind.UD_SEND:
            self._deliver_ud(qp, packet)
        elif kind is PacketKind.UC_WRITE:
            self._deliver_write(qp, packet, reliable=False)
        elif kind is PacketKind.RC_WRITE:
            self._deliver_write(qp, packet, reliable=True)
        elif kind is PacketKind.RC_SEND:
            self._deliver_rc_send(qp, packet)
        elif kind is PacketKind.RC_READ_REQ:
            self._serve_read(qp, packet)
        elif kind is PacketKind.RC_READ_RESP:
            self._absorb_read_response(qp, packet)

    def _deliver_ud(self, qp: QueuePair, packet: Packet) -> None:
        trc = self.trace
        if not qp.recv_queue:
            qp.rnr_drops += 1
            self.rnr_drops += 1
            if trc is not None:
                trc.instant("nic.rnr", self.sim.now)
            return
        wr = qp.recv_queue.popleft()
        n = packet.payload_len
        if n > wr.length:
            qp.rnr_drops += 1  # buffer too small: local length error ≈ drop
            self.rnr_drops += 1
            if trc is not None:
                trc.instant("nic.rnr", self.sim.now)
            return
        if packet.payload_src is not None and n > 0:
            self.memory.lookup(wr.mr_key).place(
                wr.offset, packet.payload_src, packet.payload_off, n)
        if trc is not None:
            trc.instant("nic.cqe", self.sim.now)
        qp.recv_cq.push(
            CQE(
                wr_id=wr.wr_id,
                opcode=Opcode.RECV,
                qpn=qp.qpn,
                byte_len=n,
                imm=packet.imm,
                src=packet.src,
                src_qpn=packet.src_qpn,
            )
        )

    def _deliver_write(self, qp: QueuePair, packet: Packet, reliable: bool) -> None:
        # Place the segment directly at its remote address.
        ctx = packet.ctx
        try:
            mr = self.memory.lookup(ctx["remote_key"])
            off = ctx["remote_offset"]
            mr.check(off, packet.payload_len)
        except (KeyError, IndexError):
            if reliable:
                raise  # RC would fatally NAK; surface the protocol bug
            return  # UC silently drops bad placements
        if packet.payload_src is not None and packet.payload_len:
            mr.place(off, packet.payload_src, packet.payload_off, packet.payload_len)
        key = (packet.src, packet.src_qpn or 0, packet.msg_id or 0)
        state = self._reassembly.get(key)
        if state is None:
            state = self._reassembly[key] = _Reassembly(packet.msg_segments)
            state.first_ts = self.sim.now
        state.arrived += 1
        state.byte_len += packet.payload_len
        if packet.imm is not None:
            state.imm = packet.imm
        if state.arrived < state.segments:
            return
        del self._reassembly[key]
        # Whole message placed; write-with-immediate consumes a recv WR.
        if state.imm is None:
            return
        if not qp.recv_queue:
            if reliable:
                # RC hardware RNR-retries until a receive shows up; the
                # data is already placed, only the notification is parked.
                self._park(qp, None, state.byte_len, state.imm, packet)
            else:
                qp.rnr_drops += 1
                self.rnr_drops += 1
                if self.trace is not None:
                    self.trace.instant("nic.rnr", self.sim.now)
            return
        self._complete_recv(qp, qp.recv_queue.popleft(), None, state.byte_len,
                            state.imm, packet.src, packet.src_qpn)

    def _deliver_rc_send(self, qp: QueuePair, packet: Packet) -> None:
        if packet.msg_segments == 1:
            # Control messages: one segment, nothing to reassemble.
            segments: Sequence[Packet] = (packet,)
            byte_len = packet.payload_len
            imm = packet.imm
        else:
            key = (packet.src, packet.src_qpn or 0, packet.msg_id or 0)
            state = self._reassembly.get(key)
            if state is None:
                state = self._reassembly[key] = _Reassembly(packet.msg_segments)
                state.packets = []
            state.arrived += 1
            state.byte_len += packet.payload_len
            if packet.imm is not None:
                state.imm = packet.imm
            # Keep the segment's payload until a receive WR lands it.
            state.packets.append(packet)
            if state.arrived < state.segments:
                return
            del self._reassembly[key]
            segments = state.packets
            byte_len = state.byte_len
            imm = state.imm
        if not qp.recv_queue:
            # RC never drops: hardware RNR-retries until a WR shows up.
            self._park(qp, segments, byte_len, imm, packet)
            return
        self._complete_recv(qp, qp.recv_queue.popleft(), segments, byte_len,
                            imm, packet.src, packet.src_qpn)

    def _park(self, qp: QueuePair, segments: Optional[Sequence[Packet]],
              byte_len: int, imm: Optional[int], packet: Packet) -> None:
        """Park a fully arrived RC message on *qp*'s receive queue — its
        SRQ when it has one — until a WR is posted there."""
        rq = qp.srq if qp.srq is not None else qp
        if rq.parked is None:
            rq.parked = collections.deque()
        rq.parked.append((qp, segments, byte_len, imm, packet.src, packet.src_qpn))
        rq.parked_total += 1

    def _complete_recv(self, qp: QueuePair, wr: RecvWR,
                       segments: Optional[Sequence[Packet]], byte_len: int,
                       imm: Optional[int], src, src_qpn) -> None:
        """Complete a whole inbound message into *wr*: land the segments of
        a SEND (any arrival order; placement is by segment sequence number)
        — a write-with-imm (``segments is None``) is already placed."""
        if segments is None:
            opcode = Opcode.RECV_RDMA_WITH_IMM
        else:
            opcode = Opcode.RECV
            if byte_len > wr.length:
                raise RuntimeError(
                    f"RC send of {byte_len} B larger than posted recv of {wr.length} B"
                )
            dst_mr = self.memory.lookup(wr.mr_key)
            for p in segments:
                if p.payload_src is not None and p.payload_len:
                    dst_mr.place(wr.offset + p.msg_seq * self.mtu,
                                 p.payload_src, p.payload_off, p.payload_len)
        if self.trace is not None:
            self.trace.instant("nic.cqe", self.sim.now)
        qp.recv_cq.push(CQE(wr.wr_id, opcode, qp.qpn, byte_len, imm, src, src_qpn))

    # ----------------------------------------------------------- RDMA READ

    def _serve_read(self, qp: QueuePair, packet: Packet) -> None:
        """Target side: stream the requested bytes back (hardware-only)."""
        ctx = packet.ctx
        src_mr = self.memory.lookup(ctx["remote_key"])
        length = ctx["length"]
        data, base = src_mr.source(ctx["remote_offset"], length)
        n_seg = max(1, -(-length // self.mtu))
        msg_id = next(self._msg_counter)
        resps = []
        for seg in range(n_seg):
            lo = seg * self.mtu
            hi = min(length, lo + self.mtu)
            resp = Packet(
                src=self.host,
                dst=packet.src,
                kind=PacketKind.RC_READ_RESP,
                payload=data if hi > lo else None,
                payload_off=base + lo,
                payload_len=hi - lo,
                header_bytes=self.header_bytes,
                qpn=packet.src_qpn,
                src_qpn=qp.qpn,
                msg_id=msg_id,
                msg_seq=seg,
                msg_segments=n_seg,
                ctx={
                    "sink_key": ctx["sink_key"],
                    "sink_offset": ctx["sink_offset"] + lo,
                    "wr_id": ctx["wr_id"],
                    "signaled": ctx["signaled"],
                },
            )
            resps.append(resp)
        for resp in resps:
            self._transmit(resp)

    def _absorb_read_response(self, qp: QueuePair, packet: Packet) -> None:
        ctx = packet.ctx
        if packet.payload_src is not None and packet.payload_len:
            self.memory.lookup(ctx["sink_key"]).place(
                ctx["sink_offset"], packet.payload_src, packet.payload_off,
                packet.payload_len)
        key = (packet.src, packet.src_qpn or 0, packet.msg_id or 0)
        state = self._reassembly.get(key)
        if state is None:
            state = self._reassembly[key] = _Reassembly(packet.msg_segments)
        state.arrived += 1
        state.byte_len += packet.payload_len
        if state.arrived < state.segments:
            return
        del self._reassembly[key]
        if ctx["signaled"]:
            qp.send_cq.push(
                CQE(
                    wr_id=ctx["wr_id"],
                    opcode=Opcode.RDMA_READ,
                    qpn=qp.qpn,
                    byte_len=state.byte_len,
                    src=packet.src,
                )
            )
