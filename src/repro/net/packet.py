"""Packets on the simulated wire.

A :class:`Packet` is the unit the link/switch layer moves around.  Its
payload is a **reference** ``(array, offset, length)`` to the bytes the
sender's memory region held at post (``MemoryRegion.source``): a lazy
region's immutable snapshot, or a private copy of a materialised region's
bytes.  The receive path places that reference into the destination
region (``MemoryRegion.place``); no byte is copied on the wire.

Packet sizes on the wire include a configurable per-packet header overhead
(IB LRH+GRH+BTH+ICRC etc.); traffic counters can report either wire bytes
or payload bytes.

:class:`Packet` is a hand-written ``__slots__`` class rather than a
dataclass: packet construction is a hot allocation site, and slotted
instances are both smaller and faster to create (``dataclass(slots=True)``
needs Python ≥3.10; the CI matrix includes 3.9).

A packet is immutable once built: a switch replicates a multicast packet
by handing the *same* object to every egress port, and every receiver
reads that one object (DESIGN.md §6b).  Its ``ctx`` is therefore a
read-only mapping.

:class:`PacketTrain` is the fast-path unit: a back-to-back run of packets
of one flow that a fault-free channel serialized with a single event (see
:meth:`repro.net.link.Channel.transmit_train`).
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["PacketKind", "Packet", "PacketTrain", "MCAST_FLAG"]

#: Destination ids at or above this value denote multicast group ids
#: (``MCAST_FLAG + gid``), mirroring the IB multicast LID range.
MCAST_FLAG = 1 << 24

#: the ``ctx`` of every packet built without one
_NO_CTX: Mapping = MappingProxyType({})


class PacketKind(enum.Enum):
    """What the packet carries, i.e. which receive path handles it."""

    UD_SEND = "ud_send"  #: datagram with immediate data (multicastable)
    UC_WRITE = "uc_write"  #: segment of an RDMA write (multicastable ext.)
    RC_SEND = "rc_send"  #: reliable two-sided send
    RC_WRITE = "rc_write"  #: segment of a reliable one-sided write
    RC_READ_REQ = "rc_read_req"  #: read request (header-only)
    RC_READ_RESP = "rc_read_resp"  #: segment of a read response
    INC_REDUCE = "inc_reduce"  #: in-network-compute contribution (SHARP-like)
    CONTROL = "control"  #: protocol-internal control datagram


class Packet:
    """One wire packet.

    Attributes
    ----------
    src:
        Sender host id.
    dst:
        Destination host id, or ``MCAST_FLAG + gid`` for multicast.
    kind:
        The :class:`PacketKind`.
    payload_src / payload_off:
        The ``uint8`` array holding the payload and the payload's offset in
        it (``payload_src`` is ``None`` for header-only packets such as read
        requests).  The array is never written while a packet refers to it.
        :attr:`payload` is the payload as a view.
    payload_len:
        Length in bytes of the payload (kept explicitly so header-only
        packets can still declare a logical length, e.g. read requests).
    header_bytes:
        Per-packet header overhead added to the wire size.
    imm:
        32-bit immediate value (the Broadcast protocol stores the PSN here).
    qpn:
        Destination queue-pair number (ignored for multicast, where the
        group id selects attached QPs).
    src_qpn:
        Sender queue-pair number (reported in receive CQEs, UD-style).
    msg_id / msg_seq / msg_segments:
        Multi-packet message bookkeeping (UC/RC writes, read responses):
        which message this segment belongs to, its index, and the total
        segment count.
    ctx:
        Read-only per-packet context used by NIC internals (e.g. remote
        address of a write segment): a view of the dict given at build.
    """

    __slots__ = (
        "src",
        "dst",
        "kind",
        "payload_src",
        "payload_off",
        "payload_len",
        "header_bytes",
        "imm",
        "qpn",
        "src_qpn",
        "msg_id",
        "msg_seq",
        "msg_segments",
        "ctx",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: PacketKind,
        payload: Optional[np.ndarray] = None,
        payload_len: int = 0,
        header_bytes: int = 64,
        imm: Optional[int] = None,
        qpn: Optional[int] = None,
        src_qpn: Optional[int] = None,
        msg_id: Optional[int] = None,
        msg_seq: int = 0,
        msg_segments: int = 1,
        ctx: Optional[dict] = None,
        payload_off: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload_src = payload
        self.payload_off = payload_off
        if payload is not None and payload_len == 0:
            payload_len = int(payload.nbytes) - payload_off
        self.payload_len = payload_len
        self.header_bytes = header_bytes
        self.imm = imm
        self.qpn = qpn
        self.src_qpn = src_qpn
        self.msg_id = msg_id
        self.msg_seq = msg_seq
        self.msg_segments = msg_segments
        self.ctx: Mapping = MappingProxyType(ctx) if ctx else _NO_CTX

    @property
    def payload(self) -> Optional[np.ndarray]:
        """The payload bytes as a read-only-by-contract view (``None`` for a
        header-only packet)."""
        src = self.payload_src
        if src is None:
            return None
        off = self.payload_off
        return src[off : off + self.payload_len]

    # ------------------------------------------------------------------ size

    @property
    def wire_bytes(self) -> int:
        """Bytes occupied on the wire (payload + header overhead)."""
        return self.payload_len + self.header_bytes

    @property
    def is_multicast(self) -> bool:
        return self.dst >= MCAST_FLAG

    @property
    def mcast_gid(self) -> int:
        """Multicast group id (only valid when :attr:`is_multicast`)."""
        if not self.is_multicast:
            raise ValueError("not a multicast packet")
        return self.dst - MCAST_FLAG

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = f"mcast:{self.mcast_gid}" if self.is_multicast else str(self.dst)
        return (
            f"<Packet {self.kind.value} {self.src}->{dst} "
            f"len={self.payload_len} imm={self.imm}>"
        )


class PacketTrain:
    """A back-to-back run of same-flow packets moved as one queue event.

    ``arrivals[i]`` is the exact per-packet delivery instant the per-packet
    slow path would have produced; receivers replay them via a chained
    delivery (one pending event per train, never one per packet), so CQE
    timestamps and RNR decisions are identical to per-packet simulation.
    ``next_idx`` is the receiver-side replay cursor.
    """

    __slots__ = ("packets", "arrivals", "next_idx")

    def __init__(self, packets: List[Packet], arrivals: Sequence[float]) -> None:
        self.packets = packets
        self.arrivals = arrivals
        self.next_idx = 0

    def __len__(self) -> int:
        return len(self.packets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PacketTrain n={len(self.packets)} t0={self.arrivals[0]:.9f}>"


def mcast_dst(gid: int) -> int:
    """Encode multicast group *gid* as a packet destination id."""
    if gid < 0:
        raise ValueError("group id must be non-negative")
    return MCAST_FLAG + gid
