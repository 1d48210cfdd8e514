"""Registered memory regions — the RDMA MR model.

Every buffer the NIC may touch must be *registered*, producing a
:class:`MemoryRegion` with a key.  Remote peers address memory as
``(rkey, offset)``; the owning NIC resolves the key in its host's
:class:`Memory`.  Buffers are numpy ``uint8`` arrays, and all protocol data
movement operates on zero-copy views of them.

Regions are **lazily backed** (DESIGN.md §6h).  A region allocated by size
starts as a length plus an ordered list of *placements* ``(dst_offset,
source array, src_offset, length)``: :meth:`MemoryRegion.place` records one
in O(1) instead of copying, and the first byte-level touch
(:meth:`MemoryRegion.view` / ``.buf`` — any packet-level NIC, DMA, staging,
fetch or INC access) materialises the bytes once, in placement order; from
then on the region is a plain array.  Who touches the memory decides, not
a setting: a folded phase never touches bytes, so its receive regions stay
descriptors; a per-packet run materialises on its first packet.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["Memory", "MemoryRegion"]

_key_counter = itertools.count(1)

#: host memory one recorded placement costs (a 4-tuple plus its ints).  A
#: region whose placement list would outweigh its own bytes materialises —
#: decided from the region's size, not a knob.
_DESCRIPTOR_BYTES = 128

_FAR = 1 << 62


def _take(bounds: List[int], lo: int, hi: int) -> List[Tuple[int, int]]:
    """Remove ``[lo, hi)`` from an interval set and return the pieces that
    were removed.  ``bounds`` is the flat sorted boundary list
    ``[lo0, hi0, lo1, hi1, ...]`` of disjoint half-open intervals."""
    if lo >= hi:
        return []
    i = bisect_right(bounds, lo)
    j = bisect_left(bounds, hi)
    pts = bounds[i:j]
    left = right = ()
    if i & 1:  # lo falls inside an interval
        pts.insert(0, lo)
        if bounds[i - 1] == lo:
            i -= 1
        else:
            left = (lo,)
    if j & 1:  # hi falls inside an interval
        pts.append(hi)
        if bounds[j] == hi:
            j += 1
        else:
            right = (hi,)
    bounds[i:j] = left + right
    return list(zip(pts[0::2], pts[1::2]))


class MemoryRegion:
    """A registered buffer.  ``lkey == rkey == key`` (we do not model PD
    separation; protection faults raise immediately instead)."""

    __slots__ = ("key", "host", "nbytes", "_buf", "_placements")

    def __init__(self, key: int, buf_or_size: Union[np.ndarray, int], host: int) -> None:
        self.key = key
        self.host = host
        if isinstance(buf_or_size, int):
            self._buf: Optional[np.ndarray] = None
            self.nbytes = buf_or_size
        else:
            self._buf = buf_or_size
            self.nbytes = int(buf_or_size.nbytes)  # cached: hot on every WR validation
        #: recorded placements while unmaterialised, oldest first
        self._placements: List[Tuple[int, np.ndarray, int, int]] = []

    # ------------------------------------------------------------ byte level

    def check(self, offset: int, length: int) -> None:
        """Bounds-check an access without materializing a view — the cheap
        validation used by the WR posting hot path."""
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise IndexError(
                f"MR key={self.key}: access [{offset}, {offset + length}) "
                f"outside region of {self.nbytes} bytes"
            )

    def view(self, offset: int, length: int) -> np.ndarray:
        """Zero-copy slice with bounds checking (the 'IOMMU').  A byte-level
        touch: materialises the region."""
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise IndexError(
                f"MR key={self.key}: access [{offset}, {offset + length}) "
                f"outside region of {self.nbytes} bytes"
            )
        buf = self._buf
        if buf is None:
            buf = self._materialize()
        return buf[offset : offset + length]

    @property
    def buf(self) -> np.ndarray:
        """The region's bytes (a byte-level touch: materialises them)."""
        buf = self._buf
        if buf is None:
            buf = self._materialize()
        return buf

    @property
    def materialized(self) -> bool:
        return self._buf is not None

    def _materialize(self) -> np.ndarray:
        buf = np.zeros(self.nbytes, dtype=np.uint8)
        for off, src, so, ln in self._placements:
            buf[off : off + ln] = src[so : so + ln]
        self._buf = buf
        self._placements = []  # drop the source references
        return buf

    # ------------------------------------------------------------ placements

    def place(self, offset: int, src: np.ndarray, src_offset: int, length: int) -> None:
        """Make ``[offset, offset+length)`` hold ``src[src_offset:][:length]``.

        *src* is a flat ``uint8`` array the caller will not mutate in that
        range (a per-collective snapshot, never caller-owned memory).  An
        unmaterialised region records the placement; a materialised one
        copies, exactly like a write through :meth:`view`.
        """
        self.check(offset, length)
        if src_offset < 0 or src_offset + length > len(src):
            raise IndexError(
                f"MR key={self.key}: placement source [{src_offset}, "
                f"{src_offset + length}) outside array of {len(src)} bytes"
            )
        if length == 0:
            return
        buf = self._buf
        if buf is not None:
            buf[offset : offset + length] = src[src_offset : src_offset + length]
            return
        self._placements.append((offset, src, src_offset, length))
        if len(self._placements) * _DESCRIPTOR_BYTES > self.nbytes:
            self._materialize()

    def _pieces(self, lo: int, hi: int) -> List[Tuple[int, Optional[np.ndarray], int, int]]:
        """Resolve ``[lo, hi)`` of an unmaterialised region into disjoint
        ``(dst_offset, src, src_offset, length)`` pieces — later placements
        win on overlap, ``src`` is ``None`` where nothing was placed (zero
        fill)."""
        todo = [lo, hi]
        out = []
        for off, src, so, ln in reversed(self._placements):
            if off >= hi or off + ln <= lo:
                continue
            for a, b in _take(todo, max(off, lo), min(off + ln, hi)):
                out.append((a, src, so + (a - off), b - a))
            if not todo:
                return out
        out.extend((a, None, 0, b - a) for a, b in zip(todo[0::2], todo[1::2]))
        return out

    def source(self, offset: int, length: int) -> Tuple[np.ndarray, int]:
        """``(array, array_offset)`` holding the current content of
        ``[offset, offset+length)``, resolved through the placements
        without materialising; the array is safe to :meth:`place`
        elsewhere (never a view of this region's own mutable bytes)."""
        self.check(offset, length)
        if self._buf is not None:
            return self._buf[offset : offset + length].copy(), 0
        pieces = self._pieces(offset, offset + length)
        if len(pieces) == 1 and pieces[0][1] is not None:
            return pieces[0][1], pieces[0][2]
        out = np.zeros(length, dtype=np.uint8)
        for a, src, so, ln in pieces:
            if src is not None:
                out[a - offset : a - offset + ln] = src[so : so + ln]
        return out, 0

    def equals(self, expected: np.ndarray, memo: Dict[object, List[int]],
               lo: int = 0, hi: Optional[int] = None) -> bool:
        """Exact check that bytes ``[lo, hi)`` equal ``expected[lo:hi]``
        without materialising.  *memo* (one dict per *expected*) records
        which ranges of each shared source already compared equal at the
        same alignment, so many regions pointing at one image cost one
        byte comparison plus O(segments)."""
        if hi is None:
            hi = self.nbytes
        if self._buf is not None:
            return bool(np.array_equal(self._buf[lo:hi], expected[lo:hi]))
        for a, src, so, ln in self._pieces(lo, hi):
            key = None if src is None else (id(src), a - so)
            todo = memo.get(key)
            if todo is None:
                todo = memo[key] = [-_FAR, _FAR]
            for x, y in _take(todo, a, a + ln):
                if src is None:
                    same = not expected[x:y].any()
                else:
                    same = np.array_equal(src[so + (x - a) : so + (y - a)], expected[x:y])
                if not same:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self._buf is not None else f" lazy×{len(self._placements)}"
        return f"<MR key={self.key} host={self.host} {self.nbytes}B{state}>"


class Memory:
    """Per-host registry of memory regions."""

    def __init__(self, host: int) -> None:
        self.host = host
        self._regions: Dict[int, MemoryRegion] = {}

    def register(self, buf_or_size: Union[np.ndarray, int], key: Optional[int] = None) -> MemoryRegion:
        """Register an existing buffer, or a zero-filled region of ``size``
        bytes whose backing array is allocated on first byte-level touch.

        ``key`` may be forced for *symmetric registration* across hosts
        (used by multicast UC writes, where the sender names one rkey valid
        on every group member).
        """
        if isinstance(buf_or_size, (int, np.integer)):
            buf = int(buf_or_size)
            if buf < 0:
                raise ValueError(f"cannot register a region of {buf} bytes")
        else:
            buf = np.asarray(buf_or_size)
            if buf.dtype != np.uint8:
                buf = buf.view(np.uint8)
            if buf.ndim != 1:
                raise ValueError("register a flat uint8 buffer")
        if key is None:
            key = next(_key_counter)
        if key in self._regions:
            raise ValueError(f"key {key} already registered on host {self.host}")
        mr = MemoryRegion(key, buf, self.host)
        self._regions[key] = mr
        return mr

    def deregister(self, key: int) -> None:
        self._regions.pop(key)

    def lookup(self, key: int) -> MemoryRegion:
        mr = self._regions.get(key)
        if mr is None:
            raise KeyError(f"host {self.host}: no MR with key {key} (remote access fault)")
        return mr

    def __len__(self) -> int:
        return len(self._regions)
