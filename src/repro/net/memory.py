"""Registered memory regions — the RDMA MR model.

Every buffer the NIC may touch must be *registered*, producing a
:class:`MemoryRegion` with a key.  Remote peers address memory as
``(rkey, offset)``; the owning NIC resolves the key in its host's
:class:`Memory`.  Buffers are numpy ``uint8`` arrays.

Regions are **lazily backed** (DESIGN.md §6h).  A region allocated by size
starts as a length plus a *piece map*: disjoint, sorted pieces ``(lo, hi,
source array, src_offset)``.  :meth:`MemoryRegion.place` records one —
trimming or replacing what it covers — instead of copying, and
:meth:`MemoryRegion.source` resolves a range back to a source array without
copying.  Every NIC landing, DMA copy and packet payload goes through that
pair, so a packet-level run moves references, not bytes.  A region
materialises only on a byte-level read or write (:meth:`MemoryRegion.view`
/ ``.buf``: ``CollectiveResult.buffers[r]``, the control slabs, an explicit
view) or when its piece map would outweigh its bytes; from then on it is a
plain array and a placement copies into it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["Memory", "MemoryRegion"]

_key_counter = itertools.count(1)

#: host memory one recorded piece costs (four list slots plus their ints).
#: A region whose piece map would outweigh its own bytes materialises —
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

    __slots__ = ("key", "host", "nbytes", "_buf", "_lo", "_hi", "_src", "_so")

    def __init__(self, key: int, buf_or_size: Union[np.ndarray, int], host: int) -> None:
        self.key = key
        self.host = host
        if isinstance(buf_or_size, int):
            self._buf: Optional[np.ndarray] = None
            self.nbytes = buf_or_size
        else:
            self._buf = buf_or_size
            self.nbytes = int(buf_or_size.nbytes)  # cached: hot on every WR validation
        # The piece map while unmaterialised, allocated by the first
        # placement: disjoint pieces sorted by start, piece i holding
        # ``_src[i][_so[i]:]`` at ``[_lo[i], _hi[i])``; zero fill between.
        self._lo: Optional[List[int]] = None
        self._hi: Optional[List[int]] = None
        self._src: Optional[List[np.ndarray]] = None
        self._so: Optional[List[int]] = None

    # ------------------------------------------------------------ byte level

    def check(self, offset: int, length: int) -> None:
        """Bounds-check an access without materializing a view — the cheap
        validation used by the WR posting hot path."""
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise self._fault(offset, length)

    def _fault(self, offset: int, length: int) -> IndexError:
        return IndexError(
            f"MR key={self.key}: access [{offset}, {offset + length}) "
            f"outside region of {self.nbytes} bytes"
        )

    def view(self, offset: int, length: int) -> np.ndarray:
        """Zero-copy slice with bounds checking (the 'IOMMU').  A byte-level
        touch: materialises the region."""
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise self._fault(offset, length)
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
        if self._lo is not None:
            for lo, hi, src, so in zip(self._lo, self._hi, self._src, self._so):
                buf[lo:hi] = src[so : so + (hi - lo)]
        self._buf = buf
        # drop the source references
        self._lo = self._hi = self._src = self._so = None
        return buf

    # ------------------------------------------------------------ placements

    def place(self, offset: int, src: np.ndarray, src_offset: int, length: int) -> None:
        """Make ``[offset, offset+length)`` hold ``src[src_offset:][:length]``.

        *src* is a flat ``uint8`` array the caller will not mutate in that
        range (a per-collective snapshot or a packet's payload, never
        caller-owned memory).  An unmaterialised region records a piece,
        trimming or replacing what it covers; a materialised one copies,
        exactly like a write through :meth:`view`.  A piece that continues
        its neighbour's source contiguously joins it.
        """
        end = offset + length
        if offset < 0 or length < 0 or end > self.nbytes:
            raise self._fault(offset, length)
        if src_offset < 0 or src_offset + length > len(src):
            raise IndexError(
                f"MR key={self.key}: placement source [{src_offset}, "
                f"{src_offset + length}) outside array of {len(src)} bytes"
            )
        if length == 0:
            return
        buf = self._buf
        if buf is not None:
            buf[offset:end] = src[src_offset : src_offset + length]
            return
        los = self._lo
        if los is None:
            self._lo, self._hi = [offset], [end]
            self._src, self._so = [src], [src_offset]
            return self._weigh()
        his, srcs, sos = self._hi, self._src, self._so
        n = len(los)
        if offset >= his[-1]:
            i = n  # ascending append (in-order chunks): no search
        else:
            i = bisect_right(los, offset)
            if i and his[i - 1] > offset:
                if los[i - 1] == offset and his[i - 1] == end:
                    srcs[i - 1] = src  # exact overwrite (a reused ring slot)
                    sos[i - 1] = src_offset
                else:
                    self._splice(offset, end, src, src_offset)
                    self._weigh()
                return
            if i < n and los[i] < end:
                self._splice(offset, end, src, src_offset)
                return self._weigh()
        # [offset, end) falls in a gap, before piece i
        right = (i < n and los[i] == end and srcs[i] is src
                 and sos[i] == src_offset + length)
        if (i and his[i - 1] == offset and srcs[i - 1] is src
                and sos[i - 1] + (offset - los[i - 1]) == src_offset):
            if right:  # the gap closes: two pieces become one
                his[i - 1] = his[i]
                del los[i], his[i], srcs[i], sos[i]
            else:
                his[i - 1] = end
        elif right:
            los[i] = offset
            sos[i] = src_offset
        elif i == n:
            los.append(offset)
            his.append(end)
            srcs.append(src)
            sos.append(src_offset)
            self._weigh()
        else:
            los.insert(i, offset)
            his.insert(i, end)
            srcs.insert(i, src)
            sos.insert(i, src_offset)
            self._weigh()

    def _weigh(self) -> None:
        """The descriptor rule: materialise once the piece map outweighs
        the bytes it describes."""
        if len(self._lo) * _DESCRIPTOR_BYTES > self.nbytes:
            self._materialize()

    def _splice(self, lo: int, hi: int, src: np.ndarray, so: int) -> None:
        """Replace whatever the piece map holds in ``[lo, hi)`` by one
        piece, keeping the uncovered ends of the pieces it cuts."""
        los, his, srcs, sos = self._lo, self._hi, self._src, self._so
        i = bisect_right(his, lo)  # first piece ending after lo
        j = bisect_left(los, hi)  # first piece starting at or after hi
        new_lo, new_hi, new_src, new_so = [lo], [hi], [src], [so]
        if i < j:
            if los[i] < lo:
                new_lo.insert(0, los[i])
                new_hi.insert(0, lo)
                new_src.insert(0, srcs[i])
                new_so.insert(0, sos[i])
            k = j - 1
            if his[k] > hi:
                new_lo.append(hi)
                new_hi.append(his[k])
                new_src.append(srcs[k])
                new_so.append(sos[k] + (hi - los[k]))
        los[i:j] = new_lo
        his[i:j] = new_hi
        srcs[i:j] = new_src
        sos[i:j] = new_so

    def _pieces(self, lo: int, hi: int) -> List[Tuple[int, Optional[np.ndarray], int, int]]:
        """``[lo, hi)`` of an unmaterialised region as disjoint, ascending
        ``(dst_offset, src, src_offset, length)`` pieces — ``src`` is
        ``None`` where nothing was placed (zero fill)."""
        out = []
        los = self._lo
        if los is not None:
            his, srcs, sos = self._hi, self._src, self._so
            i = bisect_right(his, lo)
            n = len(los)
            while i < n and los[i] < hi:
                a = los[i]
                if a > lo:
                    out.append((lo, None, 0, a - lo))
                else:
                    a = lo
                b = his[i] if his[i] < hi else hi
                out.append((a, srcs[i], sos[i] + (a - los[i]), b - a))
                lo = b
                i += 1
        if lo < hi:
            out.append((lo, None, 0, hi - lo))
        return out

    def source(self, offset: int, length: int) -> Tuple[np.ndarray, int]:
        """``(array, array_offset)`` holding the current content of
        ``[offset, offset+length)``, resolved through the piece map
        without materialising: the covering piece's own source when one
        piece covers the range (no copy), else a private assembled copy.
        The array is safe to :meth:`place` elsewhere — never a view of
        this region's own mutable bytes (a materialised region returns a
        copy)."""
        self.check(offset, length)
        buf = self._buf
        if buf is not None:
            return buf[offset : offset + length].copy(), 0
        los = self._lo
        if los is not None:
            i = bisect_right(los, offset) - 1
            if i >= 0 and self._hi[i] >= offset + length:
                return self._src[i], self._so[i] + (offset - los[i])
        out = np.zeros(length, dtype=np.uint8)
        for a, src, so, ln in self._pieces(offset, offset + length):
            if src is not None:
                out[a - offset : a - offset + ln] = src[so : so + ln]
        return out, 0

    def copy_to(self, offset: int, dst: "MemoryRegion", dst_offset: int,
                length: int) -> None:
        """Make ``dst[dst_offset:][:length]`` hold what
        ``[offset, offset+length)`` holds now, piece by piece
        (:meth:`source` → :meth:`place`): pieces move by reference, a
        materialised region's bytes as one private copy."""
        los = self._lo
        if los is None:
            arr, so = self.source(offset, length)
            dst.place(dst_offset, arr, so, length)
            return
        i = bisect_right(los, offset) - 1
        if i >= 0 and length >= 0 and self._hi[i] >= offset + length:
            # one piece covers the range (a staging slot's datagram)
            dst.place(dst_offset, self._src[i], self._so[i] + (offset - los[i]), length)
            return
        self.check(offset, length)
        dst.check(dst_offset, length)
        shift = dst_offset - offset
        for a, src, so, ln in self._pieces(offset, offset + length):
            if src is None:
                src = np.zeros(ln, dtype=np.uint8)
            dst.place(a + shift, src, so, ln)

    def equals(self, expected: np.ndarray, memo: Dict[object, List[int]],
               lo: int = 0, hi: Optional[int] = None) -> bool:
        """Exact check that bytes ``[lo, hi)`` equal ``expected[lo:hi]``
        without materialising.  *memo* (one dict per *expected*) records
        which ranges of each shared source already compared equal at the
        same alignment, so many regions pointing at one image cost one
        byte comparison plus O(pieces)."""
        if hi is None:
            hi = self.nbytes
        if self._buf is not None:
            return bool(np.array_equal(self._buf[lo:hi], expected[lo:hi]))
        for a, src, so, ln in self._pieces(lo, hi):
            for x, y in _take(_memo_entry(memo, src, a - so), a, a + ln):
                if src is None:
                    same = not expected[x:y].any()
                else:
                    same = np.array_equal(src[so + (x - a) : so + (y - a)], expected[x:y])
                if not same:
                    return False
        return True

    def allclose(self, expected: np.ndarray, memo: Dict[object, List[int]],
                 rtol: float, atol: float, lo: int = 0,
                 hi: Optional[int] = None) -> bool:
        """:meth:`equals` for float32 content: whether bytes ``[lo, hi)``
        (element-aligned), read as float32, are ``np.allclose`` to the
        float32 array *expected* over the same elements, without
        materialising.  *memo* is one dict per *expected* and tolerance;
        a piece whose ends split an element is checked over the elements
        it touches, without the memo."""
        if hi is None:
            hi = self.nbytes
        if lo % 4 or hi % 4:
            raise ValueError(f"float32 range [{lo}, {hi}) is not element-aligned")

        def close(got: np.ndarray, x: int, y: int) -> bool:
            return bool(np.allclose(got, expected[x >> 2 : y >> 2], rtol=rtol, atol=atol))

        if self._buf is not None:
            return close(self._buf[lo:hi].view(np.float32), lo, hi)
        for a, src, so, ln in self._pieces(lo, hi):
            b = a + ln
            if a % 4 or b % 4:
                a, b = a - a % 4, b + (-b) % 4
                got, s0 = self.source(a, b - a)
                if not close(got[s0 : s0 + (b - a)].view(np.float32), a, b):
                    return False
                continue
            for x, y in _take(_memo_entry(memo, src, a - so), a, b):
                if src is None:
                    got = np.zeros((y - x) >> 2, dtype=np.float32)
                else:
                    got = src[so + (x - a) : so + (y - a)].view(np.float32)
                if not close(got, x, y):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self._buf is not None else f" lazy×{len(self._lo or ())}"
        return f"<MR key={self.key} host={self.host} {self.nbytes}B{state}>"


def _memo_entry(memo: Dict[object, List[int]], src: Optional[np.ndarray],
                shift: int) -> List[int]:
    """The still-unverified intervals of *src* at alignment *shift* (zero
    fill: key ``None``), created whole on first use."""
    key = None if src is None else (id(src), shift)
    todo = memo.get(key)
    if todo is None:
        todo = memo[key] = [-_FAR, _FAR]
    return todo


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
