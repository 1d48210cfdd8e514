"""The receive bitmap — the protocol's only size-proportional state.

Each Broadcast leaf tracks every received chunk in a bitmap indexed by PSN
(paper §III-C).  The paper chooses a bitmap because it is compact (1 bit
per chunk: a 1.5 MB SmartNIC LLC addresses ≈ 50 GB of receive buffer at
4 KiB chunks, Fig 7) and cheap to update on the critical path.

The implementation stores bits in a list of Python-int words: per-bit
``set``/``test`` with native int masks is ≈10× faster than numpy uint64
scalar arithmetic, and these run once per received packet — the hottest
protocol-side operation in the simulator.  Scans for missing chunks (the
reliability slow path) stay on the words too: a run of missing chunks is
a run of one bits of a complemented word, found with two int operations.
:meth:`set_range` is the bulk path used when a fetched run or a folded
session's runs land many consecutive chunks at once, :meth:`fill` the one
a folded phase uses.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["Bitmap"]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _runs(words: List[int]) -> List[Tuple[int, int]]:
    """``(start, length)`` of every run of one bits of the bit string whose
    64-bit words are *words*, little end first."""
    runs: List[Tuple[int, int]] = []
    for base in range(0, len(words) * _WORD_BITS, _WORD_BITS):
        w = words[base >> 6]
        while w:
            low = w & -w
            above = w + low  # carries through the run: its first bit past it
            start = base + low.bit_length() - 1
            end = base + (above & -above).bit_length() - 1
            if runs and sum(runs[-1]) == start:  # it goes on from the last word
                runs[-1] = (runs[-1][0], end - runs[-1][0])
            else:
                runs.append((start, end - start))
            w &= above
    return runs


class Bitmap:
    """Fixed-size bitmap with O(1) set/test and a word-level missing-scan."""

    __slots__ = ("n_bits", "_words", "_set_count")

    def __init__(self, n_bits: int) -> None:
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        self.n_bits = n_bits
        self._words: List[int] = [0] * ((n_bits + _WORD_BITS - 1) // _WORD_BITS)
        self._set_count = 0

    # ------------------------------------------------------------- mutation

    def set(self, i: int) -> bool:
        """Set bit *i*; returns True if it was newly set (False if duplicate,
        which happens when a chunk is both multicast-received and fetched)."""
        if not 0 <= i < self.n_bits:
            raise IndexError(f"bit {i} out of range ({self.n_bits})")
        w = i >> 6
        mask = 1 << (i & 63)
        word = self._words[w]
        if word & mask:
            return False
        self._words[w] = word | mask
        self._set_count += 1
        return True

    def _masks(self, start: int, n: int) -> List[Tuple[int, int]]:
        """``(word, mask)`` of every word bits ``[start, start + n)`` touch."""
        if n < 0:
            raise ValueError("n must be non-negative")
        end = start + n
        if n and not (0 <= start and end <= self.n_bits):
            raise IndexError(f"range [{start}, {end}) out of range ({self.n_bits})")
        return [(w, (1 << min(end - (w << 6), _WORD_BITS)) - (1 << max(start - (w << 6), 0)))
                for w in range(start >> 6, (end + 63) >> 6)] if n else []

    def set_range(self, start: int, n: int) -> int:
        """Set bits ``[start, start + n)`` in bulk; returns how many were
        newly set.  The fetch layer and the data fold use this instead of
        ``n`` per-bit calls."""
        words = self._words
        newly = 0
        for w, mask in self._masks(start, n):
            add = mask & ~words[w]
            if add:
                words[w] |= mask
                newly += bin(add).count("1")
        self._set_count += newly
        return newly

    def fill(self) -> int:
        """Set every bit; returns how many were newly set."""
        newly = self.n_bits - self._set_count
        full, rest = divmod(self.n_bits, _WORD_BITS)
        self._words = [_WORD_MASK] * full + ([(1 << rest) - 1] if rest else [])
        self._set_count = self.n_bits
        return newly

    def clear(self, i: int) -> None:
        if not 0 <= i < self.n_bits:
            raise IndexError(f"bit {i} out of range ({self.n_bits})")
        w = i >> 6
        mask = 1 << (i & 63)
        word = self._words[w]
        if word & mask:
            self._words[w] = word & ~mask
            self._set_count -= 1

    def reset(self) -> None:
        self._words = [0] * len(self._words)
        self._set_count = 0

    # -------------------------------------------------------------- queries

    def any_set_in_range(self, start: int, n: int) -> bool:
        """True if any bit in ``[start, start + n)`` is set — one masked
        word test per 64 bits, instead of ``n`` per-bit :meth:`test`
        calls."""
        return any(self._words[w] & mask for w, mask in self._masks(start, n))

    def test(self, i: int) -> bool:
        if not 0 <= i < self.n_bits:
            raise IndexError(f"bit {i} out of range ({self.n_bits})")
        return bool(self._words[i >> 6] & (1 << (i & 63)))

    @property
    def count(self) -> int:
        """Number of set bits (O(1))."""
        return self._set_count

    def all_set(self, n: int | None = None) -> bool:
        """True if the first *n* bits (default: all) are set."""
        return not self.missing_runs(self.n_bits if n is None else min(n, self.n_bits))

    def missing(self, n: int | None = None) -> List[int]:
        """Indices of unset bits among the first *n*."""
        return [i for start, k in self.missing_runs(n) for i in range(start, start + k)]

    def missing_runs(self, n: int | None = None,
                     among: "Bitmap | None" = None) -> List[tuple]:
        """Missing bits among the first *n* coalesced into ``(start,
        length)`` runs — the shape the fetch layer wants for issuing
        contiguous RDMA Reads; with *among*, only the bits set there (what
        a neighbour has placed).  Word by word, on the complemented words.
        """
        n = self.n_bits if n is None else n
        if n <= 0 or self._set_count == self.n_bits:
            return []
        if n > self.n_bits:
            raise IndexError(f"n={n} exceeds bitmap size {self.n_bits}")
        full, rest = divmod(n, _WORD_BITS)
        words = self._words[:full + (rest > 0)]
        if among is None:
            words = [~w & _WORD_MASK for w in words]
        else:
            words = [a & ~w for a, w in zip(among._words, words)]
        if rest:
            words[-1] &= (1 << rest) - 1
        return _runs(words)

    def missing_runs_ref(self, n: int | None = None) -> List[tuple]:
        """Pure-Python reference for :meth:`missing_runs` — one linear
        bit walk, no numpy.  Kept as the executable specification the
        property tests compare the vectorized scan against."""
        n = self.n_bits if n is None else n
        if n <= 0:
            return []
        if n > self.n_bits:
            raise IndexError(f"n={n} exceeds bitmap size {self.n_bits}")
        runs: List[Tuple[int, int]] = []
        start = -1
        for i in range(n):
            if self._words[i >> 6] & (1 << (i & 63)):
                if start >= 0:
                    runs.append((start, i - start))
                    start = -1
            elif start < 0:
                start = i
        if start >= 0:
            runs.append((start, n - start))
        return runs

    @property
    def nbytes(self) -> int:
        """Memory footprint of the bit storage."""
        return len(self._words) * (_WORD_BITS // 8)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bitmap {self._set_count}/{self.n_bits}>"
