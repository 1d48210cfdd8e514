"""Lazily backed memory regions (DESIGN.md §6h) against an eager model.

A :class:`MemoryRegion` allocated by size records ``place()`` calls as
descriptors and materialises on the first byte-level touch.  The property
test drives random interleavings of placements, byte-level writes through
``view``, reads and partial overlaps, and requires the region to be
indistinguishable from a plain numpy buffer that copied eagerly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.memory import _DESCRIPTOR_BYTES, Memory, _take

FAST = settings(max_examples=200, deadline=None)

N = 2048
#: immutable placement sources (the per-collective snapshots of the real
#: callers); distinct content so a wrong source or offset shows
SOURCES = [
    (np.arange(3000, dtype=np.uint32) * (7 + 4 * k) % 251 + 1).astype(np.uint8)
    for k in range(3)
]

span = st.tuples(st.integers(-8, N + 8), st.integers(-4, N // 2))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("place"), span, st.integers(0, 2), st.integers(-8, 3008)),
        st.tuples(st.just("write"), span, st.integers(0, 255)),
        st.tuples(st.just("view"), span),
        st.tuples(st.just("source"), span),
        st.tuples(st.just("check"), span),
        st.tuples(st.just("equals"), span),
    ),
    max_size=14,
)


def _in_bounds(off: int, ln: int, size: int) -> bool:
    return off >= 0 and ln >= 0 and off + ln <= size


@FAST
@given(ops=ops)
def test_region_matches_eager_model(ops):
    mr = Memory(0).register(N)
    model = np.zeros(N, dtype=np.uint8)
    backing = None  # the one array a region may ever materialise into
    for op in ops:
        kind, (off, ln) = op[0], op[1]
        ok = _in_bounds(off, ln, N)
        if kind == "place":
            src, so = SOURCES[op[2]], op[3]
            if ok and _in_bounds(so, ln, len(src)):
                mr.place(off, src, so, ln)
                model[off:off + ln] = src[so:so + ln]
            else:
                with pytest.raises(IndexError):
                    mr.place(off, src, so, ln)
        elif kind == "check":
            if ok:
                mr.check(off, ln)
            else:
                with pytest.raises(IndexError):
                    mr.check(off, ln)
        elif not ok:
            # reads and writes fault exactly where check() does
            with pytest.raises(IndexError):
                mr.view(off, ln)
            with pytest.raises(IndexError):
                mr.source(off, ln)
        elif kind == "write":
            mr.view(off, ln)[:] = op[2]
            model[off:off + ln] = op[2]
        elif kind == "view":
            assert np.array_equal(mr.view(off, ln), model[off:off + ln])
        elif kind == "source":
            was = mr.materialized
            arr, so = mr.source(off, ln)
            assert np.array_equal(arr[so:so + ln], model[off:off + ln])
            assert mr.materialized == was  # resolving never materialises
            if was and ln:
                assert not np.shares_memory(arr, mr.buf)
        elif kind == "equals":
            was = mr.materialized
            assert mr.equals(model, {})
            assert mr.equals(model, {}, off, off + ln)
            if ln:
                wrong = model.copy()
                wrong[off] ^= 0xFF
                assert not mr.equals(wrong, {})
                assert not mr.equals(wrong, {}, off, off + ln)
            assert mr.materialized == was
        if mr.materialized:
            if backing is None:
                backing = mr.buf
            assert mr.buf is backing  # materialise once
            assert mr._lo is None and mr._src is None  # sources released
    assert np.array_equal(mr.buf, model)


def test_descriptors_never_outweigh_the_bytes():
    # The rule is the region's own size: a piece map heavier than the
    # bytes it describes is worse than the bytes.  (Source offsets step by
    # two so no placement extends the piece before it.)
    size = 3 * _DESCRIPTOR_BYTES
    mr = Memory(0).register(size)
    src = SOURCES[0]
    for i in range(3):
        mr.place(i, src, 2 * i, 1)
        assert not mr.materialized
    mr.place(3, src, 6, 1)
    assert mr.materialized
    assert bytes(mr.buf[:5]) == bytes(src[0:8:2]) + b"\0"
    # a contiguous run of one source is one piece, however it arrives
    run = Memory(0).register(size)
    for i in range(size):
        run.place(i, src, 5 + i, 1)
    assert not run.materialized and len(run._lo) == 1
    big = Memory(0).register(1 << 20)
    for i in range(1024):
        big.place(i * 1024, src, 0, 1024)
    assert not big.materialized and len(big._lo) == 1024


def test_a_filled_gap_joins_its_neighbours():
    # Out-of-order chunks of one snapshot collapse back into one piece.
    src = SOURCES[0]
    mr = Memory(0).register(N)
    mr.place(0, src, 0, 100)
    mr.place(200, src, 200, 100)
    mr.place(400, src, 0, 100)  # same source, another alignment
    mr.place(100, src, 100, 100)  # fills the gap: both neighbours join
    assert (mr._lo, mr._hi) == ([0, 400], [300, 500])
    mr.place(300, src, 300, 100)  # joins the left piece, not the right one
    assert (mr._lo, mr._hi, mr._so) == ([0, 400], [400, 500], [0, 0])
    expected = np.zeros(N, dtype=np.uint8)
    expected[:400] = src[:400]
    expected[400:500] = src[:100]
    assert mr.equals(expected, {}) and not mr.materialized


def test_registered_array_is_materialised_and_shared():
    arr = np.arange(64, dtype=np.uint8)
    mr = Memory(0).register(arr)
    assert mr.materialized and mr.buf is arr
    mr.place(8, SOURCES[1], 0, 4)  # a placement into real bytes copies
    assert bytes(arr[8:12]) == bytes(SOURCES[1][:4])
    with pytest.raises(ValueError):
        Memory(0).register(-1)


def test_equals_shares_comparisons_of_one_source():
    # P regions pointing at one image: one byte comparison, then lookups.
    image = SOURCES[2][:N]
    memo = {}
    regions = []
    for hole in (0, 512, 1024):
        mr = Memory(0).register(N)
        mr.place(0, image, 0, hole)
        mr.place(hole + 256, image, hole + 256, N - hole - 256)
        mr.place(hole, image, hole, 256)
        regions.append(mr)
    assert all(mr.equals(image, memo) for mr in regions)
    (todo,) = memo.values()
    assert _take(list(todo), 0, N) == []  # one shared memo entry covers the image
    assert not any(mr.materialized for mr in regions)


def test_memo_keys_on_alignment():
    # One source at two alignments: a range verified at one says nothing
    # about the other, even through a shared memo.
    src = np.arange(256, dtype=np.uint8)
    expected = src[:100].copy()
    same, shifted = Memory(0).register(100), Memory(0).register(100)
    same.place(0, src, 0, 100)
    shifted.place(0, src, 50, 100)
    memo = {}
    assert same.equals(expected, memo)
    assert not shifted.equals(expected, memo)
    floats = np.arange(64, dtype=np.float32)
    fsrc = floats.view(np.uint8)
    fsame, fshifted = Memory(0).register(128), Memory(0).register(128)
    fsame.place(0, fsrc, 0, 128)
    fshifted.place(0, fsrc, 64, 128)
    memo = {}
    assert fsame.allclose(floats[:32], memo, 1e-6, 0.0)
    assert not fshifted.allclose(floats[:32], memo, 1e-6, 0.0)


@FAST
@given(
    cuts=st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)), max_size=12)
)
def test_take_matches_set_model(cuts):
    bounds = [0, 64]
    model = set(range(64))
    for a, b in cuts:
        lo, hi = min(a, b), max(a, b)
        pieces = _take(bounds, lo, hi)
        removed = {x for p, q in pieces for x in range(p, q)}
        assert removed == model & set(range(lo, hi))
        model -= removed
        assert all(p < q for p, q in pieces)
        assert bounds == sorted(bounds) and len(bounds) % 2 == 0
        assert len(set(bounds)) == len(bounds)  # no empty intervals kept
    kept = {x for p, q in zip(bounds[0::2], bounds[1::2]) for x in range(p, q)}
    assert kept == model


# ------------------------------------------------------------- piece map

M = 4096
_src_idx = st.integers(0, len(SOURCES) - 1)
piece_ops = st.lists(
    st.one_of(
        # (kind, gap, length, source, extend-the-last-piece, src offset)
        st.tuples(st.just("append"), st.integers(0, 48), st.integers(1, 600),
                  _src_idx, st.booleans(), st.integers(0, 2400)),
        st.tuples(st.just("overwrite"), st.integers(0, 999), _src_idx,
                  st.integers(0, 2400)),
        st.tuples(st.just("straddle"), st.integers(0, M), st.integers(0, M),
                  _src_idx, st.integers(0, 2400)),
        # (kind, piece, length, source or None: the piece's own, continued
        # backwards) — a placement ending exactly where a piece starts
        st.tuples(st.just("before"), st.integers(0, 999), st.integers(1, 300),
                  st.one_of(st.none(), _src_idx)),
        # ... and one starting exactly where a piece ends, up to the next
        st.tuples(st.just("after"), st.integers(0, 999), st.integers(1, 300),
                  st.one_of(st.none(), _src_idx)),
        st.tuples(st.just("zero"), st.integers(-4, M + 4), _src_idx,
                  st.integers(-4, 3004)),
        st.tuples(st.just("source"), st.integers(0, M), st.integers(0, M)),
        st.tuples(st.just("equals"), st.integers(0, M), st.integers(0, M)),
        st.tuples(st.just("allclose"), st.integers(0, M // 4), st.integers(0, M // 4),
                  st.integers(0, M // 4 - 1)),
        # (kind, from this region?, src start, length, dst start)
        st.tuples(st.just("copy"), st.booleans(), st.integers(0, M),
                  st.integers(0, M), st.integers(0, M)),
        st.tuples(st.just("materialise")),
    ),
    max_size=30,
)


def _pieces_of(mr):
    return list(zip(mr._lo, mr._hi, mr._src, mr._so)) if mr._lo else []


@FAST
@given(ops=piece_ops)
def test_piece_map_matches_eager_model(ops):
    mem = Memory(0)
    mr = mem.register(M)
    model = np.zeros(M, dtype=np.uint8)
    tail = 0  # end of the highest placement so far
    other = mem.register(M)  # a second lazy region to copy from, gaps included
    other.place(100, SOURCES[1], 0, 800)
    other.place(1500, SOURCES[2], 7, 1000)
    other_model = np.zeros(M, dtype=np.uint8)
    other_model[100:900] = SOURCES[1][:800]
    other_model[1500:2500] = SOURCES[2][7:1007]

    def place(off, src, so, ln):
        nonlocal tail
        mr.place(off, src, so, ln)
        model[off:off + ln] = src[so:so + ln]
        tail = max(tail, off + ln)

    for op in ops:
        kind = op[0]
        if kind == "append":
            _, gap, ln, k, contiguous, so = op
            src = SOURCES[k]
            pieces = _pieces_of(mr)
            if contiguous and pieces:  # carry on where the last piece ends
                lo, hi, src, so0 = pieces[-1]
                off, so = hi, so0 + (hi - lo)
            else:
                off = tail + gap
                contiguous = False
            ln = min(ln, M - off, len(src) - so)
            if ln > 0:
                last = pieces[-1] if pieces else (0, -1, None, 0)
                extends = (last[1] == off and last[2] is src
                           and last[3] + (off - last[0]) == so)
                assert extends or not contiguous
                place(off, src, so, ln)
                if not mr.materialized:  # extended the last piece, or added one
                    assert len(_pieces_of(mr)) == len(pieces) + (not extends)
        elif kind == "overwrite":
            pieces = _pieces_of(mr)
            if pieces:
                lo, hi = pieces[op[1] % len(pieces)][:2]
                ln = min(hi - lo, len(SOURCES[op[2]]) - op[3])
                if ln == hi - lo:
                    place(lo, SOURCES[op[2]], op[3], ln)
                    if not mr.materialized:
                        assert len(_pieces_of(mr)) == len(pieces)
        elif kind == "straddle":
            lo, hi = sorted(op[1:3])
            ln = min(hi - lo, len(SOURCES[op[3]]) - op[4])
            if ln > 0:
                place(lo, SOURCES[op[3]], op[4], ln)
        elif kind == "before":
            pieces = _pieces_of(mr)
            if pieces:
                lo, _, src, so = pieces[op[1] % len(pieces)]
                ln = min(op[2], lo, so)
                if op[3] is not None:
                    src = SOURCES[op[3]]
                if ln > 0:
                    place(lo - ln, src, so - ln, ln)
        elif kind == "after":
            pieces = _pieces_of(mr)
            if pieces:
                j = op[1] % len(pieces)
                lo, hi, src, so = pieces[j]
                own = op[3] is None
                if not own:
                    src = SOURCES[op[3]]
                so += hi - lo
                nxt = pieces[j + 1] if j + 1 < len(pieces) else (M, M, None, 0)
                ln = min(op[2], nxt[0] - hi, len(src) - so)
                if ln > 0:
                    place(hi, src, so, ln)
                    if own and not mr.materialized:  # joins the piece (and
                        # the next one, when the gap closes on its source)
                        closes = (hi + ln == nxt[0] and nxt[2] is src
                                  and nxt[3] == so + ln)
                        assert len(_pieces_of(mr)) == len(pieces) - closes
        elif kind == "zero":
            _, off, k, so = op
            if 0 <= off <= M and 0 <= so <= len(SOURCES[k]):
                before = _pieces_of(mr)
                mr.place(off, SOURCES[k], so, 0)  # a no-op
                assert _pieces_of(mr) == before
            else:
                with pytest.raises(IndexError):
                    mr.place(off, SOURCES[k], so, 0)
        elif kind == "source":
            lo, hi = sorted(op[1:3])
            was = mr.materialized
            arr, so = mr.source(lo, hi - lo)
            assert np.array_equal(arr[so:so + hi - lo], model[lo:hi])
            assert mr.materialized == was
        elif kind == "equals":
            lo, hi = sorted(op[1:3])
            assert mr.equals(model, {}, lo, hi)
            if hi > lo:
                wrong = model.copy()
                wrong[(lo + hi) // 2] ^= 0x10
                assert not mr.equals(wrong, {}, lo, hi)
        elif kind == "allclose":
            lo, hi = sorted(op[1:3])
            expected = model.view(np.float32).copy()
            expected[op[3]] = 1e30  # outside any tolerance of these bytes
            for exp in (model.view(np.float32), expected):
                want = bool(np.allclose(model.view(np.float32)[lo:hi], exp[lo:hi],
                                        rtol=1e-3, atol=1e-3))
                got = mr.allclose(exp, {}, 1e-3, 1e-3, 4 * lo, 4 * hi)
                assert got == want
        elif kind == "copy":
            _, own, lo, ln, dst = op
            ln = min(ln, M - lo, M - dst)
            src_mr, src_model = (mr, model) if own else (other, other_model)
            src_mr.copy_to(lo, mr, dst, ln)  # reads the range as it was
            model[dst:dst + ln] = src_model[lo:lo + ln].copy()
            tail = max(tail, dst + ln)
            assert not other.materialized
        else:
            mr.buf  # noqa: B018 - a byte-level touch
        if not mr.materialized:
            pieces = _pieces_of(mr)
            assert len(pieces) * _DESCRIPTOR_BYTES <= M
            for (lo, hi, src, so), nxt in zip(pieces, pieces[1:] + [None]):
                assert lo < hi and 0 <= so and so + (hi - lo) <= len(src)
                assert nxt is None or hi <= nxt[0]  # disjoint, sorted
    assert np.array_equal(mr.buf, model)
