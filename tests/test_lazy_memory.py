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
            assert mr._placements == []  # sources released
    assert np.array_equal(mr.buf, model)


def test_descriptors_never_outweigh_the_bytes():
    # The rule is the region's own size: a placement list heavier than the
    # bytes it describes is worse than the bytes.
    size = 3 * _DESCRIPTOR_BYTES
    mr = Memory(0).register(size)
    src = SOURCES[0]
    for i in range(3):
        mr.place(i, src, i, 1)
        assert not mr.materialized
    mr.place(3, src, 3, 1)
    assert mr.materialized
    assert bytes(mr.buf[:5]) == bytes(src[:4]) + b"\0"
    big = Memory(0).register(1 << 20)
    for i in range(1024):
        big.place(i * 1024, src, 0, 1024)
    assert not big.materialized and len(big._placements) == 1024


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
