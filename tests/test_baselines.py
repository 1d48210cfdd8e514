"""Tests for the P2P baseline collectives and the INC substrate."""

import numpy as np
import pytest

from repro.core.baselines import (
    binary_tree_broadcast,
    inc_reduce,
    inc_reduce_scatter,
    knomial_broadcast,
    linear_allgather,
    p2p_alltoall,
    recursive_doubling_allgather,
    ring_allgather,
    ring_reduce_scatter,
)
from repro.core.baselines.bcast import knomial_tree
from repro.core.communicator import CollectiveResult, Communicator
from repro.net import Fabric, Topology
from repro.net.memory import PayloadBuffers
from repro.sim import RandomStreams, Simulator
from repro.units import gbit_per_s, kib


def make_fabric(n=4, topo=None):
    sim = Simulator()
    return Fabric(sim, topo or Topology.star(n), link_bandwidth=gbit_per_s(56),
                  streams=RandomStreams(0))


def ag_data(p, nbytes):
    return [np.random.default_rng(r).integers(0, 256, nbytes, dtype=np.uint8)
            for r in range(p)]


# ---------------------------------------------------------------- allgather


def test_ring_allgather_correct():
    fabric = make_fabric(4)
    data = ag_data(4, kib(16))
    result = ring_allgather(fabric, data)
    assert result.verify_allgather(data)
    assert result.duration > 0


def test_ring_allgather_leaf_spine():
    fabric = make_fabric(8, Topology.leaf_spine(8, 2, 2))
    data = ag_data(8, kib(8))
    assert ring_allgather(fabric, data).verify_allgather(data)


def test_linear_allgather_correct():
    fabric = make_fabric(5)
    data = ag_data(5, kib(4))
    assert linear_allgather(fabric, data).verify_allgather(data)


def test_recursive_doubling_correct():
    fabric = make_fabric(8, Topology.leaf_spine(8, 2, 2))
    data = ag_data(8, kib(4))
    assert recursive_doubling_allgather(fabric, data).verify_allgather(data)


def test_recursive_doubling_rejects_non_power_of_two():
    fabric = make_fabric(6)
    with pytest.raises(ValueError, match="power-of-two"):
        recursive_doubling_allgather(fabric, ag_data(6, 1024))


def test_allgather_single_rank():
    data = ag_data(1, 1024)
    for allgather in (ring_allgather, linear_allgather, recursive_doubling_allgather):
        result = allgather(make_fabric(2), data, hosts=[0])
        assert result.verify_allgather(data)


def test_ring_injects_p_minus_1_buffers_per_rank():
    """Insight 1: P2P allgather must inject N(P-1) bytes per rank."""
    fabric = make_fabric(4)
    n = kib(16)
    result = ring_allgather(fabric, ag_data(4, n))
    injected = result.traffic["host_injected_bytes"]
    assert injected >= 4 * 3 * n
    assert injected < 4 * 3 * n * 1.1


# ------------------------------------------------------------------- bcast


def test_knomial_tree_structure():
    parent, children = knomial_tree(8, 2)
    assert parent[0] is None
    # Every non-root has a parent; edges = P-1.
    assert sum(1 for p in parent if p is not None) == 7
    assert sum(len(c) for c in children) == 7


def test_knomial_tree_various_radices():
    for p in (2, 3, 7, 16, 188):
        for k in (2, 3, 4, 8):
            parent, children = knomial_tree(p, k)
            # All nodes reachable from 0.
            seen = {0}
            stack = [0]
            while stack:
                node = stack.pop()
                for c in children[node]:
                    assert c not in seen
                    seen.add(c)
                    stack.append(c)
            assert len(seen) == p, (p, k)


def test_knomial_broadcast_correct():
    fabric = make_fabric(7)
    data = np.random.default_rng(0).integers(0, 256, kib(32), dtype=np.uint8)
    result = knomial_broadcast(fabric, 0, data)
    assert result.verify_broadcast(data)


def test_knomial_broadcast_nonzero_root():
    fabric = make_fabric(6)
    data = np.random.default_rng(0).integers(0, 256, kib(8), dtype=np.uint8)
    result = knomial_broadcast(fabric, 3, data)
    assert result.verify_broadcast(data)


def test_binary_tree_broadcast_correct():
    fabric = make_fabric(9, Topology.leaf_spine(9, 3, 2))
    data = np.random.default_rng(1).integers(0, 256, kib(256), dtype=np.uint8)
    result = binary_tree_broadcast(fabric, 0, data, segment_bytes=kib(32))
    assert result.verify_broadcast(data)


def test_binary_tree_broadcast_nonzero_root():
    fabric = make_fabric(5)
    data = np.random.default_rng(1).integers(0, 256, kib(64), dtype=np.uint8)
    result = binary_tree_broadcast(fabric, 2, data, segment_bytes=kib(16))
    assert result.verify_broadcast(data)


def test_pipelined_tree_beats_knomial_for_large_messages():
    data = np.random.default_rng(2).integers(0, 256, kib(512), dtype=np.uint8)
    t_tree = binary_tree_broadcast(make_fabric(8), 0, data).duration
    t_knom = knomial_broadcast(make_fabric(8), 0, data, radix=2).duration
    assert t_tree < t_knom


# ------------------------------------------------------------ reduce-scatter


def rs_data(p, elems):
    return [np.random.default_rng(100 + r).normal(size=elems).astype(np.float32)
            for r in range(p)]


def test_ring_reduce_scatter_correct():
    fabric = make_fabric(4)
    data = rs_data(4, 4096)
    result = ring_reduce_scatter(fabric, data)
    total = np.sum(data, axis=0)
    shard = 4096 // 4
    for r in range(4):
        np.testing.assert_allclose(
            result.buffers[r], total[r * shard : (r + 1) * shard], rtol=1e-4, atol=1e-4
        )


def test_ring_reduce_scatter_two_ranks():
    fabric = make_fabric(2)
    data = rs_data(2, 1024)
    result = ring_reduce_scatter(fabric, data)
    total = np.sum(data, axis=0)
    np.testing.assert_allclose(result.buffers[0], total[:512], rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(result.buffers[1], total[512:], rtol=1e-4, atol=1e-4)


def test_ring_reduce_scatter_uneven_rejected():
    fabric = make_fabric(3)
    with pytest.raises(ValueError, match="evenly"):
        ring_reduce_scatter(fabric, rs_data(3, 1000))


def test_inc_reduce_scatter_correct_star():
    fabric = make_fabric(4)
    data = rs_data(4, 4096)
    result = inc_reduce_scatter(fabric, data)
    total = np.sum(data, axis=0)
    shard = 1024
    for r in range(4):
        np.testing.assert_allclose(
            result.buffers[r], total[r * shard : (r + 1) * shard], rtol=1e-4, atol=1e-4
        )


def test_inc_reduce_scatter_leaf_spine():
    fabric = make_fabric(8, Topology.leaf_spine(8, 2, 2))
    data = rs_data(8, 8192)
    result = inc_reduce_scatter(fabric, data)
    total = np.sum(data, axis=0)
    shard = 1024
    for r in range(8):
        np.testing.assert_allclose(
            result.buffers[r], total[r * shard : (r + 1) * shard], rtol=1e-4, atol=1e-4
        )


def test_inc_reduce_scatter_back_to_back():
    fabric = make_fabric(2, Topology.back_to_back())
    data = rs_data(2, 2048)
    result = inc_reduce_scatter(fabric, data)
    total = np.sum(data, axis=0)
    np.testing.assert_allclose(result.buffers[0], total[:1024], rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(result.buffers[1], total[1024:], rtol=1e-4, atol=1e-4)


def test_inc_recv_path_is_shard_not_full_buffer():
    """Fig 3 / Insight 2: INC RS is send-path bound — each NIC receives only
    its N/P shard, while ring RS receives ~N(P-1)/P.  The send paths are
    comparable (the whole contribution goes up either way)."""
    data = rs_data(4, 65536)
    f_inc = make_fabric(4, Topology.leaf_spine(4, 2, 2))
    inc_reduce_scatter(f_inc, data)
    inc_recv = sum(n.bytes_received for n in f_inc.nics.values())
    f_ring = make_fabric(4, Topology.leaf_spine(4, 2, 2))
    ring_reduce_scatter(f_ring, data)
    ring_recv = sum(n.bytes_received for n in f_ring.nics.values())
    # Ring delivers (P-1) shards per rank vs INC's 1 shard per rank.
    assert inc_recv < ring_recv / 2


# -------------------------------------------------------------------- shape


def test_ring_ag_duration_grows_with_p():
    n = kib(32)
    d4 = ring_allgather(make_fabric(4), ag_data(4, n)).duration
    d8 = ring_allgather(make_fabric(8), ag_data(8, n)).duration
    assert d8 > d4 * 1.5  # ~(P-1) scaling


# ------------------------------------------------------- one result type
#
# Every baseline lands in lazily backed regions and returns the one
# CollectiveResult.  Its virtual time and traffic are pinned to the values
# the byte-array baselines produced on this fabric, bit for bit.

PIN_P = 8
PIN_U8 = [np.random.default_rng(r).integers(0, 256, kib(8), dtype=np.uint8)
          for r in range(PIN_P)]
PIN_F32 = [np.random.default_rng(100 + r).integers(-8, 8, 2048).astype(np.float32)
           for r in range(PIN_P)]
PIN_MSG = np.random.default_rng(7).integers(0, 256, kib(40), dtype=np.uint8)

#: name → (run on a fabric, verify, expected, t_end, switch_bytes,
#: host_injected_bytes)
BASELINE_PINS = {
    "ring_allgather": (
        lambda f: ring_allgather(f, PIN_U8), "verify_allgather", PIN_U8,
        4.007428571428572e-05, 698880, 458752),
    "linear_allgather": (
        lambda f: linear_allgather(f, PIN_U8), "verify_allgather", PIN_U8,
        1.7420000000000006e-05, 998400, 458752),
    "recursive_doubling_allgather": (
        lambda f: recursive_doubling_allgather(f, PIN_U8), "verify_allgather",
        PIN_U8, 2.8517142857142858e-05, 998400, 458752),
    "knomial_broadcast": (
        lambda f: knomial_broadcast(f, 3, PIN_MSG), "verify_broadcast", PIN_MSG,
        5.321142857142857e-05, 624000, 286720),
    "binary_tree_broadcast": (
        lambda f: binary_tree_broadcast(f, 3, PIN_MSG, segment_bytes=kib(16)),
        "verify_broadcast", PIN_MSG, 3.2680000000000006e-05, 707200, 286720),
    "ring_reduce_scatter": (
        lambda f: ring_reduce_scatter(f, PIN_F32), "verify_reduce_scatter",
        PIN_F32, 7.20312451520647e-05, 96000, 57344),
    "inc_reduce_scatter": (
        lambda f: inc_reduce_scatter(f, PIN_F32), "verify_reduce_scatter",
        PIN_F32, 7.419714285714284e-06, 34816, 65536),
    "inc_reduce": (
        lambda f: inc_reduce(f, PIN_F32, 2), "verify_reduce", PIN_F32,
        8.021428571428573e-06, 33280, 65536),
    "p2p_alltoall": (
        lambda f: p2p_alltoall(f, PIN_U8, chunk_bytes=512), "verify_alltoall",
        PIN_U8, 9.949142857142859e-06, 138240, 57344),
    "comm_reduce_scatter_inc": (
        lambda f: Communicator(f).reduce_scatter(PIN_F32),
        "verify_reduce_scatter", PIN_F32, 7.419714285714284e-06, 34816, 69632),
    "comm_reduce_scatter_ring": (
        lambda f: Communicator(f).reduce_scatter(PIN_F32, algorithm="ring"),
        "verify_reduce_scatter", PIN_F32, 7.20312451520647e-05, 96000, 64000),
    "comm_reduce": (
        lambda f: Communicator(f).reduce(PIN_F32, 2), "verify_reduce", PIN_F32,
        8.021428571428573e-06, 33280, 66560),
    "comm_alltoall": (
        lambda f: Communicator(f).alltoall(PIN_U8), "verify_alltoall", PIN_U8,
        7.721714285714285e-06, 130560, 60928),
}


@pytest.mark.parametrize("name", sorted(BASELINE_PINS))
def test_baseline_lands_in_regions_with_pinned_time_and_traffic(name):
    """Direct calls and Communicator submissions alike: the result is a
    CollectiveResult over PayloadBuffers, its check materialises no region,
    and time and traffic equal the pinned values."""
    run, verify, expected, t_end, switch_bytes, injected = BASELINE_PINS[name]
    res = run(make_fabric(PIN_P, Topology.leaf_spine(PIN_P, 2, 2)))
    assert isinstance(res, CollectiveResult)
    assert isinstance(res.buffers, PayloadBuffers)
    assert len(res.buffers) == PIN_P
    assert getattr(res, verify)(expected)
    assert not any(mr.materialized for mr in res.buffers.regions)
    assert res.t_end == t_end
    assert res.traffic["switch_bytes"] == switch_bytes
    assert res.traffic["host_injected_bytes"] == injected


def test_ring_allgather_at_32_ranks_materialises_no_region():
    """The ring moves every shard by reference from one snapshot: no rank's
    P·N receive region becomes a byte array, during the run or its check."""
    p = 32
    data = ag_data(p, kib(16))
    res = ring_allgather(make_fabric(p, Topology.leaf_spine(p, 4, 2)), data)
    assert res.verify_allgather(data)
    assert not any(mr.materialized for mr in res.buffers.regions)


def test_baseline_buffers_read_back_as_arrays():
    """``buffers[r]`` still hands back rank *r*'s array (materialising that
    rank only): float32 for the reductions, empty off the Reduce root."""
    res = inc_reduce(make_fabric(4), rs_data(4, 1024), 1)
    assert [b.size for b in res.buffers] == [0, 1024, 0, 0]
    assert res.buffers[1].dtype == np.float32
    assert sum(mr.materialized for mr in res.buffers.regions) == 4
