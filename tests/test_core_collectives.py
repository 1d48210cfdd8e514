"""Integration tests: the multicast Broadcast/Allgather protocol end-to-end."""

import numpy as np
import pytest

from repro.core import CollectiveConfig, Communicator
from repro.core.costmodel import HostCostModel
from repro.core.request import CollectiveRequest
from repro.net import Fabric, Topology
from repro.net.link import FaultSpec
from repro.sim import RandomStreams, Simulator
from repro.units import gbit_per_s, kib


def make_comm(n_hosts=4, topo=None, config=None, seed=0, **fabric_kw):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topo or Topology.star(n_hosts),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed=seed),
        **fabric_kw,
    )
    return Communicator(fabric, config=config)


def rank_data(rank, nbytes):
    rng = np.random.default_rng(1000 + rank)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


# ------------------------------------------------------------------ broadcast


def test_broadcast_star_correct():
    comm = make_comm(4)
    data = rank_data(0, kib(64))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.duration > 0


def test_broadcast_nonzero_root():
    comm = make_comm(4)
    data = rank_data(2, kib(16))
    result = comm.broadcast(2, data)
    assert result.verify_broadcast(data)


def test_broadcast_leaf_spine():
    comm = make_comm(8, topo=Topology.leaf_spine(8, n_leaf=2, n_spine=2))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


def test_broadcast_back_to_back():
    comm = make_comm(2, topo=Topology.back_to_back())
    data = rank_data(0, kib(32))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


def test_broadcast_single_rank():
    comm = make_comm(1)
    data = rank_data(0, 1000)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


def test_broadcast_non_chunk_multiple_size():
    comm = make_comm(4)
    data = rank_data(0, 10000)  # not a multiple of 4096
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


def test_broadcast_traffic_is_bandwidth_optimal_on_star():
    """Every byte crosses each switch egress port exactly once: switch
    traffic == (P-1) * N payload for a star."""
    comm = make_comm(4)
    data = rank_data(0, kib(64))
    result = comm.broadcast(0, data)
    payload = result.traffic["switch_payload_bytes"]
    # 3 leaves get one copy each; control messages add a little.
    assert payload >= 3 * kib(64)
    assert payload < 3 * kib(64) * 1.05


def test_broadcast_phases_recorded():
    comm = make_comm(4)
    result = comm.broadcast(0, rank_data(0, kib(64)))
    for rs in result.ranks:
        assert rs.breakdown.total > 0
        assert rs.breakdown.sync >= 0
        assert rs.breakdown.multicast >= 0
        assert rs.breakdown.handshake >= 0


# ------------------------------------------------------------------ allgather


def test_allgather_star_correct():
    comm = make_comm(4)
    data = [rank_data(r, kib(16)) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_leaf_spine_correct():
    comm = make_comm(8, topo=Topology.leaf_spine(8, n_leaf=2, n_spine=2))
    data = [rank_data(r, kib(32)) for r in range(8)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_small_buffers():
    comm = make_comm(4)
    data = [rank_data(r, 512) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_two_ranks():
    comm = make_comm(2, topo=Topology.back_to_back())
    data = [rank_data(r, kib(8)) for r in range(2)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_multiple_chains():
    config = CollectiveConfig(n_chains=2)
    comm = make_comm(8, config=config)
    data = [rank_data(r, kib(16)) for r in range(8)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_multiple_subgroups():
    config = CollectiveConfig(n_subgroups=4)
    comm = make_comm(4, config=config)
    data = [rank_data(r, kib(64)) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_uc_transport():
    config = CollectiveConfig(transport="uc", chunk_size=kib(16))
    comm = make_comm(4, config=config)
    data = [rank_data(r, kib(64)) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_allgather_send_bandwidth_constant():
    """The defining property: each rank injects ~N bytes regardless of P."""
    injected = {}
    for p in (4, 8):
        comm = make_comm(p, topo=Topology.leaf_spine(p, 2, 2))
        data = [rank_data(r, kib(32)) for r in range(p)]
        before = comm.fabric.host_injected_bytes(payload_only=True)
        result = comm.allgather(data)
        assert result.verify_allgather(data)
        after = comm.fabric.host_injected_bytes(payload_only=True)
        injected[p] = (after - before) / p  # per-rank average
    # Per-rank injection is ≈ N (plus small control traffic), independent of P.
    assert injected[8] < injected[4] * 1.5
    for p, per_rank in injected.items():
        assert per_rank < kib(32) * 1.6, f"P={p}: injected {per_rank}"


def test_allgather_misaligned_size_rejected():
    comm = make_comm(4)
    data = [rank_data(r, 6000) for r in range(4)]  # not chunk-aligned
    with pytest.raises(ValueError, match="multiple of the chunk"):
        comm.allgather(data)


# ---------------------------------------------------------------- reliability


def test_broadcast_recovers_from_deterministic_drops():
    comm = make_comm(4)
    # Drop the first three multicast datagrams leaving the switch to h2.
    comm.fabric.set_fault("sw000", "h2", FaultSpec(drop_packet_seqs={0, 1, 2}))
    data = rank_data(0, kib(64))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.counter_total("recovered_chunks") == 3
    assert result.counter_total("recoveries") >= 1


def test_broadcast_recovers_from_random_drops():
    comm = make_comm(4, seed=42)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(drop_prob=0.05))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.counter_total("recovered_chunks") > 0


def test_allgather_recovers_from_random_drops():
    comm = make_comm(4, seed=7)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(drop_prob=0.03))
    data = [rank_data(r, kib(32)) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_broadcast_with_reordering():
    comm = make_comm(4, seed=3)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(reorder_jitter=20e-6))
    data = rank_data(0, kib(256))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


def test_allgather_with_drops_and_reordering():
    comm = make_comm(4, seed=11)
    comm.fabric.set_fault_all(
        lambda s, d: FaultSpec(drop_prob=0.02, reorder_jitter=10e-6)
    )
    data = [rank_data(r, kib(16)) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


def test_recursive_fetch_chain():
    """Drop the same chunk toward two adjacent ranks: the downstream one
    must fetch from an upstream neighbor that is itself recovering."""
    comm = make_comm(4)
    comm.fabric.set_fault("sw000", "h1", FaultSpec(drop_packet_seqs={0}))
    comm.fabric.set_fault("sw000", "h2", FaultSpec(drop_packet_seqs={0}))
    data = rank_data(0, kib(64))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.counter_total("recovered_chunks") == 2


# ----------------------------------------------------------------- overlap


def test_two_concurrent_broadcasts():
    comm = make_comm(4)
    d0 = rank_data(0, kib(32))
    d1 = rank_data(1, kib(32))
    h0 = comm.submit(CollectiveRequest(kind="broadcast", data=d0, root=0))
    h1 = comm.submit(CollectiveRequest(kind="broadcast", data=d1, root=1))
    comm.run(h0, h1)
    r0, r1 = h0.result(), h1.result()
    assert r0.verify_broadcast(d0)
    assert r1.verify_broadcast(d1)


def test_concurrent_broadcast_and_allgather():
    comm = make_comm(4)
    bd = rank_data(9, kib(32))
    ad = [rank_data(r, kib(16)) for r in range(4)]
    hb = comm.submit(CollectiveRequest(kind="broadcast", data=bd, root=1))
    ha = comm.submit(CollectiveRequest(kind="allgather", data=ad))
    comm.run(hb, ha)
    assert hb.result().verify_broadcast(bd)
    assert ha.result().verify_allgather(ad)


# -------------------------------------------------------------------- timing


def test_broadcast_time_scales_with_size():
    comm = make_comm(4, config=CollectiveConfig(cost=HostCostModel.free()))
    r_small = comm.broadcast(0, rank_data(0, kib(64)))
    comm2 = make_comm(4, config=CollectiveConfig(cost=HostCostModel.free()))
    r_large = comm2.broadcast(0, rank_data(0, kib(512)))
    assert r_large.duration > r_small.duration


def test_broadcast_constant_time_in_p():
    """The headline property (§III): broadcast time is ~independent of P."""
    durations = {}
    for p in (4, 16):
        comm = make_comm(p, config=CollectiveConfig(cost=HostCostModel.free()))
        durations[p] = comm.broadcast(0, rank_data(0, kib(256))).duration
    # Allow slack for the log(P) barrier, but nothing like a 4x tree cost.
    assert durations[16] < durations[4] * 1.35


def test_sync_fraction_shrinks_with_message_size():
    """Fig 10 shape: synchronization dominates small messages only."""
    comm = make_comm(8)
    small = comm.broadcast(0, rank_data(0, 4096)).phase_means()
    comm2 = make_comm(8)
    large = comm2.broadcast(0, rank_data(0, kib(1024))).phase_means()
    assert large.sync_fraction < small.sync_fraction
