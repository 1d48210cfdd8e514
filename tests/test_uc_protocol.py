"""UC-multicast protocol variant (§V-B): direct placement, no staging.

The paper prototypes a second receive datapath over the hypothetical
UC-multicast extension: arbitrary-length RDMA writes land directly in the
user buffer (symmetric rkey), the staging ring becomes redundant, and
CQEs arrive per *chunk* rather than per MTU packet.
"""

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net import Fabric, Topology
from repro.net.link import FaultSpec
from repro.sim import RandomStreams, Simulator
from repro.units import KiB, gbit_per_s


def uc_comm(n=4, topo=None, seed=0, reference=False, **cfg):
    sim = Simulator()
    fabric = Fabric(sim, topo or Topology.star(n), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed), reference=reference)
    config = CollectiveConfig(transport="uc", **cfg)
    return Communicator(fabric, config=config)


def test_uc_broadcast_correct():
    comm = uc_comm(4, chunk_size=16 * KiB)
    data = np.random.default_rng(0).integers(0, 256, 128 * KiB, dtype=np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)


def test_uc_multipacket_chunks_exceed_mtu():
    """UC chunks may span many MTU packets — the Fig 15 configuration."""
    comm = uc_comm(4, chunk_size=64 * KiB)  # 16 wire packets per chunk
    data = np.random.default_rng(1).integers(0, 256, 256 * KiB, dtype=np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)
    # One CQE per chunk: 4 chunks per leaf, not 64 packets.
    assert res.counter_total("chunks_received") == 3 * 4


def test_uc_allgather_leaf_spine():
    comm = uc_comm(8, topo=Topology.leaf_spine(8, 2, 2), chunk_size=16 * KiB)
    data = [np.full(64 * KiB, r % 251, dtype=np.uint8) for r in range(8)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)


def test_uc_recovers_from_dropped_segment():
    """Losing one MTU segment of a multi-packet chunk kills the whole
    chunk's CQE; the fetch layer must restore it."""
    comm = uc_comm(4, chunk_size=32 * KiB, seed=2)
    comm.fabric.set_fault("sw000", "h2", FaultSpec(drop_packet_seqs={5}))
    data = np.random.default_rng(2).integers(0, 256, 128 * KiB, dtype=np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)
    assert res.counter_total("recovered_chunks") >= 1


def test_uc_recovers_from_random_drops():
    comm = uc_comm(4, chunk_size=16 * KiB, seed=9)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(drop_prob=0.03))
    data = [np.full(32 * KiB, r, dtype=np.uint8) for r in range(4)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)


def test_uc_tolerates_reordering():
    comm = uc_comm(4, chunk_size=16 * KiB, seed=3)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(reorder_jitter=15e-6))
    data = np.random.default_rng(3).integers(0, 256, 256 * KiB, dtype=np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)


def test_uc_with_subgroups():
    comm = uc_comm(4, chunk_size=16 * KiB, n_subgroups=2)
    data = [np.full(64 * KiB, 50 + r, dtype=np.uint8) for r in range(4)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)


def test_uc_faster_than_ud_per_chunk_software():
    """Same payload, same fabric: UC spends less progress-engine time
    (no staging copies), so with an expensive cost model it finishes
    sooner — the §V-B motivation."""
    from repro.core.costmodel import HostCostModel

    data = np.random.default_rng(4).integers(0, 256, 512 * KiB, dtype=np.uint8)
    weak = HostCostModel().scaled(10.0)
    durations = {}
    for transport in ("ud", "uc"):
        sim = Simulator()
        fabric = Fabric(sim, Topology.star(4), link_bandwidth=gbit_per_s(200))
        comm = Communicator(fabric, config=CollectiveConfig(
            transport=transport, chunk_size=4096, cost=weak))
        durations[transport] = comm.broadcast(0, data).duration
    assert durations["uc"] < durations["ud"]


def test_uc_bringup_is_independent_of_ring_depth():
    """Data-plane bring-up is O(ranks): a UC rank owns one cached receive
    WR whatever ``staging_slots`` is, so the communicator allocates exactly
    as many GC-tracked objects for a 16-deep ring as for a 2048-deep one."""
    import gc

    def build(slots):
        fabric = Fabric(Simulator(), Topology.leaf_spine(64, 8, 4),
                        link_bandwidth=gbit_per_s(56), streams=RandomStreams(0))
        gc.collect()
        before = len(gc.get_objects())
        comm = Communicator(fabric, config=CollectiveConfig(
            transport="uc", chunk_size=4 * KiB, staging_slots=slots))
        gc.collect()
        return comm, len(gc.get_objects()) - before

    build(16)  # warm the import-time and per-process caches
    (shallow, n_shallow), (deep, n_deep) = build(16), build(2048)
    assert n_shallow == n_deep
    for comm, slots in ((shallow, 16), (deep, 2048)):
        for engine in comm.engines:
            for qp in engine.sub_qps:
                assert len(qp.recv_queue) == qp.posted == slots
    assert deep.fabric.streams.count == 0  # and no RNG on a clean fabric


@pytest.mark.parametrize("reference", [False, True])
def test_uc_packet_level_broadcast_recycles_the_cached_wr(reference):
    """Every consumed receive is re-posted: after a packet-level broadcast
    each queue is back at ``staging_slots`` deep, and ``posted`` counts the
    first posts plus one re-post per chunk (values pinned at 618ceef, where
    each re-post built and re-validated a fresh WR)."""
    comm = uc_comm(64, topo=Topology.leaf_spine(64, 8, 4), chunk_size=4 * KiB,
                   staging_slots=16, fast_forward="off",
                   reference=reference)
    data = np.random.default_rng(0).integers(0, 256, 64 * KiB, dtype=np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data) and res.engine["ff_phases"] == 0
    assert bool(res.engine["cqe_batches"]) != reference
    qps = [qp for engine in comm.engines for qp in engine.sub_qps]
    assert [len(qp.recv_queue) for qp in qps] == [16] * 64
    assert [qp.posted for qp in qps] == [16] + [32] * 63
