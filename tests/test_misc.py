"""Tests: units, DMA engine, memory regions, workloads, communicator API."""

import numpy as np
import pytest

from repro import CollectiveConfig, Communicator, Fabric, Simulator, Topology
from repro.net.dma import DmaEngine
from repro.net.memory import Memory
from repro.units import (
    GiB,
    KiB,
    MiB,
    gbit_per_s,
    gib,
    gib_per_s,
    kib,
    mib,
    pretty_bytes,
    pretty_rate,
    to_gbit_per_s,
    to_gib_per_s,
)
from repro.workloads import SweepPoint, sweep


# --------------------------------------------------------------------- units


def test_byte_units():
    assert kib(4) == 4096
    assert mib(1) == MiB == 1048576
    assert gib(2) == 2 * GiB


def test_bandwidth_units_roundtrip():
    assert to_gbit_per_s(gbit_per_s(200)) == pytest.approx(200)
    assert to_gib_per_s(gib_per_s(11.9)) == pytest.approx(11.9)


def test_vendor_decimal_bits():
    # 200 Gbit/s is 25 decimal GB/s, not 25 GiB/s.
    assert gbit_per_s(200) == 25e9


def test_pretty_formatting():
    assert pretty_bytes(4096) == "4 KiB"
    assert pretty_bytes(100) == "100 B"
    assert "Gbit/s" in pretty_rate(gbit_per_s(56))


# ---------------------------------------------------------------- DMA engine


def test_dma_copy_moves_data_at_completion():
    sim = Simulator()
    dma = DmaEngine(sim, bandwidth=1e9, latency=1e-6)
    mem = Memory(0)
    src = mem.register(np.arange(1000, dtype=np.uint8))
    dst = mem.register(1000)
    ev = dma.copy((src, 0), (dst, 0), 1000)
    assert not dst.equals(src.buf, {})  # not yet
    sim.run()
    assert ev.triggered
    assert dst.equals(src.buf, {})
    assert not dst.materialized  # moved as a piece, not as bytes
    assert sim.now == pytest.approx(1000 / 1e9 + 1e-6)


def test_dma_queues_back_to_back():
    sim = Simulator()
    dma = DmaEngine(sim, bandwidth=1e9, latency=0.0)
    mem = Memory(0)
    bufs = [(mem.register(np.full(1000, i, dtype=np.uint8)), mem.register(1000))
            for i in range(3)]
    events = [dma.copy((s, 0), (d, 0), 1000) for s, d in bufs]
    sim.drain(events)
    assert sim.now == pytest.approx(3e-6)
    assert dma.ops == 3 and dma.bytes_copied == 3000
    assert all(bytes(d.buf) == bytes(s.buf) for s, d in bufs)


def test_dma_size_mismatch_rejected():
    # A copy larger than either end is refused at issue, before it queues.
    sim = Simulator()
    dma = DmaEngine(sim)
    mem = Memory(0)
    small, big = mem.register(10), mem.register(20)
    with pytest.raises(IndexError):
        dma.copy((small, 0), (big, 0), 20)
    with pytest.raises(IndexError):
        dma.copy((big, 0), (small, 0), 20)
    with pytest.raises(IndexError):
        dma.copy((big, 15), (big, 0), 10)
    assert dma.ops == 0 and dma.busy_until == 0.0 and not sim._queue


@pytest.mark.parametrize("lazy", [True, False])
def test_dma_reads_a_held_slot_when_it_moves(lazy):
    # Both slots are overwritten after issue, before completion: copy()
    # reads at completion, copy_runs() moved at issue — the bytes a byte
    # copy at those instants leaves, on a lazy ring and a materialised one.
    n = 1024
    old = np.full(n, 1, dtype=np.uint8)
    new = np.arange(n, dtype=np.uint8)
    sim = Simulator()
    dma = DmaEngine(sim, bandwidth=1e9, latency=1e-6)
    mem = Memory(0)
    ring = mem.register(2 * n if lazy else np.zeros(2 * n, dtype=np.uint8))
    at_completion, at_issue = mem.register(n), mem.register(n)
    ring.place(0, old, 0, n)
    ring.place(n, old, 0, n)
    ev = dma.copy((ring, 0), (at_completion, 0), n)
    (done,) = dma.copy_runs([((ring, n), (at_issue, 0), [(n, 0.0)])])
    ring.place(0, new, 0, n)
    ring.place(n, new, 0, n)
    sim.run()
    assert ev.triggered and sim.now < done
    assert bytes(at_completion.buf) == bytes(new)
    assert bytes(at_issue.buf) == bytes(old)
    assert ring.materialized is not lazy


def test_dma_invalid_bandwidth():
    with pytest.raises(ValueError):
        DmaEngine(Simulator(), bandwidth=0)


# -------------------------------------------------------------------- Memory


def test_memory_register_and_view():
    mem = Memory(host=0)
    mr = mem.register(1024)
    view = mr.view(100, 24)
    view[:] = 7
    assert mr.buf[100] == 7 and mr.buf[123] == 7


def test_memory_bounds_fault():
    mem = Memory(host=0)
    mr = mem.register(100)
    with pytest.raises(IndexError):
        mr.view(90, 20)


def test_memory_symmetric_key_and_collision():
    mem = Memory(host=0)
    mem.register(64, key=5000)
    with pytest.raises(ValueError, match="already registered"):
        mem.register(64, key=5000)
    assert mem.lookup(5000).nbytes == 64


def test_memory_unknown_key_fault():
    mem = Memory(host=0)
    with pytest.raises(KeyError, match="remote access fault"):
        mem.lookup(12345)


def test_memory_deregister():
    mem = Memory(host=0)
    mr = mem.register(64)
    mem.deregister(mr.key)
    with pytest.raises(KeyError):
        mem.lookup(mr.key)
    assert len(mem) == 0


# --------------------------------------------------------------- OSU sweeps


def test_sweep_discipline():
    calls = []

    def run_once(size):
        calls.append(size)
        return size * 1e-9

    points = sweep(run_once, sizes=(1024, 2048), warmup=2, iterations=3)
    assert calls == [1024] * 5 + [2048] * 5  # 2 warmup + 3 measured each
    assert len(points) == 2
    assert points[0].mean == pytest.approx(1024e-9)
    assert points[1].throughput(2048) == pytest.approx(2048 / 2048e-9)


def test_sweep_point_best():
    p = SweepPoint(100, [3.0, 1.0, 2.0])
    assert p.best == 1.0
    assert p.mean == 2.0


# -------------------------------------------------------- communicator API


def make_comm(n=4, config=None):
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(n), link_bandwidth=gbit_per_s(56))
    return Communicator(fabric, config=config)


def test_config_validation_against_fabric():
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(2), mtu=4096)
    with pytest.raises(ValueError, match="MTU"):
        Communicator(fabric, config=CollectiveConfig(chunk_size=8192))
    # UC transport may exceed the MTU (multi-packet chunks).
    Communicator(fabric, config=CollectiveConfig(chunk_size=8192, transport="uc"))


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        CollectiveConfig(transport="tcp").validate(
            Fabric(Simulator(), Topology.star(2)))
    with pytest.raises(ValueError):
        CollectiveConfig(n_subgroups=0).validate(
            Fabric(Simulator(), Topology.star(2)))


@pytest.mark.parametrize("field", ["batch_size", "max_outstanding_batches",
                                   "n_chains"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_counts_below_one(field, value):
    # Unchecked, batch_size=-1 posted no multicast WR at all and every chunk
    # arrived by recovery; the others failed mid-run with a bare range(),
    # drain or division error.
    fabric = Fabric(Simulator(), Topology.star(4))
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        Communicator(fabric, config=CollectiveConfig(**{field: value}))


def test_broadcast_root_range_checked():
    comm = make_comm(4)
    with pytest.raises(ValueError, match="root"):
        comm.broadcast(4, np.zeros(128, dtype=np.uint8))


def test_empty_buffers_rejected():
    comm = make_comm(2)
    with pytest.raises(ValueError, match="empty"):
        comm.broadcast(0, np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError, match="empty"):
        comm.allgather([np.zeros(0, dtype=np.uint8)] * 2)


def test_allgather_wrong_buffer_count():
    comm = make_comm(3)
    with pytest.raises(ValueError, match="send buffers"):
        comm.allgather([np.zeros(1024, dtype=np.uint8)] * 2)


def test_allgather_mismatched_sizes():
    comm = make_comm(2)
    with pytest.raises(ValueError, match="same size"):
        comm.allgather([np.zeros(1024, dtype=np.uint8),
                        np.zeros(2048, dtype=np.uint8)])


def test_duplicate_hosts_rejected():
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(4))
    with pytest.raises(ValueError, match="duplicate"):
        Communicator(fabric, hosts=[0, 1, 1])


def test_non_uint8_payloads_accepted():
    comm = make_comm(2)
    data = np.arange(1024, dtype=np.float32)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


def test_multiple_sequential_collectives_reuse_communicator():
    comm = make_comm(4)
    for i in range(3):
        data = np.full(8192, i, dtype=np.uint8)
        assert comm.broadcast(i % 4, data).verify_broadcast(data)


def test_result_metrics_consistency():
    comm = make_comm(4)
    data = [np.full(16 * KiB, r, dtype=np.uint8) for r in range(4)]
    res = comm.allgather(data)
    assert res.recv_bytes_per_rank == 3 * 16 * KiB
    assert res.throughput == pytest.approx(4 * 16 * KiB / res.duration)
    assert res.duration > 0
    bd = res.phase_means()
    assert bd.total == pytest.approx(bd.sync + bd.multicast + bd.handshake)


def test_subcommunicator_on_host_subset():
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(8, 2, 2), link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric, hosts=[1, 3, 5, 7])
    data = [np.full(8192, r, dtype=np.uint8) for r in range(4)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)


def test_two_communicators_share_fabric():
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(8, 2, 2), link_bandwidth=gbit_per_s(56))
    c1 = Communicator(fabric, hosts=[0, 1, 2, 3])
    c2 = Communicator(fabric, hosts=[4, 5, 6, 7])
    d1 = [np.full(8192, r, dtype=np.uint8) for r in range(4)]
    d2 = [np.full(8192, 100 + r, dtype=np.uint8) for r in range(4)]
    h1 = c1.allgather_async(d1)
    h2 = c2.allgather_async(d2)
    sim.drain([h1.done_event, h2.done_event])
    assert h1.result().verify_allgather(d1)
    assert h2.result().verify_allgather(d2)
