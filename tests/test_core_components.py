"""Unit tests: chunking/imm-layout, bitmap, staging ring, sequencer,
subgroups, cost model."""

import numpy as np
import pytest

from repro.core import (
    Bitmap,
    BroadcastSequencer,
    ChunkPlan,
    HostCostModel,
    ImmLayout,
    StagingRing,
    SubgroupPlan,
    recv_table,
)
from repro.net import Fabric, RecvWR, Topology, Transport
from repro.sim import Simulator
from repro.units import gbit_per_s


# ----------------------------------------------------------------- ImmLayout


def test_imm_layout_roundtrip():
    layout = ImmLayout(psn_bits=24)
    imm = layout.encode(psn=123456, coll_id=37)
    assert layout.decode(imm) == (123456, 37)


def test_imm_layout_bounds():
    layout = ImmLayout(psn_bits=24)
    assert layout.max_psns == 1 << 24
    assert layout.max_collectives == 256
    with pytest.raises(ValueError):
        layout.encode(1 << 24, 0)
    with pytest.raises(ValueError):
        layout.encode(0, 256)


def test_imm_layout_fits_32_bits():
    layout = ImmLayout(psn_bits=30)
    imm = layout.encode(layout.max_psns - 1, layout.max_collectives - 1)
    assert imm < (1 << 32)


def test_imm_layout_fig7_sizes():
    layout = ImmLayout(psn_bits=24)
    assert layout.max_buffer_bytes(4096) == (1 << 24) * 4096  # 64 GiB
    assert layout.bitmap_bytes() == (1 << 24) // 8  # 2 MiB


def test_imm_layout_invalid_bits():
    with pytest.raises(ValueError):
        ImmLayout(psn_bits=0)
    with pytest.raises(ValueError):
        ImmLayout(psn_bits=33)


def test_imm_decode_rejects_wide_values():
    with pytest.raises(ValueError):
        ImmLayout().decode(1 << 32)


# ----------------------------------------------------------------- ChunkPlan


def test_chunk_plan_exact_division():
    plan = ChunkPlan(16384, 4096)
    assert plan.n_chunks == 4
    assert plan.bounds(0) == (0, 4096)
    assert plan.bounds(3) == (12288, 4096)


def test_chunk_plan_tail_chunk():
    plan = ChunkPlan(10000, 4096)
    assert plan.n_chunks == 3
    assert plan.bounds(2) == (8192, 1808)


def test_chunk_plan_iteration_covers_buffer():
    plan = ChunkPlan(10000, 4096)
    total = sum(ln for _, _, ln in plan)
    assert total == 10000


def test_chunk_plan_empty():
    plan = ChunkPlan(0, 4096)
    assert plan.n_chunks == 0
    assert list(plan) == []


def test_chunk_plan_bounds_validation():
    plan = ChunkPlan(8192, 4096)
    with pytest.raises(IndexError):
        plan.bounds(2)
    with pytest.raises(ValueError):
        ChunkPlan(-1, 4096)
    with pytest.raises(ValueError):
        ChunkPlan(100, 0)


def test_chunk_of_offset():
    plan = ChunkPlan(16384, 4096)
    assert plan.chunk_of_offset(0) == 0
    assert plan.chunk_of_offset(4095) == 0
    assert plan.chunk_of_offset(4096) == 1


# -------------------------------------------------------------------- Bitmap


def test_bitmap_set_and_test():
    bm = Bitmap(100)
    assert not bm.test(5)
    assert bm.set(5)
    assert bm.test(5)
    assert not bm.set(5)  # duplicate
    assert bm.count == 1


def test_bitmap_all_set():
    bm = Bitmap(10)
    for i in range(10):
        bm.set(i)
    assert bm.all_set()
    assert bm.missing() == []


def test_bitmap_missing_and_runs():
    bm = Bitmap(16)
    for i in (0, 1, 2, 5, 9, 10, 15):
        bm.set(i)
    assert bm.missing() == [3, 4, 6, 7, 8, 11, 12, 13, 14]
    assert bm.missing_runs() == [(3, 2), (6, 3), (11, 4)]


def test_bitmap_word_boundary():
    bm = Bitmap(130)
    bm.set(63)
    bm.set(64)
    bm.set(127)
    bm.set(128)
    assert bm.count == 4
    assert bm.test(63) and bm.test(64) and bm.test(127) and bm.test(128)
    assert 65 in bm.missing()


def test_bitmap_clear_and_reset():
    bm = Bitmap(10)
    bm.set(3)
    bm.clear(3)
    assert not bm.test(3) and bm.count == 0
    bm.set(1)
    bm.reset()
    assert bm.count == 0


def test_bitmap_out_of_range():
    bm = Bitmap(8)
    with pytest.raises(IndexError):
        bm.set(8)
    with pytest.raises(IndexError):
        bm.test(-1)


def test_bitmap_memory_footprint():
    assert Bitmap(1 << 20).nbytes == (1 << 20) // 8


def test_bitmap_partial_prefix_check():
    bm = Bitmap(100)
    for i in range(50, 60):
        bm.set(i)
    assert not bm.all_set(10)  # first 10 unset despite count == 10


# --------------------------------------------------------------- StagingRing


def make_ring(n_slots=4, slot=4096):
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(2), link_bandwidth=gbit_per_s(56))
    nic = fabric.nic(0)
    qp = nic.create_qp(Transport.UD, max_recv_wr=n_slots)
    return StagingRing(nic, recv_table(n_slots, slot)), qp


def test_staging_prime_posts_all():
    ring, qp = make_ring(4)
    assert ring.prime(qp) == 4
    assert ring.posted == 4
    assert len(qp.recv_queue) == 4


def test_staging_lifecycle():
    ring, qp = make_ring(2)
    ring.prime(qp)
    qp.recv_queue.popleft()  # hardware consumed slot 0
    assert ring.on_cqe(0) is None  # the slot's bytes stay in ring.mr
    assert ring.held == 1
    assert ring.mr.nbytes == 2 * 4096 and not ring.mr.materialized
    ring.repost(0, qp)
    assert ring.posted == 2
    assert ring.reposts == 1


def test_staging_double_hold_rejected():
    ring, qp = make_ring(2)
    ring.prime(qp)
    qp.recv_queue.popleft()
    ring.on_cqe(0)
    with pytest.raises(RuntimeError, match="not posted"):
        ring.on_cqe(0)


def test_staging_repost_requires_held():
    ring, qp = make_ring(2)
    ring.prime(qp)
    with pytest.raises(RuntimeError, match="not held"):
        ring.repost(0, qp)


def test_staging_memory_footprint():
    ring, _ = make_ring(8, 4096)
    assert ring.nbytes == 32768


def test_staging_invalid_params():
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(2))
    for n_slots, slot in ((0, 4096), (4, 0)):
        with pytest.raises(ValueError):
            recv_table(n_slots, slot)
    with pytest.raises(ValueError):
        StagingRing(fabric.nic(0), ())


# ----------------------------------------------------------------- Sequencer


def test_sequencer_appendix_a_formula():
    """G^i = {P_i, P_{R+i}, ..., P_{(M-1)R+i}} with R = P/M."""
    seq = BroadcastSequencer(n_ranks=12, n_chains=3)
    assert seq.chain_length == 4
    assert seq.active_group(0) == [0, 4, 8]
    assert seq.active_group(3) == [3, 7, 11]


def test_sequencer_single_chain():
    seq = BroadcastSequencer(6, 1)
    assert seq.schedule() == [[0], [1], [2], [3], [4], [5]]


def test_sequencer_chain_membership():
    seq = BroadcastSequencer(8, 2)
    assert seq.chain_of(0) == 0 and seq.chain_of(3) == 0
    assert seq.chain_of(4) == 1 and seq.chain_of(7) == 1
    assert seq.step_of(5) == 1


def test_sequencer_activation_chain():
    seq = BroadcastSequencer(8, 2)
    assert seq.predecessor(0) is None and seq.predecessor(4) is None
    assert seq.predecessor(1) == 0 and seq.predecessor(7) == 6
    assert seq.successor(3) is None and seq.successor(7) is None
    assert seq.successor(0) == 1


def test_sequencer_every_rank_roots_once():
    seq = BroadcastSequencer(12, 4)
    all_roots = [r for group in seq.schedule() for r in group]
    assert sorted(all_roots) == list(range(12))


def test_sequencer_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        BroadcastSequencer(10, 4)


# ---------------------------------------------------------------- Subgroups


def test_subgroup_partition_contiguous():
    plan = SubgroupPlan(n_chunks=16, n_subgroups=4)
    assert plan.chunk_range(0) == (0, 4)
    assert plan.chunk_range(3) == (12, 16)


def test_subgroup_uneven_split():
    plan = SubgroupPlan(n_chunks=10, n_subgroups=4)
    ranges = [plan.chunk_range(s) for s in range(4)]
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(10))


def test_subgroup_paper_example():
    """§IV-C: 16 procs, 4 subgroups, 8 MiB buffers → 2 MiB per send QP,
    30 MiB per receive QP."""
    chunk = 4096
    n_chunks = 8 * 1024 * 1024 // chunk
    plan = SubgroupPlan(n_chunks, 4)
    lo, hi = plan.chunk_range(0)
    per_subgroup_bytes = (hi - lo) * chunk
    assert per_subgroup_bytes == 2 * 1024 * 1024
    recv_per_qp = per_subgroup_bytes * 15  # from all 15 peers
    assert recv_per_qp == 30 * 1024 * 1024


def test_subgroup_validation():
    with pytest.raises(ValueError):
        SubgroupPlan(4, 0)
    plan = SubgroupPlan(4, 2)
    with pytest.raises(IndexError):
        plan.chunk_range(2)


# ---------------------------------------------------------------- CostModel


def test_cost_model_aggregates():
    cost = HostCostModel()
    assert cost.per_recv_chunk > cost.per_recv_chunk_uc  # staging copy extra
    assert cost.send_batch(32) == pytest.approx(cost.doorbell + 32 * cost.send_wqe)


def test_cost_model_recv_rate():
    cost = HostCostModel()
    assert cost.recv_rate(8192) == pytest.approx(2 * cost.recv_rate(4096))


def test_cost_model_scaled():
    cost = HostCostModel().scaled(2.0)
    assert cost.cqe_poll == pytest.approx(2 * HostCostModel().cqe_poll)
    with pytest.raises(ValueError):
        HostCostModel().scaled(0)


def test_cost_model_free():
    free = HostCostModel.free()
    assert free.per_recv_chunk == 0.0
    assert free.send_batch(100) == 0.0
