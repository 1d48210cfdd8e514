"""Determinism of the parallel DES + vectorized fold-commit engine.

The contract under test (DESIGN §6e): the vectorized deferred-commit
fast-forward and its sharded parallel backend are *performance* layers —
virtual time, payloads, per-channel counters and telemetry must be
bit-identical to the sequential scalar fold for every shard count and
backend, across clean, lossy and mid-run-perturbed conditions.  Any
float divergence, however small, is a bug.

Three axes are swept:

* **scalar vs vectorized** (``ff_vectorized`` off/on) — event counts drop
  by design, so ``sim_events``/``ff_skipped_events`` are excluded there;
* **shard count** (``parallel`` = 1/2/4) — same vectorized path, so the
  *full* telemetry minus the parallel-only counters must match;
* **backend** (inline vs fork+pipes via ``force_process``).

Plus the partition subsystem's invariants across topology families, and
the deferred-commit abort paths (mid-run fault install, mid-run second
collective) where the session must flush state the packet-level path
then resumes from, bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.link import FaultSpec
from repro.net.plan import PartitionError, partition_fabric, validate_partition
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

#: counters that only the parallel engine produces (zero in scalar runs)
PARALLEL_KEYS = {"shards", "sync_rounds", "boundary_msgs"}
#: additionally different between scalar and vectorized runs by design:
#: the deferred-commit session replaces per-phase finisher events with one
#: completion event per rank
EVENT_KEYS = PARALLEL_KEYS | {"sim_events", "ff_skipped_events"}


def make_comm(P: int, seed: int = 7, *, topo=None, transport: str = "ud",
              ff: str = "exact", vec: bool = True, par="off",
              force_process: bool = False,
              chunk_size: int = 1024) -> Communicator:
    sim = Simulator()
    fabric = Fabric(
        sim,
        topo if topo is not None else Topology.leaf_spine(P, 4, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
    )
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=chunk_size, transport=transport, fast_forward=ff,
        ff_vectorized=vec, parallel=par))
    if force_process and comm.ff is not None:
        comm.ff.force_process = True
    return comm


def ag_data(P: int, nbytes: int = 1024):
    return [np.full(nbytes, (3 * r + 1) % 251, dtype=np.uint8)
            for r in range(P)]


def strip(engine: dict, keys) -> dict:
    return {k: v for k, v in engine.items() if k not in keys}


# ------------------------------------------------------------- partitions


FAMILIES = [
    ("star", lambda: Topology.star(8)),
    ("leaf_spine", lambda: Topology.leaf_spine(16, 4, 2)),
    ("torus", lambda: Topology.torus([2, 2, 2])),
    ("dragonfly", lambda: Topology.dragonfly(3, 2, 2)),
]


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_partition_invariants_across_families(name, make, k):
    sim = Simulator()
    fabric = Fabric(sim, make(), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(1))
    part = partition_fabric(fabric, k)
    validate_partition(fabric, part)
    topo = fabric.topology
    # Effective shard count is clamped to host-bearing switches and the
    # hosts are covered exactly once, in contiguous shard blocks.
    assert 1 <= part.n_shards <= k
    assert sorted(h for s in range(part.n_shards)
                  for h in part.hosts_of(s)) == list(range(topo.n_hosts))
    assert part.host_shard == sorted(part.host_shard)
    # Deterministic: same fabric, same partition.
    again = partition_fabric(fabric, k)
    assert again.switch_shard == part.switch_shard
    assert again.host_shard == part.host_shard
    assert again.cut_edges == part.cut_edges
    assert again.lookahead == part.lookahead
    if part.cut_edges:
        assert part.lookahead > 0.0


def test_partition_rejects_zero_shards():
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(4), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(1))
    with pytest.raises(PartitionError):
        partition_fabric(fabric, 0)


def test_single_switch_partition_has_no_cuts():
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(8), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(1))
    part = partition_fabric(fabric, 4)
    assert part.n_shards == 1
    assert part.cut_edges == []
    assert part.lookahead == float("inf")


# ------------------------------------------- scalar vs vectorized vs shards


@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("seed", [7, 23])
def test_allgather_bitwise_across_shards(transport, seed):
    P = 32
    data = ag_data(P)

    def run(vec, par, force=False):
        comm = make_comm(P, seed, transport=transport, vec=vec, par=par,
                         force_process=force)
        return comm.allgather(data)

    base = run(False, "off")
    runs = {1: run(True, 1), 2: run(True, 2), 4: run(True, 4)}
    pipes = run(True, 2, force=True)
    expected = np.concatenate(data)
    for res in [base, pipes, *runs.values()]:
        assert res.duration == base.duration  # bitwise, not approx
        for buf in res.buffers:
            assert np.array_equal(buf, expected)
    # scalar vs vec: everything but the event-count keys matches
    for res in runs.values():
        assert strip(res.engine, EVENT_KEYS) == strip(base.engine, EVENT_KEYS)
        assert res.traffic == base.traffic
    # shard axis: same vec path, so even the event counts match
    for res in (runs[2], runs[4], pipes):
        assert strip(res.engine, PARALLEL_KEYS) == \
            strip(runs[1].engine, PARALLEL_KEYS)
    assert runs[2].engine["shards"] == 2
    assert runs[4].engine["shards"] == 4
    assert runs[1].engine["sync_rounds"] == P
    # payload cost (DESIGN §6h) is read off coordinator-side op state:
    # exact, and identical for the scalar fold, every shard count and the
    # pipe backend — every received byte a placement, nothing materialised
    for res in [base, pipes, *runs.values()]:
        assert res.engine["payload_bytes_placed"] == P * (P - 1) * 1024
        assert res.engine["payload_bytes_copied"] == 0
        assert res.engine["payload_regions_materialized"] == 0
    # control-plane bring-up is coordinator state: the equalities above
    # hold it identical for every shard count and backend
    assert runs[4].engine["ctrl_pairs"] == base.engine["ctrl_pairs"] > 0
    assert pipes.engine["ctrl_recv_posted"] == base.engine["ctrl_recv_posted"] > 0
    # ... and so is look-ahead delivery (DESIGN §6c): a fully folded
    # allgather hands no data packet to a NIC, whatever the shard count
    for res in [base, pipes, *runs.values()]:
        assert res.engine["stamped_cqes"] == 0
    # inline shards exchange no pipe messages; the fork backend does
    assert runs[2].engine["boundary_msgs"] == 0
    assert pipes.engine["boundary_msgs"] > 0
    assert pipes.duration == base.duration


@pytest.mark.parametrize("seed", [7, 23])
def test_broadcast_bitwise_scalar_vs_vectorized(seed):
    # Broadcast folds whole multi-chunk phases: the vec receiver-fold
    # (matrix path) engages at n_chunks * n_rx >= 512.
    P = 32
    data = np.arange(64 * 1024, dtype=np.uint8).reshape(-1) % 199

    def run(vec):
        comm = make_comm(P, seed, vec=vec)
        return comm.broadcast(0, data)

    a, b = run(False), run(True)
    assert b.duration == a.duration
    assert strip(b.engine, EVENT_KEYS) == strip(a.engine, EVENT_KEYS)
    assert b.traffic == a.traffic
    for buf in b.buffers:
        assert np.array_equal(buf, data)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_allreduce_bitwise_across_shards(shards):
    P = 16
    data = [np.full(2048, r + 1, dtype=np.float32) for r in range(P)]
    base = make_comm(P, vec=False).allreduce(data)
    res = make_comm(P, vec=True, par=shards).allreduce(data)
    assert res.duration == base.duration
    assert res.verify_allreduce(data)
    assert strip(res.engine, EVENT_KEYS) == strip(base.engine, EVENT_KEYS)


def test_parallel_auto_small_collective_stays_sequential():
    P = 16
    res = make_comm(P, vec=True, par="auto").allgather(ag_data(P))
    # below the auto threshold: one shard, still vectorized
    assert res.engine["shards"] == 1
    assert res.engine["sync_rounds"] == P


def test_parallel_config_rejects_bad_values():
    for bad in ("both", 0, -2, True):
        with pytest.raises(ValueError):
            make_comm(4, par=bad)


# ----------------------------------------------------- lossy + abort paths


@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_lossy_from_start_falls_back_identically(transport):
    # A drop-capable fault fails every fold's fault_inert gate, so both
    # engines run packet-level end to end — results must agree exactly.
    P = 16
    data = ag_data(P, 512)

    def run(vec, par):
        comm = make_comm(P, transport=transport, vec=vec, par=par)
        comm.fabric.set_fault_all(
            lambda src, dst: FaultSpec(drop_packet_seqs={2, 5}))
        return comm.allgather(data)

    base = run(False, "off")
    res = run(True, 4)
    assert res.duration == base.duration
    assert res.traffic == base.traffic
    assert [bytes(b) for b in res.buffers] == [bytes(b) for b in base.buffers]
    assert res.engine["sync_rounds"] == 0  # vec session never built


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_fault_install_flushes_bitwise(shards, t_inject):
    # Install a dropping fault mid-collective: the deferred-commit session
    # must flush every folded phase's channel/bitmap/payload state at the
    # abort, and the packet-level path (plus recovery for the dropped
    # chunks) must complete from it at exactly the scalar fold's instant.
    # The two inject times abort the chain near its head (1 folded phase)
    # and mid-chain (~7 of 16).
    P = 16
    data = ag_data(P, 512)

    def run(vec, par):
        comm = make_comm(P, vec=vec, par=par)
        fabric = comm.fabric
        comm.sim.post_at(
            t_inject,
            lambda: fabric.set_fault_all(
                lambda src, dst: FaultSpec(drop_packet_seqs={0})))
        return comm.allgather(data)

    base = run(False, "off")
    res = run(True, shards)
    # the abort must interrupt a *live* session for the test to mean much
    assert 0 < res.engine["sync_rounds"] < P
    assert res.duration == base.duration
    assert res.traffic == base.traffic
    expected = np.concatenate(data)
    for buf in res.buffers:
        assert np.array_equal(buf, expected)


@pytest.mark.parametrize("shards", [1, 4])
def test_mid_run_second_collective_preempts_bitwise(shards):
    # A second collective submitted mid-run must preempt the deferred
    # session (its packets would otherwise observe stale channel state);
    # both collectives then run packet-level and the combined timeline
    # must match the scalar engine's exactly.
    P = 16
    data = ag_data(P, 512)
    bdata = np.full(4096, 99, dtype=np.uint8)
    t_submit = 2e-5

    def run(vec, par):
        comm = make_comm(P, vec=vec, par=par)
        handles = []
        h1 = comm.allgather_async(data)
        comm.sim.post_at(
            t_submit,
            lambda: handles.append(comm.broadcast_async(0, bdata)))
        comm.run(h1)
        comm.run(handles[0])
        t_end = comm.sim.now
        bufs = [bytes(op.mr.buf) for op in h1.ops]
        return t_end, bufs, comm.fabric.total_stamped_cqes()

    base = run(False, "off")
    res = run(True, shards)
    assert res[0] == base[0]
    assert res[1] == base[1]
    # the packet-level remainder rides look-ahead delivery, identically
    assert res[2] == base[2] > 0


def test_recovery_path_preempts_vec_session():
    # Straggler-free lossless run, but force the session to be live when a
    # recovery would start: covered indirectly by the mid-run fault test;
    # here just prove preempt_vec on an idle engine is a safe no-op.
    comm = make_comm(8)
    comm.ff.preempt_vec()
    res = comm.allgather(ag_data(8))
    assert res.engine["sync_rounds"] == 8


# ------------------------------------------------------------ banded mode


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_banded_allgather_identical_across_shards(shards):
    # Banded mode trades a declared tolerance against the packet engine,
    # but across shard counts it must still be bit-identical to itself.
    P = 32
    data = ag_data(P)
    one = make_comm(P, ff="banded", vec=True, par=1).allgather(data)
    res = make_comm(P, ff="banded", vec=True, par=shards).allgather(data)
    assert res.duration == one.duration
    assert strip(res.engine, PARALLEL_KEYS) == strip(one.engine,
                                                     PARALLEL_KEYS)
