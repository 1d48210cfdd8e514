"""Deferred payload placement (DESIGN.md §6h) end to end.

A folded phase, a NIC landing and a DMA copy record *where* each
receiver's bytes come from instead of copying them; only a byte-level
touch materialises a region.  These tests
pin that rule by counting regions (deterministic, no timing), hold folded
payloads byte-equal to the per-packet engine's — including across a
mid-session ``abort_flush`` and a post-fold recovery fetch — and check
that a placement never aliases caller memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator, PayloadBuffers
from repro.net.fabric import Fabric
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s


def make_comm(P: int, *, ff: str, transport: str = "uc", chunk_size: int = 1024,
              leaves: int = 4) -> Communicator:
    fabric = Fabric(Simulator(), Topology.leaf_spine(P, leaves, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(11))
    return Communicator(fabric, config=CollectiveConfig(
        chunk_size=chunk_size, transport=transport, fast_forward=ff,
        # a static slack that covers the activation-bound chain, so every
        # clean phase folds (the adaptive deadline under-estimates it)
        adaptive_cutoff=False, cutoff_alpha=100e-3))


def ag_data(P: int, nbytes: int):
    return [(np.arange(nbytes) * (r + 3) % 251).astype(np.uint8) for r in range(P)]


def bc_data(nbytes: int) -> np.ndarray:
    return (np.arange(nbytes) * 13 % 241).astype(np.uint8)


def materialized(res) -> list:
    return [r for r, mr in enumerate(res.buffers.regions) if mr.materialized]


# ------------------------------------------------------------ memory budget


def _run(kind: str, P: int, ff: str):
    if kind == "allgather":
        data = ag_data(P, 256)
        comm = make_comm(P, ff=ff, chunk_size=256, leaves=16)
        return data, comm.allgather(data)
    data = bc_data(16384)
    comm = make_comm(P, ff=ff, chunk_size=4096, leaves=16)
    return data, comm.broadcast(0, data)


@pytest.mark.parametrize("kind", ["allgather", "broadcast"])
def test_folded_run_materialises_nothing_until_indexed(kind):
    P = 256
    data, res = _run(kind, P, "exact")
    verify = res.verify_allgather if kind == "allgather" else res.verify_broadcast
    received = (P * (P - 1) * 256) if kind == "allgather" else (P - 1) * 16384
    assert res.engine["ff_phases"] == (P if kind == "allgather" else 1)
    assert res.engine["payload_regions_materialized"] == 0
    assert res.engine["payload_bytes_copied"] == 0
    assert res.engine["payload_bytes_placed"] == received
    assert isinstance(res.buffers, PayloadBuffers) and len(res.buffers) == P
    assert materialized(res) == []
    assert verify(data)  # exact, and still nothing materialised
    assert materialized(res) == []
    expected = np.concatenate(data) if kind == "allgather" else data
    assert np.array_equal(res.buffers[7], expected)
    assert materialized(res) == [7]
    assert res.buffers[7] is res.buffers[7]  # materialise once
    assert np.array_equal(res.buffers[-1], expected)
    assert materialized(res) == [7, P - 1]


@pytest.mark.parametrize("kind", ["allgather", "broadcast"])
def test_per_packet_run_places_every_region(kind):
    # A NIC landing and a DMA copy are placements too: the packet path
    # moves references and materialises nothing.
    P = 256
    data, res = _run(kind, P, "off")
    received = (P * (P - 1) * 256) if kind == "allgather" else (P - 1) * 16384
    assert res.engine["ff_phases"] == 0
    assert res.engine["payload_regions_materialized"] == 0
    assert res.engine["payload_bytes_copied"] == 0
    assert res.engine["payload_bytes_placed"] == received
    verify = res.verify_allgather if kind == "allgather" else res.verify_broadcast
    assert verify(data)
    if kind == "allgather":
        wrong = [d.copy() for d in data]
        wrong[P // 2][7] ^= 1
    else:
        wrong = data.copy()
        wrong[-1] ^= 0x80
    assert not verify(wrong)  # exact: one flipped byte anywhere fails
    assert materialized(res) == []


def test_verify_is_exact_on_placed_regions():
    P = 16
    data = ag_data(P, 1024)
    res = make_comm(P, ff="exact").allgather(data)
    assert materialized(res) == []
    assert res.verify_allgather(data)
    for r, byte in [(0, 0), (5, 517), (P - 1, 1023)]:  # one flipped byte anywhere
        wrong = [d.copy() for d in data]
        wrong[r][byte] ^= 1
        assert not res.verify_allgather(wrong)
    assert not res.verify_allgather([d[:512] for d in data])
    assert materialized(res) == []
    bdata = bc_data(8192)
    bres = make_comm(P, ff="exact").broadcast(3, bdata)
    assert bres.verify_broadcast(bdata)
    wrong = bdata.copy()
    wrong[-1] ^= 0x80
    assert not bres.verify_broadcast(wrong)
    assert not bres.verify_broadcast(bdata[:-1])


# --------------------------------------------- folded vs per-packet payloads


@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("kind", ["allgather", "broadcast"])
def test_folded_buffers_equal_per_packet(kind, transport):
    P = 16

    def run(ff):
        comm = make_comm(P, ff=ff, transport=transport)
        if kind == "allgather":
            return comm.allgather(ag_data(P, 2048))  # two chunks per rank
        return comm.broadcast(2, bc_data(24 * 1024))

    folded, packet = run("exact"), run("off")
    assert folded.engine["ff_phases"] > 0 and packet.engine["ff_phases"] == 0
    assert folded.duration == packet.duration
    assert materialized(folded) == []
    assert [bytes(b) for b in folded.buffers] == [bytes(b) for b in packet.buffers]


def _allgather_with_fault(P: int, ff: str, transport: str, t_inject: float, fault):
    comm = make_comm(P, ff=ff, transport=transport)
    comm.sim.post_at(t_inject, lambda: fault(comm.fabric))
    return comm.allgather(ag_data(P, 1024))


@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_mid_session_abort_flush_equals_per_packet(transport):
    # A dropping fault installed mid-chain aborts the deferred-commit
    # session: the flushed placements are partial, the packet path then
    # writes into those partly placed regions and recovery fills the drops.
    P = 16
    clean = make_comm(P, ff="exact", transport=transport).allgather(ag_data(P, 1024))
    t_inject = clean.t_begin + 0.45 * clean.duration

    def fault(fabric):
        fabric.set_fault_all(lambda src, dst: FaultSpec(drop_packet_seqs={0}))

    folded = _allgather_with_fault(P, "exact", transport, t_inject, fault)
    packet = _allgather_with_fault(P, "off", transport, t_inject, fault)
    assert 0 < folded.engine["ff_phases"] < P  # the abort hit a live session
    assert folded.counter_total("recoveries") > 0
    # (virtual time is not compared: a fold commits its in-flight packets
    # at the hook, so a fault installed inside that window drops different
    # packets than it does at packet level — true before lazy regions too)
    assert [bytes(b) for b in folded.buffers] == [bytes(b) for b in packet.buffers]
    assert folded.verify_allgather(ag_data(P, 1024))
    # every landed byte was either still a placement or memcpy'd, and the
    # packet path after the abort places too: nothing was memcpy'd
    eng = folded.engine
    assert eng["payload_bytes_copied"] + eng["payload_bytes_placed"] \
        == P * (P - 1) * 1024
    assert eng["payload_regions_materialized"] == 0
    assert eng["payload_bytes_copied"] == 0


def test_post_fold_recovery_fetch_reads_placed_region():
    # Fault only the last phase, only toward rank 0: every earlier phase
    # folded, so the region of the last sender (rank 0's ring-left fetch
    # peer) was built from placements alone — materialised by its own
    # packet-level send — when rank 0's recovery RDMA-reads from it.
    P = 16
    data = ag_data(P, 1024)
    clean = make_comm(P, ff="exact").allgather(data)
    t_inject = clean.ranks[P - 2].phases["send_done"] + 1e-9

    def fault(fabric):
        fabric.set_fault_all(
            lambda src, dst: FaultSpec(drop_packet_seqs={0}) if dst == "h0" else None)

    folded = _allgather_with_fault(P, "exact", "uc", t_inject, fault)
    packet = _allgather_with_fault(P, "off", "uc", t_inject, fault)
    assert folded.engine["ff_phases"] == P - 1
    rank0 = next(r for r in folded.ranks if r.rank == 0)
    assert rank0.counters["recovered_chunks"] == 1
    assert [bytes(b) for b in folded.buffers] == [bytes(b) for b in packet.buffers]
    assert folded.verify_allgather(data)


# ------------------------------------------------------- snapshot, not alias


def test_caller_mutation_after_result_does_not_reach_buffers():
    P = 8
    data = ag_data(P, 1024)
    keep = np.concatenate(data)
    res = make_comm(P, ff="exact").allgather(data)
    for d in data:
        d[:] = 0xEE
    assert materialized(res) == []
    for r in range(P):
        assert np.array_equal(res.buffers[r], keep)
    bdata = bc_data(8192)
    keep = bdata.copy()
    res = make_comm(P, ff="exact").broadcast(0, bdata)
    bdata[:] = 0
    assert all(np.array_equal(res.buffers[r], keep) for r in range(P))
    # ... and writing a result buffer does not reach the other ranks'
    res.buffers[1][:] = 7
    assert np.array_equal(res.buffers[2], keep)


def test_allreduce_buffers_are_lazy_float_views():
    P = 8
    data = [np.full(1024, r + 1, dtype=np.float32) for r in range(P)]
    res = make_comm(P, ff="off").allreduce(data)
    assert isinstance(res.buffers, PayloadBuffers)
    assert res.buffers[3].dtype == np.float32
    assert res.verify_allreduce(data)
    assert {"payload_bytes_copied", "payload_bytes_placed",
            "payload_regions_materialized"} <= set(res.engine)


def test_verify_allreduce_compares_through_the_regions():
    P = 8
    data = [(np.arange(2048) % 97 + r).astype(np.float32) for r in range(P)]
    res = make_comm(P, ff="off").allreduce(data)
    assert res.verify_allreduce(data)
    assert materialized(res) == []  # no rank's buffer was built to compare
    for r, elem in [(0, 0), (3, 1000), (P - 1, 2047)]:  # one element off
        wrong = [d.copy() for d in data]
        wrong[r][elem] += 1.0
        assert not res.verify_allreduce(wrong)
    assert materialized(res) == []
    total = np.sum(data, axis=0)
    assert np.array_equal(res.buffers[5], total)  # and indexing still reads it
    assert materialized(res) == [5]


def test_staging_rings_hold_pieces_not_bytes():
    # Three collectives through one communicator's UD rings, each wrapping
    # a ring many times: a ring is a piece per slot at most, never bytes.
    P, slots = 8, 16
    fabric = Fabric(Simulator(), Topology.leaf_spine(P, 4, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(11))
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=1024, transport="ud", staging_slots=slots))
    bdata, adata = bc_data(96 * 1024), ag_data(P, 8 * 1024)
    results = [comm.broadcast(0, bdata), comm.allgather(adata),
               comm.broadcast(5, bdata)]
    assert results[0].verify_broadcast(bdata)
    assert results[1].verify_allgather(adata)
    assert results[2].verify_broadcast(bdata)
    rings = [ring for e in comm.engines for ring in e.stagings]
    assert len(rings) == P and all(ring.reposts > slots for ring in rings)
    for ring in rings:
        assert not ring.mr.materialized
        assert 0 < len(ring.mr._lo) <= slots
    assert all(res.engine["payload_regions_materialized"] == 0 for res in results)
