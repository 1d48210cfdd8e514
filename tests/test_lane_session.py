"""Behaviour of the deferred-commit data-fold session (DESIGN §6d).

The session is a *performance* layer: virtual time, payloads, traffic and
per-rank phases must be bit-identical to the packet-level reference
(``fast_forward="off"``) — on the happy path (also covered, with channel
and switch counters, by the fast-forward axis of
``test_fastpath_equivalence.py``) and on every path that ends a live
session early: a fault installed mid-run, a second collective submitted
mid-run, a recovery starting, where the session must flush state the
packet-level path then resumes from, bit-exactly.  Each early exit runs
with one and with four chunks per rank.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s


#: chunk size of the early-exit tests; a rank contributes 1 or 4 chunks
CHUNK = 512


def make_comm(P: int, ff: str, *, transport: str = "ud",
              chunk_size: int = 1024) -> Communicator:
    fabric = Fabric(
        Simulator(),
        Topology.leaf_spine(P, 4, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(7),
    )
    return Communicator(fabric, config=CollectiveConfig(
        chunk_size=chunk_size, transport=transport, fast_forward=ff))


def ag_data(P: int, nbytes: int = 1024):
    return [np.full(nbytes, (3 * r + 1) % 251, dtype=np.uint8)
            for r in range(P)]


def assert_same_run(res, ref) -> None:
    assert res.duration == ref.duration  # bitwise, not approx
    assert res.traffic == ref.traffic
    for a, b in zip(res.ranks, ref.ranks):
        assert a.phases == b.phases, f"rank {a.rank} phase timestamps differ"
        assert a.counters == b.counters
    assert [bytes(b) for b in res.buffers] == [bytes(b) for b in ref.buffers]


def test_allreduce_allgather_phase_folds_bitwise():
    # The composed allreduce's allgather phase is a single-chunk chain:
    # it rides the lane session while the INC reduce-scatter stays at
    # packet level.
    P = 16
    data = [np.full(2048, r + 1, dtype=np.float32) for r in range(P)]
    ref = make_comm(P, "off").allreduce(data)
    res = make_comm(P, "exact").allreduce(data)
    assert res.verify_allreduce(data)
    assert res.engine["ff_phases"] == P
    assert_same_run(res, ref)
    assert [(ph.name, ph.t_begin, ph.t_end) for ph in res.phases] == \
        [(ph.name, ph.t_begin, ph.t_end) for ph in ref.phases]


@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_lossy_from_start_falls_back_identically(transport):
    # A drop-capable fault fails every fold's fault_inert gate, so the
    # session is never built and the run is packet-level end to end.
    P = 16
    data = ag_data(P, 512)

    def run(ff):
        comm = make_comm(P, ff, transport=transport)
        comm.fabric.set_fault_all(
            lambda src, dst: FaultSpec(drop_packet_seqs={2, 5}))
        return comm.allgather(data)

    ref, res = run("off"), run("exact")
    assert res.engine["ff_phases"] == 0
    assert_same_run(res, ref)


def _run_with_fault_at(ff: str, t_inject: float, drop_seq: int, data):
    comm = make_comm(len(data), ff, chunk_size=CHUNK)
    fabric = comm.fabric
    comm.sim.post_at(
        t_inject,
        lambda: fabric.set_fault_all(
            lambda src, dst: FaultSpec(drop_packet_seqs={drop_seq})))
    return comm.allgather(data)


@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_fault_install_flushes_bitwise(t_inject, chunks=1):
    # Install a fault mid-collective (armed, but its drop index is never
    # reached): the session must flush every folded phase's channel,
    # bitmap and payload state at the abort, and the packet-level path
    # must complete from it at exactly the reference's instants.  The two
    # inject times abort the chain near its head (1 folded phase) and
    # mid-chain.
    P = 16
    data = ag_data(P, CHUNK * chunks)
    ref = _run_with_fault_at("off", t_inject, 10_000, data)
    res = _run_with_fault_at("exact", t_inject, 10_000, data)
    # the abort must interrupt a *live* session for the test to mean much
    folded = res.engine["ff_phases"]
    assert 0 < folded < P
    assert res.engine["ff_misses"] == {"fault_epoch": 1,
                                       "poisoned": P - folded - 1}
    assert_same_run(res, ref)


@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_fault_install_flushes_bitwise_4_chunks(t_inject):
    test_mid_run_fault_install_flushes_bitwise(t_inject, chunks=4)


@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_dropping_fault_recovers_from_flushed_state(t_inject, chunks=1):
    # Same abort, but the fault drops the next packet on every channel.
    # Not comparable with the reference (an unannounced fault lands inside
    # windows that were already folded, so only packet level loses the
    # packets in flight at the install instant): the recovery that follows
    # must complete from the flushed bitmaps and deliver every byte.
    P = 16
    data = ag_data(P, CHUNK * chunks)
    res = _run_with_fault_at("exact", t_inject, 0, data)
    assert 0 < res.engine["ff_phases"] < P
    assert res.traffic["fabric_drops"] > 0
    assert res.reliability_summary()["recoveries"] > 0
    assert res.verify_allgather(data)


@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_dropping_fault_recovers_from_flushed_state_4_chunks(t_inject):
    test_mid_run_dropping_fault_recovers_from_flushed_state(t_inject, chunks=4)


def test_mid_run_second_collective_preempts_bitwise(chunks=1):
    # A second collective submitted mid-run must preempt the session (its
    # packets would otherwise observe stale channel state); both
    # collectives then run packet-level and the combined timeline must
    # match the reference's exactly.
    P = 16
    data = ag_data(P, CHUNK * chunks)
    bdata = np.full(4096, 99, dtype=np.uint8)
    t_submit = 2e-5

    def run(ff):
        comm = make_comm(P, ff, chunk_size=CHUNK)
        handles = []
        h1 = comm.allgather_async(data)
        comm.sim.post_at(
            t_submit,
            lambda: handles.append(comm.broadcast_async(0, bdata)))
        comm.run(h1)
        comm.run(handles[0])
        t_end = comm.sim.now
        bufs = [bytes(op.mr.buf) for op in h1.ops]
        folded = comm.ff.misses if comm.ff is not None else {}
        return t_end, bufs, folded, comm.fabric.total_stamped_cqes()

    ref, res = run("off"), run("exact")
    assert res[2]["preempted"] == 1  # a live session was preempted
    assert res[0] == ref[0]
    assert res[1] == ref[1]
    # the packet-level remainder rides look-ahead delivery
    assert res[3] > 0


def test_mid_run_second_collective_preempts_bitwise_4_chunks():
    test_mid_run_second_collective_preempts_bitwise(chunks=4)


def test_preempt_on_idle_engine_is_a_noop(chunks=1):
    # The recovery path calls preempt() whether or not a session is live
    # (the live case is the mid-run fault test above).
    comm = make_comm(8, "exact", chunk_size=CHUNK)
    comm.ff.preempt()
    res = comm.allgather(ag_data(8, CHUNK * chunks))
    assert res.engine["ff_phases"] == 8
    assert res.engine["ff_aborts"] == 0


def test_preempt_on_idle_engine_is_a_noop_4_chunks():
    test_preempt_on_idle_engine_is_a_noop(chunks=4)
