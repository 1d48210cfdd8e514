"""The receive datapath's building blocks and regressions.

The end-to-end bit-equivalence battery lives in
``test_fastpath_equivalence.py``; this file covers the building blocks
(``wake_at``, passive parking, the DMA watermark of copies still to be
issued, bitmap ranges, bulk WR posting), receive-WR exhaustion, multicast
``ctx`` isolation, same-instant ties between DMA completions and packet
arrivals, stray CQE accounting, and the retired batch telemetry.  (It
is named for the receive-batch tier that was deleted; the per-CQE path it
left is what runs here.)
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.core.bitmap import Bitmap
from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.costmodel import HostCostModel
from repro.net.dma import DmaEngine
from repro.net.memory import Memory
from repro.net.fabric import Fabric
from repro.net.faults import StragglerSpec
from repro.net.nic import CompletionQueue, RecvWR, SendWR, Transport
from repro.net.packet import MCAST_FLAG, Packet, PacketKind
from repro.net.topology import Topology
from repro.obs import TraceConfig
from repro.sim.engine import Simulator
from repro.sim.events import PASSIVE_WAIT
from repro.sim.process import Process
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s
from tests.unfolded import unfold

# ------------------------------------------------------------- sim primitives


def test_wake_at_resumes_at_exact_instant():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.wake_at(3.5e-6)
        seen.append(sim.now)

    Process(sim, proc())
    sim.run()
    assert seen == [3.5e-6]


def test_wake_at_orders_fifo_with_same_instant_callbacks():
    """Same-instant dispatch follows post order (heap seq tie-break): the
    callback was queued before the process ran and called wake_at, so it
    fires first."""
    sim = Simulator()
    order = []

    def proc():
        yield sim.wake_at(1e-6)
        order.append("proc")

    Process(sim, proc())
    sim.post_at(1e-6, lambda: order.append("cb"))
    sim.run()
    assert order == ["cb", "proc"]


def test_passive_wait_park_and_wake():
    sim = Simulator()
    log = []

    def proc():
        got = yield PASSIVE_WAIT
        log.append((sim.now, got))

    p = Process(sim, proc())
    sim.post_at(2e-6, lambda: log.append(("woke", p.wake("payload"))))
    sim.run()
    # wake() resumes through a zero-delay callback at the wake instant.
    assert log == [("woke", True), (2e-6, "payload")]


def test_wake_on_running_process_is_dropped():
    sim = Simulator()

    def proc():
        yield sim.wake_at(1e-6)

    p = Process(sim, proc())
    assert p.wake() is False  # not parked on PASSIVE_WAIT
    sim.run()


# ------------------------------------------------------------------- dma


def test_dma_after_matches_sequential_copies_bit_for_bit():
    # Issue instants with gaps and back-to-back stretches, sizes varied so
    # the busy-chain arithmetic is exercised in both regimes: the
    # watermark after() predicts is the one copy() leaves, float for float.
    sched = [(0.0, 4096), (0.0, 4096), (1e-6, 1024), (1.0e-6, 2048),
             (5e-6, 4096), (5.2e-6, 512)]
    sim = Simulator()
    dma = DmaEngine(sim)
    dma.busy_until = 0.5e-6
    predicted = dma.after(sched)
    mem = Memory(0)
    src, dst = mem.register(4096), mem.register(4096)
    for when, nbytes in sched:
        sim.post_at(when, dma.copy, (src, 0), (dst, 0), nbytes)
    sim.run()
    assert dma.busy_until == predicted
    assert dma.after(()) == predicted


# ------------------------------------------------------------------- bitmap


def test_bitmap_set_range_counts_new_bits():
    bm = Bitmap(64)
    assert bm.set_range(8, 8) == 8
    assert bm.set_range(8, 8) == 0  # idempotent
    bm.set(20)
    assert bm.set_range(16, 8) == 7  # one already set
    assert bm.count == 16


def test_bitmap_any_set_in_range():
    bm = Bitmap(128)
    assert not bm.any_set_in_range(0, 128)
    bm.set(77)
    assert bm.any_set_in_range(77, 1)
    assert bm.any_set_in_range(64, 32)
    assert not bm.any_set_in_range(0, 77)
    assert not bm.any_set_in_range(78, 50)


# ------------------------------------------------- staging ring / bulk posts


def _ud_qp():
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(2), link_bandwidth=gbit_per_s(100))
    nic = fabric.nic(0)
    return sim, nic, nic.create_qp(Transport.UD)


def test_post_recv_batch_capacity_and_validation():
    _, nic, qp = _ud_qp()
    mr = nic.memory.register(1024)
    wrs = [RecvWR(wr_id=i, mr_key=mr.key, offset=i * 64, length=64)
           for i in range(4)]
    qp.post_recv_batch(wrs)
    assert len(qp.recv_queue) == 4
    qp.post_recv_batch([])
    assert len(qp.recv_queue) == 4
    bad = [RecvWR(wr_id=9, mr_key=mr.key, offset=1000, length=64)]
    with pytest.raises(IndexError):
        qp.post_recv_batch(bad)  # beyond the MR
    huge = [RecvWR(wr_id=100 + i, mr_key=mr.key, offset=0, length=64)
            for i in range(qp.max_recv_wr)]
    with pytest.raises(RuntimeError):
        qp.post_recv_batch(huge)  # exceeds queue capacity in one call


def test_post_recv_cached_skips_validation_but_honors_capacity():
    _, nic, qp = _ud_qp()
    mr = nic.memory.register(256)
    wr = RecvWR(wr_id=0, mr_key=mr.key, offset=0, length=64)
    qp.post_recv(wr)
    qp.recv_queue.popleft()
    qp.post_recv_cached(wr)  # cached repost of an already-validated WR
    assert len(qp.recv_queue) == 1
    qp.recv_queue.extend([wr] * (qp.max_recv_wr - 1))
    with pytest.raises(RuntimeError):
        qp.post_recv_cached(wr)


# ----------------------------------------- fan-out replicas are one object


def test_delivered_packet_ctx_is_read_only():
    """A UC write segment reaches its receiver with the remote address in
    a ctx no receiver may write (a multicast replica is that one object,
    ``test_net_link.test_leaf_fan_out_hands_every_port_the_packet_itself``);
    a packet built without one has an empty ctx, just as read-only."""
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(2))
    tx = fabric.nic(0).create_qp(Transport.UC)
    tx.connect(1, fabric.nic(1).create_qp(Transport.UC).qpn)
    src = fabric.nic(0).memory.register(np.full(64, 7, dtype=np.uint8))
    dst = fabric.nic(1).memory.register(np.zeros(256, dtype=np.uint8))
    nic = fabric.nic(1)
    delivered = []
    arrive = nic.arrive
    nic.arrive = lambda p, ch, at: (delivered.append(p), arrive(p, ch, at))
    tx.post_send(SendWR(wr_id=0, verb="write", mr_key=src.key, length=64,
                        remote_key=dst.key, remote_offset=128, signaled=False))
    sim.run()
    (seg,) = delivered
    assert dict(seg.ctx) == {"remote_key": dst.key, "remote_offset": 128}
    with pytest.raises(TypeError):
        seg.ctx["remote_offset"] = 0
    assert (dst.buf[128:192] == 7).all()
    bare = Packet(src=0, dst=1, kind=PacketKind.UD_SEND, payload_len=8)
    assert len(bare.ctx) == 0
    with pytest.raises(TypeError):
        bare.ctx["extra"] = True


# --------------------------------------------------------- WR exhaustion


def _exhaustion_run(reference: bool):
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(0), reference=reference)
    # Host 5 stalls 3 µs per CQE poll mid-run: its staging ring runs dry
    # in the middle of a burst, and the RNR drops and the reliability slow
    # path run exactly as the reference engine's do.
    fabric.set_straggler(5, StragglerSpec(windows=[(20e-6, 60e-6)],
                                          extra_poll_delay=3e-6))
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=4096, staging_slots=16))
    data = np.arange(256 * KiB, dtype=np.uint32).astype(np.uint8)
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)
    return fabric, res


def test_wr_exhaustion_mid_train_falls_back_per_cqe():
    fab_b, res_b = _exhaustion_run(reference=False)
    fab_s, res_s = _exhaustion_run(reference=True)

    # The scenario genuinely exhausts receive WRs.
    assert fab_b.total_rnr_drops() > 0

    # Identical datapath semantics: same drops, same recovery work, same
    # virtual timeline.
    assert fab_b.total_rnr_drops() == fab_s.total_rnr_drops()
    assert res_b.reliability_summary() == res_s.reliability_summary()
    assert res_b.duration == res_s.duration
    assert res_b.t_end == res_s.t_end


# ------------------------------------------------ same-instant tie order


@pytest.fixture
def cq_log(monkeypatch):
    """Every CQ's pushes as ``(wr_id, src, imm, timestamp)``, by CQ name."""
    log = collections.defaultdict(list)
    push_at = CompletionQueue.push_at

    def spy(cq, cqe, t):
        log[cq.name].append((cqe.wr_id, cqe.src, cqe.imm, t))
        push_at(cq, cqe, t)

    monkeypatch.setattr(CompletionQueue, "push_at", spy)
    return log


def _ud_bcast(reference, cq_log, topology, nchunks, fabric_kw=None,
              dma=None, fault=None, **cfg):
    """One UD broadcast; returns what must match the reference engine."""
    cq_log.clear()
    sim = Simulator()
    fabric = Fabric(sim, topology, streams=RandomStreams(0),
                    reference=reference,
                    **(fabric_kw or {"link_bandwidth": gbit_per_s(56)}))
    if fault is not None:
        fabric.set_fault_all(lambda s, d: fault)
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=4096, **cfg))
    unfold(comm)  # every data and control CQE, as the reference
    if dma is not None:
        for e in comm.engines:
            e.dma = DmaEngine(sim, **dma)
    data = np.arange(nchunks * 4096, dtype=np.uint8) % 251
    res = comm.broadcast(0, data)
    assert res.verify_broadcast(data)
    return {"phases": [r.phases for r in res.ranks],
            "rnr_drops": fabric.total_rnr_drops(),
            "reliability": res.reliability_summary(),
            "cqs": dict(cq_log)}, res


#: one wire slot: a 4096 B chunk plus 64 B of header at 4160 * 2**20 B/s.
#: Copies take one slot too and every cost is dyadic, so DMA completions
#: and packet arrivals land on exactly the same instants.
_W = 2.0 ** -20
_TIE = dict(topology=Topology.star(2), nchunks=16,
            fabric_kw={"link_bandwidth": 4160 * 2 ** 20, "link_latency": 0.0,
                       "switch_delay": 0.0},
            dma={"bandwidth": 2.0 ** 32, "latency": _W},
            cost=HostCostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                               ctrl_message=4 * _W))


@pytest.mark.parametrize("slots", [
    # the arrival event precedes the completion that frees a slot at the
    # same instant: ``_deliver_ud`` finds the queue dry, an RNR drop
    pytest.param(2, id="2-_deliver_ud-tie-deferred"),
    # the completion precedes the worker's next step: its slot is free
    pytest.param(4, id="4-completion-first"),
])
def test_same_instant_tie_resolves_in_event_order(cq_log, slots):
    # Copies and arrivals land on the same instants; the production
    # engine, both folds kept out, resolves each tie as the reference.
    ref, _ = _ud_bcast(True, cq_log, staging_slots=slots, **_TIE)
    got, _ = _ud_bcast(False, cq_log, staging_slots=slots, **_TIE)
    assert got == ref
    assert (got["rnr_drops"] > 0) == (slots == 2)


@pytest.mark.parametrize("reference", [False, True])
def test_copy_in_issue_keeps_op_open(reference):
    """Regression: the per-CQE path counted a copy only once it was issued,
    so an earlier copy landing while the last chunk's copy was being
    issued completed the op with that chunk's bytes still in staging."""
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(4), link_bandwidth=2.0 ** 31,
                    link_latency=0.0, switch_delay=0.0,
                    streams=RandomStreams(0), reference=reference)
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=4096, staging_slots=8))
    for e in comm.engines:
        e.dma = DmaEngine(sim, bandwidth=2.0 ** 32, latency=2.0 ** -20)
    data = np.arange(64 * KiB, dtype=np.uint8) % 251
    assert comm.broadcast(0, data).verify_broadcast(data)


# ------------------------------------------------------------- stray CQEs


@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_late_duplicate_after_release_counts_one_stray(transport):
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(4), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(0))
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=4096, transport=transport))
    data = np.arange(8 * KiB, dtype=np.uint8)
    first = comm.broadcast(0, data)
    assert first.engine["stray_cqes"] == 0
    rx = comm.engines[1]
    qp = rx.sub_qps[0]
    # Chunk 0 of the released collective (a fresh communicator's first
    # id is 0), multicast once more.
    dup = Packet(src=comm.host_of(0), dst=MCAST_FLAG + comm.mcast_gids[0],
                 kind=PacketKind.UD_SEND if transport == "ud"
                 else PacketKind.UC_WRITE,
                 payload=data[:4096], payload_len=4096,
                 imm=comm.imm.encode(0, 0))
    if transport == "uc":
        # Aimed at a live zero-length region: only the immediate lands.
        dup.payload_src, dup.payload_len = None, 0
        dup.ctx = {"remote_key": rx._uc_wr.mr_key, "remote_offset": 0}
    sim.post_at(sim.now + 1e-6, rx.nic.receive, dup, None)
    second = comm.broadcast(0, data)
    assert second.verify_broadcast(data)
    assert second.engine["stray_cqes"] == 1
    assert rx.stray_cqes == 1
    assert len(qp.recv_queue) == comm.config.staging_slots  # recycled


# ------------------------------------------------------ retired telemetry


@pytest.mark.parametrize("kind", ["broadcast", "allgather_pchains"])
def test_telemetry_counters_off_when_batching_disabled(kind):
    """The receive-batch tier and packet trains are gone: their four
    ``CollectiveResult.engine`` counters stay, at 0 on both engines, for
    the perf ledger that reads them, and no run emits their tracepoints."""
    for reference in (False, True):
        comm = Communicator(
            Fabric(Simulator(), Topology.leaf_spine(16, 2, 2),
                   link_bandwidth=gbit_per_s(56), streams=RandomStreams(1),
                   reference=reference),
            config=CollectiveConfig(chunk_size=4096,
                                    n_chains=16 if kind != "broadcast" else 1),
            trace=TraceConfig())
        unfold(comm)  # every packet and CQE at packet level
        if kind == "broadcast":
            data = np.arange(64 * KiB, dtype=np.uint8) % 251
            res = comm.broadcast(0, data)
        else:
            res = comm.allgather([np.full(4096, r, dtype=np.uint8)
                                  for r in range(16)])
        for key in ("trains", "train_packets", "cqe_batches", "batched_cqes"):
            assert res.engine[key] == 0, key
        names = {r.name for r in res.trace.records}
        assert not names & {"link.train", "switch.relay", "cq.batch",
                            "dma.copy_runs"}
