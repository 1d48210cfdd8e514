"""Receiver-batch fast path: unit tests and satellite regressions.

The end-to-end bit-equivalence battery lives in
``test_fastpath_equivalence.py``; this file covers the building blocks
(``wake_at``, passive parking, ``copy_runs``, bitmap ranges, bulk staging
and WR posting), the WR-exhaustion fallback, multicast fan-out ``ctx``
isolation, the lazily settled batch completions and their readers, stray
CQE accounting, and the observability contracts (zero perturbation,
telemetry reconciliation).
"""

from __future__ import annotations

import collections
import sys

import numpy as np
import pytest

from repro.core.bitmap import Bitmap
from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.costmodel import HostCostModel
from repro.core.progress import RankEngine
from repro.core.staging import StagingRing
from repro.net.dma import DmaEngine
from repro.net.memory import Memory
from repro.net.fabric import Fabric
from repro.net.faults import StragglerSpec
from repro.net.link import FaultSpec
from repro.net.nic import CompletionQueue, RecvWR, SendWR, Transport
from repro.net.packet import MCAST_FLAG, Packet, PacketKind
from repro.net.topology import Topology
from repro.obs import TraceConfig
from repro.sim.engine import Simulator
from repro.sim.events import PASSIVE_WAIT
from repro.sim.process import Process
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s

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
    fires first — the ordering contract the batch replay relies on."""
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


# --------------------------------------------------------------- dma batches


def _issue_schedule():
    # Issue instants with gaps and back-to-back stretches, sizes varied so
    # the busy-chain arithmetic is exercised in both regimes.
    return [(4096, 0.0), (4096, 0.0), (1024, 1e-6), (2048, 1.0e-6),
            (4096, 5e-6), (512, 5.2e-6)]


def test_copy_runs_matches_sequential_copy_bit_for_bit():
    sched = _issue_schedule()

    # Reference: one copy() per op, issued at its exact instant.
    sim_a = Simulator()
    eng_a = DmaEngine(sim_a)
    total = sum(n for n, _ in sched)
    image = np.arange(total, dtype=np.uint64).astype(np.uint8)
    mem_a = Memory(0)
    src_a, dst_a = mem_a.register(total), mem_a.register(total)
    src_a.place(0, image, 0, total)
    done_a = []
    off = 0
    for nbytes, when in sched:

        def issue(off=off, nbytes=nbytes):
            ev = eng_a.copy((src_a, off), (dst_a, off), nbytes)
            ev.subscribe(lambda _e: done_a.append(sim_a.now))

        sim_a.post_at(when, issue)
        off += nbytes
    sim_a.run()

    # Batched: same schedule through copy_runs as one span segment — a
    # pure chain that returns the instants and posts nothing.
    sim_b = Simulator()
    eng_b = DmaEngine(sim_b)
    mem_b = Memory(0)
    src_b, dst_b = mem_b.register(total), mem_b.register(total)
    src_b.place(0, image, 0, total)
    done_b = eng_b.copy_runs([((src_b, 0), (dst_b, 0), list(sched))])
    assert not sim_b._queue

    assert done_b == done_a  # exact float equality, op for op
    assert eng_b.busy_until == eng_a.busy_until
    assert eng_b.bytes_copied == eng_a.bytes_copied == total
    assert eng_b.ops == eng_a.ops == len(sched)
    for dst in (dst_a, dst_b):
        assert dst.equals(image, {})
        assert not dst.materialized and len(dst._lo) == 1  # one piece


def test_copy_runs_places_span_at_issue():
    sim = Simulator()
    eng = DmaEngine(sim)
    mem = Memory(0)
    src = mem.register(np.full(8192, 7, dtype=np.uint8))
    dst = mem.register(np.zeros(8192, dtype=np.uint8))
    done = eng.copy_runs([((src, 0), (dst, 0), [(4096, 1e-6), (4096, 1e-6)])])
    # The whole span landed at the call, before either completion instant
    # (early, never late: readers gate on the caller's placed bits).
    assert np.array_equal(dst.buf, src.buf)
    assert sim.now < done[0] < done[1]
    assert eng.busy_until + eng.latency == done[1]


def test_copy_runs_rejects_size_mismatch():
    # A span larger than either end raises before the engine chain moves.
    sim = Simulator()
    eng = DmaEngine(sim)
    mem = Memory(0)
    small, big = mem.register(4), mem.register(8)
    with pytest.raises(IndexError):
        eng.copy_runs([((big, 0), (small, 0), [(8, 0.0)])])
    with pytest.raises(IndexError):
        eng.copy_runs([((small, 0), (big, 0), [(4, 0.0), (4, 0.0)])])
    assert eng.ops == 0 and eng.busy_until == 0.0


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


def test_on_cqe_batch_bulk_hold():
    _, nic, qp = _ud_qp()
    ring = StagingRing(nic, n_slots=8, slot_size=64)
    assert ring.prime(qp) == 8
    ring.on_cqe_batch([0, 3, 4])
    assert ring.held == 3 and ring.posted == 5
    with pytest.raises(RuntimeError):
        ring.on_cqe_batch([3])  # already held
    ring.repost(3, qp)
    assert ring.held == 2 and ring.posted == 6


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


class _TrainSink:
    """Takes the hand-over of whatever a channel delivers."""

    def __init__(self):
        self.trains = []

    def arrive(self, packet, channel, at):
        raise AssertionError("a train relay arrived as single packets")

    def arrive_train(self, train, channel):
        self.trains.append(train)


def test_train_relay_hands_every_receiver_the_same_packets():
    from repro.net.link import Channel
    from repro.net.packet import mcast_dst
    from repro.net.switch import Switch

    sim = Simulator()
    sinks = {h: _TrainSink() for h in ("h1", "h2", "h3")}
    sw = Switch(sim, "leaf")
    for h, sink in sinks.items():
        sw.add_port(Channel(sim, "leaf", h, sink, bandwidth=1e9, latency=1e-6))
    sw.add_port(Channel(sim, "leaf", "h0", _TrainSink(), bandwidth=1e9,
                        latency=1e-6))
    sw.install_mcast(0, set(sinks) | {"h0"})
    up = Channel(sim, "h0", "leaf", sw, bandwidth=1e9, latency=1e-6)
    pkts = [Packet(src=0, dst=mcast_dst(0), kind=PacketKind.UC_WRITE,
                   payload=np.zeros(1024, dtype=np.uint8),
                   ctx={"remote_key": 5, "remote_offset": 1024 * i})
            for i in range(4)]
    up.transmit_train(pkts)
    sim.run()
    for sink in sinks.values():
        (train,) = sink.trains
        assert all(got is sent for got, sent in zip(train.packets, pkts))
        assert len(train.packets) == 4
    # No receiver can write what its siblings read: the ctx is read-only.
    delivered = sinks["h1"].trains[0].packets[2]
    with pytest.raises(TypeError):
        delivered.ctx["remote_offset"] = 999
    assert dict(delivered.ctx) == {"remote_key": 5, "remote_offset": 2048}


def test_delivered_packet_ctx_is_read_only():
    """A UC write segment reaches its receiver with the remote address in
    a ctx no receiver may write; a packet built without one has an empty
    ctx, just as read-only."""
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


# ---------------------------------------- satellite 3: WR exhaustion fallback


def _exhaustion_run(reference: bool):
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(0), reference=reference)
    # Host 5 stalls 3 µs per CQE poll mid-run: its staging ring drains,
    # the NIC finds no receive WR to stamp a train's packets against, and
    # look-ahead delivery must fall back to per-packet replay (RNR drops +
    # the reliability slow path) exactly as the reference engine does.
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

    # The scenario genuinely exhausts receive WRs…
    assert fab_b.total_rnr_drops() > 0
    # …and still engages batching outside the straggler window.
    assert res_b.engine["cqe_batches"] > 0

    # Identical datapath semantics: same drops, same recovery work, same
    # virtual timeline.
    assert fab_b.total_rnr_drops() == fab_s.total_rnr_drops()
    assert res_b.reliability_summary() == res_s.reliability_summary()
    assert res_b.duration == res_s.duration
    assert res_b.t_end == res_s.t_end


# ------------------------------------- lazily settled batch completions
#
# A UD receive batch posts one engine event, at its last DMA completion;
# each completion's effects (re-post, placed bit, outstanding copy) are
# applied by that event or earlier by a reader that needs them.  Every
# case runs batched against the reference engine and demands identical
# phases, RNR drops and CQ sequences, and a spy on RankEngine.settle
# shows the early path was taken.

NIC_READERS = ("_deliver_ud", "_receive_stamped")


@pytest.fixture
def settled(monkeypatch):
    """Completions each settle caller applied, keyed by the calling
    function; entries due exactly now are also counted under
    ``(caller, "tie-applied" | "tie-deferred")``."""
    seen = collections.Counter()
    settle = RankEngine.settle

    def pending(engine):
        return [(batch.done[i], batch.seq0 + i) for batch in engine._pending
                for i in range(batch.next, len(batch.done))]

    def spy(engine):
        caller = sys._getframe(1).f_code.co_name
        now, fired = engine.sim.now, engine.sim._fired
        before = pending(engine)
        for when, seq in before:
            if when == now:
                seen[caller, "tie-applied" if seq <= fired
                     else "tie-deferred"] += 1
        settle(engine)
        applied = len(before) - len(pending(engine))
        if applied:
            seen[caller] += applied

    monkeypatch.setattr(RankEngine, "settle", spy)
    return seen


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


def _vs_reference(cq_log, settled, **kw):
    ref, _ = _ud_bcast(True, cq_log, **kw)
    assert not settled  # the reference defers nothing
    got, res = _ud_bcast(False, cq_log, **kw)
    assert got == ref
    assert res.engine["cqe_batches"] > 0
    return got, res


def test_dry_queue_settles_due_reposts(cq_log, settled):
    """RNR regime: a 4-slot ring runs dry while batched copies are still
    completing, so the NIC settles the re-posts already due before it
    decides to drop."""
    got, _ = _vs_reference(cq_log, settled,
                           topology=Topology.leaf_spine(16, 2, 2),
                           nchunks=16, staging_slots=4)
    assert got["rnr_drops"] > 0
    assert sum(settled[r] for r in NIC_READERS) > 0


def test_fetch_settles_neighbour_placed_bits(cq_log, settled):
    """A lossy broadcast with a copy engine slower than the wire and an
    eager cutoff: recoveries read neighbours' ``placed`` bits while those
    neighbours' batched copies are still landing."""
    got, _ = _vs_reference(cq_log, settled,
                           topology=Topology.leaf_spine(16, 2, 2),
                           nchunks=64, dma={"bandwidth": 2.0 ** 32},
                           fault=FaultSpec(drop_prob=0.01),
                           cutoff_alpha=20e-6, adaptive_cutoff=False)
    assert got["reliability"]["recoveries"] > 0
    assert settled["_fetch_attempt"] > 0


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


@pytest.mark.parametrize("slots, reader, side", [
    # the arrival event precedes the completion's slot: an RNR drop
    (2, "_deliver_ud", "tie-deferred"),
    # the completion precedes the worker's next batch: its slot is free
    (4, "_apply_ud_batch", "tie-applied"),
])
def test_same_instant_tie_resolves_in_event_order(cq_log, settled, slots,
                                                  reader, side):
    _vs_reference(cq_log, settled, staging_slots=slots, **_TIE)
    assert settled[reader, side] > 0


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


# ------------------------------- satellite 4: observability contracts


def _traced_run(traced: bool, reference: bool = False,
                kind: str = "broadcast", nbytes: int = 64 * KiB):
    """A traced 16-host broadcast, or (``allgather_pchains``) an allgather
    with every rank a concurrent root of one chunk — the cross-source
    backlog that only look-ahead delivery turns into batches."""
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(1), reference=reference)
    comm = Communicator(
        fabric,
        config=CollectiveConfig(chunk_size=4096,
                                n_chains=16 if kind != "broadcast" else 1),
        trace=TraceConfig() if traced else None,
    )
    if kind == "broadcast":
        data = np.arange(nbytes, dtype=np.uint8) % 251
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        data = [np.full(4096, r, dtype=np.uint8) for r in range(16)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return res


@pytest.mark.parametrize("kind", ["broadcast", "allgather_pchains"])
def test_tracing_zero_perturbation_under_batch_fast_path(kind):
    res_on = _traced_run(traced=True, kind=kind)
    res_off = _traced_run(traced=False, kind=kind)
    assert res_on.duration == res_off.duration
    assert res_on.engine["sim_events"] == res_off.engine["sim_events"]
    assert res_on.engine["cqe_batches"] == res_off.engine["cqe_batches"] > 0
    assert res_on.engine["stamped_cqes"] == res_off.engine["stamped_cqes"] > 0
    assert res_off.trace is None


def test_batch_tracepoints_emitted_and_reconciled():
    res = _traced_run(traced=True)
    batches = res.trace.count("cq.batch")
    runs = res.trace.count("dma.copy_runs")
    assert batches == res.engine["cqe_batches"] > 0
    assert runs > 0
    batched = sum(r.args["cqes"] for r in res.trace.select(name="cq.batch"))
    assert batched == res.engine["batched_cqes"]
    copies = sum(r.args["copies"] for r in res.trace.select(name="dma.copy_runs"))
    assert copies > 0
    # Run-coalescing never splits: segments per batch <= copies per batch.
    for r in res.trace.select(name="dma.copy_runs"):
        assert 1 <= r.args["segments"] <= r.args["copies"]


@pytest.mark.parametrize("kind", ["broadcast", "allgather_pchains"])
def test_telemetry_counters_off_when_batching_disabled(kind):
    res = _traced_run(traced=True, reference=True, kind=kind)
    assert res.engine["cqe_batches"] == 0
    assert res.engine["batched_cqes"] == 0
    assert res.engine["stamped_cqes"] == 0
    assert res.trace.count("cq.batch") == 0
    assert res.trace.count("dma.copy_runs") == 0


def test_cross_source_backlog_batches_without_trains():
    res = _traced_run(traced=False, kind="allgather_pchains")
    ref = _traced_run(traced=False, reference=True, kind="allgather_pchains")
    assert res.engine["trains"] == 0
    # Every chunk is consumed at hand-over; most reach the worker batched.
    assert res.engine["stamped_cqes"] == 16 * 15
    assert res.engine["batched_cqes"] > 16 * 15 // 2
    assert res.engine["sim_events"] < ref.engine["sim_events"]
    assert res.t_end == ref.t_end
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]


def test_mixed_lane_op_opts_out_of_lookahead():
    """A chunk small enough for the channels' control lane overtakes full
    chunks queued on the same link, so arrival order is no longer the last
    hop's transmit order: while such an op is registered the engine keeps
    per-packet delivery (and opts back in once it is released)."""
    tail = _traced_run(traced=False, nbytes=64 * KiB + 40)
    ref = _traced_run(traced=False, reference=True, nbytes=64 * KiB + 40)
    assert tail.engine["stamped_cqes"] == tail.engine["cqe_batches"] == 0
    assert tail.t_end == ref.t_end
    assert [r.phases for r in tail.ranks] == [r.phases for r in ref.ranks]

    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(1))
    comm = Communicator(fabric, config=CollectiveConfig(chunk_size=4096))
    qp = comm.engines[1].sub_qps[0]
    assert qp.batch_delivery
    handle = comm.broadcast_async(0, np.zeros(8 * KiB + 40, dtype=np.uint8))
    assert not qp.batch_delivery
    comm.run(handle)
    comm.release(handle)
    assert qp.batch_delivery
    # Uniformly small chunks ride one lane: still first-in first-out.
    assert comm.broadcast(0, np.zeros(40, np.uint8)).engine["stamped_cqes"] == 15
