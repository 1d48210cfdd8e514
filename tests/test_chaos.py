"""Chaos harness: collectives under time-varying fault schedules.

The acceptance scenario of the adaptive reliability layer: bursty
(Gilbert–Elliott) loss, mid-collective link flaps, degraded-bandwidth
windows and slow-receiver injection, driven against Broadcast and
Allgather on an 8-host leaf-spine.  Every test verifies payload bytes —
a recovery path that "completes" with wrong data must fail here.

Fast cases are marked ``chaos_smoke`` so CI can run them standalone:
``pytest -m chaos_smoke``.
"""

import numpy as np
import pytest

from repro.core import CollectiveConfig, Communicator
from repro.core.progress import RankEngine
from repro.core.request import CollectiveRequest
from repro.obs import TraceConfig
from repro.core.reliability import CUTOFF_ALPHA_MAX, FETCH_ACK_TIMEOUT, ReliabilityError
from repro.net import CrashSpec, Fabric, GilbertElliott, StragglerSpec, Topology
from repro.net.link import FaultSpec
from repro.net.packet import PacketKind
from repro.sim import RandomStreams, Simulator
from repro.units import gbit_per_s, kib


def make_comm(n_hosts=8, topo=None, config=None, seed=0, trace=None, reference=False):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topo or Topology.leaf_spine(n_hosts, n_leaf=2, n_spine=2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed=seed),
        reference=reference,
    )
    return Communicator(fabric, config=config, trace=trace)


def rank_data(rank, nbytes):
    rng = np.random.default_rng(2000 + rank)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


#: ~5% stationary loss, mean burst of 5 packets — the soak-level severity.
GE_5PCT = GilbertElliott(p_good_bad=0.0105, p_bad_good=0.2, drop_bad=1.0)
#: heavier chain for the short smoke runs, so bursts are certain to occur
#: within a few dozen packets.
GE_SMOKE = GilbertElliott(p_good_bad=0.05, p_bad_good=0.25, drop_bad=1.0)
#: the speedometer's ``lossy188`` chain: ~0.4 % stationary loss, bursty
GE_SPEEDOMETER = GilbertElliott(p_good_bad=0.01, p_bad_good=0.3,
                                drop_good=0.001, drop_bad=0.10)


# ------------------------------------------------------------------- smoke


@pytest.mark.chaos_smoke
def test_smoke_broadcast_under_bursty_loss():
    comm = make_comm(4, topo=Topology.star(4), seed=11)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_SMOKE))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.traffic["fabric_drops"] > 0  # chaos actually happened


@pytest.mark.chaos_smoke
def test_smoke_fault_install_route_does_not_change_the_draws():
    """A channel's RNG is bound when a fault reaches it, and the streams are
    seeded by name: a lossy broadcast reads the same whether the fault came
    with the constructor or through ``set_fault_all`` before the run."""
    def run(at_construction):
        spec = FaultSpec(gilbert_elliott=GE_SMOKE)
        fabric = Fabric(
            Simulator(), Topology.leaf_spine(16, n_leaf=2, n_spine=2),
            link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=5),
            default_fault=spec if at_construction else None)
        if not at_construction:
            assert fabric.streams.count == 0  # clean so far: no stream
            fabric.set_fault_all(lambda s, d: spec.clone())
        assert fabric.streams.count == len(fabric.channels)
        data = rank_data(0, kib(128))
        result = Communicator(fabric).broadcast(0, data)
        assert result.verify_broadcast(data)
        return (result.traffic["fabric_drops"], result.counter_total("recoveries"),
                result.counter_total("fetch_rounds"), result.duration)

    with_ctor, with_setter = run(True), run(False)
    assert with_ctor == with_setter
    assert with_ctor[0] > 0 and with_ctor[1] > 0  # chaos actually happened


@pytest.mark.chaos_smoke
def test_smoke_allgather_with_link_flap():
    comm = make_comm(4, topo=Topology.star(4), seed=12)
    # One host's downlink goes dark mid-collective; ctrl traffic survives
    # (protect_reliable default) as on a QoS-protected virtual lane.
    comm.fabric.set_fault(
        "sw000", "h2", FaultSpec(flap_windows=[(10e-6, 40e-6)])
    )
    data = [rank_data(r, kib(16)) for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


@pytest.mark.chaos_smoke
def test_smoke_allreduce_under_bursty_loss():
    """The composed allreduce under bursty loss: the UD allgather phase
    takes real drops and recovers; the reduced sums still verify on every
    rank (the RC reduce-scatter phase is loss-immune by transport)."""
    comm = make_comm(4, topo=Topology.star(4), seed=11)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_SMOKE))
    rng = np.random.default_rng(2100)
    data = [rng.normal(size=kib(32)).astype(np.float32) for _ in range(4)]
    result = comm.allreduce(data)
    assert result.verify_allreduce(data)
    assert result.traffic["fabric_drops"] > 0  # chaos actually happened
    assert result.reliability_summary()["recoveries"] >= 1


@pytest.mark.chaos_smoke
def test_smoke_alltoall_rides_reliable_rc():
    """The unicast exchange rides RC queue pairs: a fault schedule that
    mauls UD traffic never drops an alltoall byte, and payloads land
    exactly."""
    comm = make_comm(4, topo=Topology.star(4), seed=12)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_SMOKE))
    data = [rank_data(r, kib(64)) for r in range(4)]
    result = comm.alltoall(data)
    assert result.verify_alltoall(data)
    assert result.traffic["fabric_drops"] == 0


@pytest.mark.chaos_smoke
def test_smoke_reliability_telemetry_populated():
    comm = make_comm(4, topo=Topology.star(4), seed=13)
    comm.fabric.set_fault("sw000", "h1", FaultSpec(drop_packet_seqs={0, 1}))
    data = rank_data(0, kib(64))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    summary = result.reliability_summary()
    assert summary["recoveries"] >= 1
    assert summary["recovered_chunks"] >= 2
    assert summary["fetch_rounds"] >= 1
    assert sum(summary["retry_histogram"].values()) >= 1
    # Every rank armed a cutoff timer, and every recovery records what
    # started it: here h1's tail arrives behind the two lost chunks.
    for r in result.ranks:
        assert r.armed_timeout > 0
    assert summary["recovery_triggers"] == {"tail": summary["recoveries"],
                                            "cutoff": 0}


def _lossy_allgather(trace=None):
    """An 8-rank allgather under 5 % loss: each rank misses chunks of
    several owners."""
    comm = make_comm(seed=2, trace=trace)
    comm.fabric.set_fault_all(lambda src, dst: FaultSpec(drop_prob=0.05))
    data = [rank_data(r, kib(32)) for r in range(8)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)
    return result


def test_retry_histogram_counts_invocations_by_rounds():
    """``retry_histogram`` is ``{fetch rounds: recovery invocations}`` over
    every rank: its counts sum to the recoveries and its weighted sum to
    the fetch rounds.  On this lossy allgather a delegate reads one owner
    per round, and the ranks miss chunks of different numbers of owners,
    so several round counts show up."""
    result = _lossy_allgather()
    summary = result.reliability_summary()
    by_hand: dict = {}
    for r in result.ranks:
        for rounds in r.retry_histogram:
            by_hand[rounds] = by_hand.get(rounds, 0) + 1
    assert summary["retry_histogram"] == by_hand
    assert len(by_hand) > 1
    assert sum(by_hand.values()) == summary["recoveries"]
    assert sum(k * n for k, n in by_hand.items()) == summary["fetch_rounds"]


def test_fetch_sources_count_rounds_by_the_peer_they_read():
    """``fetch_sources`` splits the fetch rounds by the peer they read — a
    chunk's owner, another rank of the switch group, or the ring fallback
    — and every ``reliability.fetch`` instant names the same kind in
    ``via``."""
    result = _lossy_allgather(trace=TraceConfig())
    summary = result.reliability_summary()
    sources = summary["fetch_sources"]
    assert set(sources) == {"owner", "group", "ring"}
    assert sum(sources.values()) == summary["fetch_rounds"]
    assert sources["owner"] > 0 and sources["group"] > 0
    assert sources["ring"] == summary["neighbor_escalations"] == 0
    traced = {via: 0 for via in sources}
    for ev in result.trace.select(name="reliability.fetch"):
        traced[ev.args["via"]] += 1
    assert traced == sources


@pytest.mark.chaos_smoke
@pytest.mark.parametrize("members", ["all", "survivors"])
@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
def test_recovery_costs_what_was_lost(kind, members):
    """The recovery budget on a 64-host leaf-spine under the speedometer's
    loss.  A drop above a leaf hits every rank below it; the leaf's
    delegate fetches the chunk from its owner once, and the other ranks
    read it from the delegate when it wakes them.  So no rank falls back
    to the ring, and recoveries average at most two fetch rounds.  In the
    *survivors* case rank 16, leaf 1's first rank, died in an earlier
    collective, and the collective runs over the other 63: rank 17 is the
    leaf's delegate."""
    topo = Topology.leaf_spine(64, n_leaf=4, n_spine=2)
    if members == "all":
        comm = make_comm(64, topo=topo)
    else:
        comm = make_comm(64, topo=topo,
                         config=CollectiveConfig(failure_policy="degrade"))
        comm.fabric.schedule_crash(CrashSpec(at=1e-6, host=16))
        assert comm.broadcast(0, rank_data(0, kib(16))).dead_ranks == [16]
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_SPEEDOMETER))
    if kind == "broadcast":
        data = rank_data(0, kib(256))
        result = comm.broadcast(0, data)
        assert result.verify_broadcast(data)
    else:
        data = [rank_data(r, kib(16)) for r in range(64)]
        result = comm.allgather(data)
        if members == "all":
            assert result.verify_allgather(data)
        else:
            assert result.verify_allgather_degraded(data)
    summary = result.reliability_summary()
    assert summary["recoveries"] > 0  # the loss reached the slow path
    assert summary["fetch_rounds"] <= 2 * summary["recoveries"]
    assert summary["neighbor_escalations"] == 0


def _fetches(result):
    """Every fetch round of *result* as ``(requester, peer, via)``."""
    return [(int(ev.track[1:]), ev.args["peer"], ev.args["via"])
            for ev in result.trace.select(name="reliability.fetch")]


@pytest.mark.chaos_smoke
@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
def test_recovery_reads_stay_inside_the_switch_group(kind):
    """Under the speedometer's loss on a 64-host leaf-spine (16 ranks per
    leaf, so every group fans out), a rank reads across its switch only as
    its group's delegate, from a chunk's owner: every other read stays
    below one leaf switch, so the fan-out adds no switch bytes to the
    delegates' cross-switch reads."""
    comm = make_comm(64, topo=Topology.leaf_spine(64, n_leaf=4, n_spine=2),
                     trace=TraceConfig())
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_SPEEDOMETER))
    if kind == "broadcast":
        data = rank_data(0, kib(256))
        result = comm.broadcast(0, data)
        assert result.verify_broadcast(data)
    else:
        data = [rank_data(r, kib(16)) for r in range(64)]
        result = comm.allgather(data)
        assert result.verify_allgather(data)
    assert result.reliability_summary()["fetch_sources"]["ring"] == 0
    fetches = _fetches(result)
    assert any(via == "group" for _, _, via in fetches)
    for r, peer, via in fetches:
        group = comm.switch_group(r)
        if comm.switch_group(peer) is not group:
            assert via == "owner" and r == group[0], (r, peer, via)


@pytest.mark.chaos_smoke
def test_no_rank_serves_more_than_log2_of_its_group():
    """The ledger's lossy broadcast (188-host testbed, 1 MiB, the
    speedometer's loss): every rank recovers, each under a parent that is
    recovering too, so no request is passed on.  A rank then serves at
    most ⌈log₂ |group|⌉ peers of its switch group — 4 where the star
    served 15 — plus, as the chunks' owner, the other groups' delegates."""
    comm = make_comm(188, topo=Topology.testbed_188(), trace=TraceConfig())
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_SPEEDOMETER))
    data = rank_data(0, 1 << 20)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.reliability_summary()["recoveries"] == 187
    assert not result.trace.select(name="reliability.pass")
    served: dict = {}
    for r, peer, _ in _fetches(result):
        served.setdefault(peer, set()).add(r)
    for peer, requesters in served.items():
        group = comm.switch_group(peer)
        inside = {r for r in requesters if comm.switch_group(r) is group}
        assert len(inside) <= (len(group) - 1).bit_length(), (peer, inside)
        outside = requesters - inside
        if outside:
            assert peer == 0 and all(r == comm.switch_group(r)[0] for r in outside)
    assert len(served[0]) == 4 + 11  # its fan-out, and the 11 other leaves


# -------------------------------------------------------------------- soak


def test_soak_broadcast_ge_loss_plus_midstream_flap():
    """Acceptance soak: 5% bursty loss everywhere plus a mid-collective
    flap of one host's downlink, 256 KiB Broadcast on 8-host leaf-spine."""
    comm = make_comm(8, seed=21)

    def chaos(src, dst):
        spec = FaultSpec(gilbert_elliott=GE_5PCT)
        if dst == "h5":
            spec = FaultSpec(
                gilbert_elliott=GE_5PCT, flap_windows=[(15e-6, 45e-6)]
            )
        return spec

    comm.fabric.set_fault_all(chaos)
    data = rank_data(0, kib(256))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.traffic["fabric_drops"] > 0
    assert result.reliability_summary()["recoveries"] >= 1


def test_soak_allgather_ge_loss_plus_midstream_flap():
    comm = make_comm(8, seed=22)

    def chaos(src, dst):
        spec = FaultSpec(gilbert_elliott=GE_5PCT)
        if dst == "h3":
            spec = FaultSpec(
                gilbert_elliott=GE_5PCT, flap_windows=[(20e-6, 50e-6)]
            )
        return spec

    comm.fabric.set_fault_all(chaos)
    data = [rank_data(r, kib(32)) for r in range(8)]  # 256 KiB total
    result = comm.allgather(data)
    assert result.verify_allgather(data)
    assert result.traffic["fabric_drops"] > 0


def test_soak_back_to_back_collectives_on_degrading_fabric():
    """Several collectives on one communicator while the fault schedule
    evolves — the estimator state must survive op boundaries."""
    comm = make_comm(4, topo=Topology.star(4), seed=23)
    data = rank_data(0, kib(128))
    for _ in range(2):  # clean warmups train the estimator
        assert comm.broadcast(0, data).verify_broadcast(data)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_5PCT))
    for _ in range(3):
        assert comm.broadcast(0, data).verify_broadcast(data)
    engine = comm.engines[1]
    assert engine.cutoff.samples >= 2  # warmups observed
    assert engine.cutoff.slack() <= CUTOFF_ALPHA_MAX


# -------------------------------------------------- adaptive vs static alpha


def lose_a_tail(comm, n_chunks, host="h5"):
    """5 % burst loss on every link, and *host*'s link also loses the last
    chunk of an *n_chunks* broadcast: that rank's tail never arrives, so
    its cutoff, not the tail trigger, starts its recovery."""
    def tail(packet, _seq):
        return packet.imm is not None and comm.imm.decode(packet.imm)[0] == n_chunks - 1

    comm.fabric.set_fault_all(lambda s, d: FaultSpec(
        gilbert_elliott=GE_5PCT, drop_predicate=tail if d == host else None))


def _chaotic_broadcast_duration(adaptive, seed=31, warmups=2):
    """Same seed, same fault schedule, same op sequence — only the cutoff
    policy differs.  One receiver loses the tail, so a cutoff fires."""
    cfg = CollectiveConfig(adaptive_cutoff=adaptive)
    comm = make_comm(8, config=cfg, seed=seed)
    data = rank_data(0, kib(256))
    for _ in range(warmups):  # fault-free: no channel RNG draws, identical
        assert comm.broadcast(0, data).verify_broadcast(data)
    lose_a_tail(comm, kib(256) // cfg.chunk_size)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.reliability_summary()["recovery_triggers"]["cutoff"] >= 1
    return result


def test_adaptive_cutoff_tightens_vs_static_alpha():
    """The tentpole claim: after clean warmups the adaptive timer arms a
    tighter cutoff than the static α, so recovery starts sooner and the
    lossy collective finishes faster — on an identical fault schedule."""
    static = _chaotic_broadcast_duration(adaptive=False)
    adaptive = _chaotic_broadcast_duration(adaptive=True)
    cfg = CollectiveConfig()

    # The armed timeout itself is demonstrably tighter than N/B + α ...
    def armed_cutoff(result):
        return max(r.armed_timeout for r in result.ranks)

    assert armed_cutoff(adaptive) < armed_cutoff(static)
    assert armed_cutoff(static) >= cfg.cutoff_alpha  # includes full static α
    # ... and the end-to-end completion is faster.
    assert adaptive.duration < static.duration


# ----------------------------------------------------------- tail trigger


def _into(comm, host):
    """The switch whose link into *host* the fault goes on."""
    return next(src for src, dst in comm.fabric.channels if dst == host)


def _tail_run(reference, kind="broadcast", lose=(), host="h3", fault=None,
              **config):
    """A 256 KiB broadcast (or a 32 KiB-per-rank allgather) on an 8-host
    leaf-spine whose link into *host* loses its datagrams *lose* (by their
    index on that link), on the reference or the production engine: its
    handle and result."""
    fabric = Fabric(Simulator(), Topology.leaf_spine(8, n_leaf=2, n_spine=2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=5),
                    reference=reference)
    comm = Communicator(fabric, config=CollectiveConfig(**config))
    if fault is not None:
        fabric.set_fault_all(fault)
    if lose:
        fabric.set_fault(_into(comm, host), host, FaultSpec(drop_packet_seqs=set(lose)))
    if kind == "broadcast":
        data = rank_data(0, kib(256))
        request = CollectiveRequest(kind=kind, data=data, root=0)
    else:
        data = [rank_data(r, kib(32)) for r in range(8)]
        request = CollectiveRequest(kind=kind, data=data)
    handle = comm.submit(request)
    comm.run(handle)
    result = handle.result()
    assert (result.verify_broadcast(data) if kind == "broadcast"
            else result.verify_allgather(data))
    return handle, result


def _same_runs(folded, reference):
    (_, a), (_, b) = folded, reference
    assert a.t_end == b.t_end
    assert [r.phases for r in a.ranks] == [r.phases for r in b.ranks]
    assert [r.counters for r in a.ranks] == [r.counters for r in b.ranks]
    assert a.reliability_summary() == b.reliability_summary()


@pytest.mark.chaos_smoke
def test_a_mid_stream_drop_recovers_from_the_tail_before_the_cutoff():
    # h3 loses chunk 10 of 64: its tail (chunk 63) comes in behind the
    # hole, and its recovery starts there, long before its cutoff — on
    # the folded broadcast exactly as on the reference engine.
    runs = [_tail_run(reference, lose={10}) for reference in (False, True)]
    for handle, result in runs:
        op = handle.ops[3]
        assert op.trigger == "tail" and op.tails_left == 0
        assert op.phases["recovery"] == op.tail_at == op.recovery_at
        assert op.tail_at < op.phases["sync"] + op.armed_timeout
        assert result.reliability_summary()["recovery_triggers"] == {
            "tail": 1, "cutoff": 0}
        assert result.counter_total("recovered_chunks") == 1
    assert runs[0][0].comm.ff.ff_phases == 1
    _same_runs(*runs)


def test_a_lost_tail_falls_back_to_the_cutoff():
    # h3 loses a mid-stream chunk and the tail: nothing tells it the
    # stream ended, so its cutoff starts the recovery, at its deadline.
    runs = [_tail_run(reference, lose={10, 63}) for reference in (False, True)]
    for handle, result in runs:
        op = handle.ops[3]
        assert op.trigger == "cutoff" and op.tails_left == 1
        assert op.phases["recovery"] == op.recovery_at  # the cutoff's deadline
        assert op.tail_at == float("inf")
        assert result.reliability_summary()["recovery_triggers"] == {
            "tail": 0, "cutoff": 1}
    assert runs[0][0].comm.ff.ff_phases == 1
    _same_runs(*runs)


def test_reordering_channels_never_trigger(monkeypatch):
    # With reorder jitter on the tree a tail can overtake its block's
    # chunks: the trigger stays off, and a fabric that only reorders
    # recovers nothing ...
    jitter = lambda s, d: FaultSpec(reorder_jitter=3e-6)
    for kind in ("broadcast", "allgather"):
        handle, result = _tail_run(True, kind, fault=jitter)
        assert all(op.tail_epoch is None for op in handle.ops)
        assert result.reliability_summary()["recoveries"] == 0
        # ... and a drop is left to the cutoff
        handle, result = _tail_run(True, kind, lose={1}, fault=jitter)
        assert result.reliability_summary()["recovery_triggers"]["tail"] == 0
    # Without the gate the same jitter starts recoveries with nothing lost.
    monkeypatch.setattr(Communicator, "_tail_epoch",
                        lambda self: self.fabric.fault_epoch)
    handle, result = _tail_run(True, "allgather", fault=jitter)
    assert result.reliability_summary()["recovery_triggers"]["tail"] > 0
    assert not any(ch.packets_dropped for ch in handle.comm.fabric.channels.values())


def test_a_fault_change_after_launch_disarms_the_trigger():
    # A fault installed while the collective runs may reroute or reorder
    # what is in flight: from then on only the cutoff starts recovery.
    fabric = Fabric(Simulator(), Topology.leaf_spine(8, n_leaf=2, n_spine=2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=5))
    comm = Communicator(fabric)
    data = rank_data(0, kib(256))
    handle = comm.submit(CollectiveRequest(kind="broadcast", data=data, root=0))
    fabric.set_fault(_into(comm, "h3"), "h3", FaultSpec(drop_packet_seqs={10}))
    comm.run(handle)
    result = handle.result()
    assert result.verify_broadcast(data)
    assert handle.ops[3].trigger == "cutoff"


@pytest.mark.parametrize("kind,config,tails", [
    ("allgather", {}, 7), ("broadcast", {"n_subgroups": 2}, 2)])
def test_the_trigger_waits_for_every_block_and_subgroup_tail(
        kind, config, tails, monkeypatch):
    # h3 loses an early chunk (the broadcast's first, or the first of
    # rank 1's block): it fires only at the last of its tails — one per
    # other rank's block, or one per subgroup — and at no earlier one.
    stepped = []
    real = RankEngine._tail_in
    monkeypatch.setattr(RankEngine, "_tail_in", lambda self, op: (
        stepped.append((self.rank, self.sim.now, op.tail.triggered)),
        real(self, op))[1])
    handle, _ = _tail_run(True, kind, lose={0 if kind == "broadcast" else 8},
                          **config)
    op = handle.ops[3]
    mine = [(t, fired) for rank, t, fired in stepped if rank == 3]
    assert len(mine) == tails and not any(fired for _, fired in mine)
    assert op.trigger == "tail" and op.tail_at == max(t for t, _ in mine)
    assert op.phases["recovery"] >= op.tail_at


@pytest.mark.chaos_smoke
@pytest.mark.parametrize("lose,trigger", [({0}, "tail"), ({0, 15}, "cutoff")],
                         ids=["tail", "cutoff"])
def test_a_real_loss_leaves_the_adaptive_slack_unchanged(lose, trigger):
    # h2 loses the first chunk of a 16-chunk broadcast, or the first and
    # the last (its tail): the tail trigger or the cutoff starts its
    # recovery, and no multicast chunk lands during it.  A loss says
    # nothing about the timer, so the slack stays, and every op arms the
    # same timeouts on the folded engine as on the reference.
    armed = []
    for reference in (False, True):
        comm = make_comm(4, topo=Topology.star(4), seed=32, reference=reference)
        engine = comm.engines[2]
        data = rank_data(0, kib(64))
        results = [comm.broadcast(0, data)]
        slack_before = engine.cutoff.slack()
        comm.fabric.set_fault("sw000", "h2", FaultSpec(drop_packet_seqs=lose))
        results.append(comm.broadcast(0, data))
        assert results[-1].verify_broadcast(data)
        assert results[-1].ranks[2].trigger == trigger
        assert engine.cutoff.spurious == 0
        assert engine.cutoff.slack() == slack_before
        results.append(comm.broadcast(0, data))
        armed.append([[r.armed_timeout for r in res.ranks] for res in results])
    assert armed[0] == armed[1]


@pytest.mark.chaos_smoke
def test_a_slowed_link_backs_the_adaptive_slack_off():
    # h2's link serializes at a quarter of its rate and drops nothing: its
    # cutoff fires with chunks still in flight, and they land during the
    # recovery.  The timer fired early, so the slack doubles.
    comm = make_comm(4, topo=Topology.star(4), seed=32)
    engine = comm.engines[2]
    data = rank_data(0, kib(64))
    comm.broadcast(0, data)
    slack_before = engine.cutoff.slack()
    comm.fabric.set_fault("sw000", "h2", FaultSpec(bandwidth_windows=[(0.0, 1.0, 0.25)]))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.traffic["fabric_drops"] == 0
    assert result.ranks[2].trigger == "cutoff"
    assert engine.cutoff.spurious == 1
    assert engine.cutoff.slack() == pytest.approx(2 * slack_before)


# ------------------------------------------------------- fetch escalation


def test_concurrent_recoveries_share_fetch_servers():
    """Three ranks lose their prefix simultaneously: all enter recovery at
    once and the ring of fetch servers serves overlapping sessions."""
    comm = make_comm(4, topo=Topology.star(4), seed=41)
    for h in ("h1", "h2", "h3"):
        comm.fabric.set_fault(
            "sw000", h, FaultSpec(drop_packet_seqs={0, 1, 2, 3})
        )
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    summary = result.reliability_summary()
    assert summary["recoveries"] >= 3  # every non-root rank recovered
    assert summary["recovered_chunks"] >= 12


@pytest.mark.chaos_smoke
def test_unreachable_neighbors_raise_reliability_error():
    """When the whole fabric (including RC) dies mid-collective, recovery
    cannot succeed; the op must fail loudly within the configured deadline
    instead of hanging the simulation."""
    cfg = CollectiveConfig(recovery_deadline=3e-3)
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=42)
    # Total outage from 20 µs on (after barrier/activation, mid-data),
    # including reliable transports: hosts are truly unreachable.
    comm.fabric.set_fault_all(
        lambda s, d: FaultSpec(
            flap_windows=[(20e-6, 1e9)], protect_reliable=False
        )
    )
    data = rank_data(0, kib(256))
    with pytest.raises(ReliabilityError) as exc_info:
        comm.broadcast(0, data)
    err = exc_info.value
    assert err.missing_chunks > 0
    assert err.counters["fetch_ack_timeouts"] >= 1
    assert err.elapsed <= cfg.recovery_deadline + FETCH_ACK_TIMEOUT
    # ... and the failure arrived promptly, not after a hang.
    assert comm.sim.now < 0.1


def _wedged_reads(*hosts):
    """A drop predicate for the root's access link that loses every RDMA
    read request from *hosts*: a root whose reads never answer them."""
    def drop(p, seq):
        return p.kind is PacketKind.RC_READ_REQ and p.src in hosts
    return drop


@pytest.mark.chaos_smoke
def test_escalation_past_unresponsive_neighbor():
    """The peer asked first (on one switch, the root: it owns every chunk,
    so rank 3 reads it without a rendezvous) never answers the read; the
    requester must time it out as a FETCH_ACK and escalate to the ring
    rather than retrying the silent one forever."""
    comm = make_comm(4, topo=Topology.star(4), seed=43)
    data = rank_data(0, kib(128))

    # Surgical outage: only rank 3's read requests toward the root die (a
    # wedged responder); every other packet — barrier, final handshake,
    # the root's own traffic — is untouched.
    comm.fabric.set_fault("sw000", "h3", FaultSpec(drop_packet_seqs=set(range(8))))
    comm.fabric.set_fault(
        "sw000", "h0",
        FaultSpec(drop_predicate=_wedged_reads(3), protect_reliable=False),
    )
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    stats = result.ranks[3].counters
    assert stats["fetch_ack_timeouts"] >= 1
    assert stats["neighbor_escalations"] >= 1
    assert stats["recovered_chunks"] >= 1


@pytest.mark.chaos_smoke
def test_a_silent_fan_out_parent_is_escalated_past():
    """On a 16-rank switch the fan-out sends rank 3 to rank 1 with a
    FETCH_REQ.  Rank 1 never answers it (a wedged fetch server): rank 3
    times out its FETCH_ACK and escalates to the ring instead of parking
    on the silent one."""
    from repro.core.control import MSG_FETCH_REQ

    comm = make_comm(16, topo=Topology.star(16), seed=43, trace=TraceConfig())
    data = rank_data(0, kib(128))

    def is_r3_fetch_req(p, seq):
        if p.src != 3 or p.payload is None or p.payload.nbytes < 4:
            return False
        return int(np.asarray(p.payload[:4]).view(np.uint32)[0]) == MSG_FETCH_REQ

    comm.fabric.set_fault("sw000", "h3", FaultSpec(drop_packet_seqs=set(range(8))))
    comm.fabric.set_fault(
        "sw000", "h1",
        FaultSpec(drop_predicate=is_r3_fetch_req, protect_reliable=False),
    )
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    stats = result.ranks[3].counters
    timeouts = result.trace.select(name="reliability.timeout", track="r3")
    assert [ev.args["peer"] for ev in timeouts][:1] == [1]
    assert stats["fetch_ack_timeouts"] >= 1
    assert stats["neighbor_escalations"] >= 1
    assert stats["recovered_chunks"] >= 1


@pytest.mark.chaos_smoke
def test_ring_peer_short_of_chunks_wakes_the_requester():
    """Ranks 2 and 3 lose the same chunks and the root never answers
    either's read, so both fall back to the ring.  Rank 3's ring-left
    neighbour is rank 2, still recovering from rank 1 when asked: rank 3
    parks on rank 2's FETCH_READY instead of polling it, and reads
    everything in that one round."""
    comm = make_comm(4, topo=Topology.star(4), seed=44, trace=TraceConfig())
    data = rank_data(0, kib(128))
    for host in ("h2", "h3"):
        comm.fabric.set_fault("sw000", host,
                              FaultSpec(drop_packet_seqs=set(range(8))))
    comm.fabric.set_fault(
        "sw000", "h0",
        FaultSpec(drop_predicate=_wedged_reads(2, 3), protect_reliable=False),
    )
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    stats = result.ranks[3].counters
    assert stats["neighbor_escalations"] >= 1
    wakes = result.trace.select(name="reliability.wake", track="r3")
    assert [(ev.args["peer"], ev.args["via"]) for ev in wakes] == [(2, "ring")]
    fetches = result.trace.select(name="reliability.fetch", track="r3")
    # the silent root first, then one round per ring peer
    assert [(ev.args["peer"], ev.args["via"]) for ev in fetches[:1]] == [(0, "owner")]
    peers = [ev.args["peer"] for ev in fetches[1:]]
    assert all(ev.args["via"] == "ring" for ev in fetches[1:])
    assert peers and len(peers) == len(set(peers))


# ------------------------------------------- stragglers & degraded bandwidth


def test_straggler_rank_backs_up_into_rnr_and_recovers():
    cfg = CollectiveConfig(staging_slots=16)
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=51)
    comm.fabric.set_straggler(
        2, StragglerSpec(windows=[(0.0, 60e-6)], extra_poll_delay=4e-6)
    )
    data = rank_data(0, kib(256))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    # The slow receiver's staging ring overflowed into RNR drops, which the
    # reliability layer then absorbed.
    assert result.traffic["rnr_drops"] > 0
    assert result.ranks[2].counters["recovered_chunks"] > 0


def test_straggler_window_expires():
    """Outside its windows a straggler behaves normally: a window in the
    far future must not slow the collective at all."""
    comm_ref = make_comm(4, topo=Topology.star(4), seed=52)
    base = comm_ref.broadcast(0, rank_data(0, kib(64))).duration
    comm = make_comm(4, topo=Topology.star(4), seed=52)
    comm.fabric.set_straggler(
        1, StragglerSpec(windows=[(10.0, 11.0)], extra_poll_delay=1e-3)
    )
    result = comm.broadcast(0, rank_data(0, kib(64)))
    assert result.duration == pytest.approx(base)


def test_degraded_bandwidth_window_stretches_collective():
    data = rank_data(0, kib(128))
    comm_ref = make_comm(4, topo=Topology.star(4), seed=53)
    base = comm_ref.broadcast(0, data)
    assert base.verify_broadcast(data)
    comm = make_comm(4, topo=Topology.star(4), seed=53)
    comm.fabric.set_fault_all(
        lambda s, d: FaultSpec(bandwidth_windows=[(0.0, 1.0, 0.25)])
    )
    slow = comm.broadcast(0, data)
    assert slow.verify_broadcast(data)
    assert slow.duration > 2 * base.duration
