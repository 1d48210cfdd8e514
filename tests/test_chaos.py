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
from repro.core.reliability import CUTOFF_ALPHA_MAX, FETCH_ACK_TIMEOUT, ReliabilityError
from repro.net import Fabric, GilbertElliott, StragglerSpec, Topology
from repro.net.link import FaultSpec
from repro.sim import RandomStreams, Simulator
from repro.units import gbit_per_s, kib


def make_comm(n_hosts=8, topo=None, config=None, seed=0):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topo or Topology.leaf_spine(n_hosts, n_leaf=2, n_spine=2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed=seed),
    )
    return Communicator(fabric, config=config)


def rank_data(rank, nbytes):
    rng = np.random.default_rng(2000 + rank)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


#: ~5% stationary loss, mean burst of 5 packets — the soak-level severity.
GE_5PCT = GilbertElliott(p_good_bad=0.0105, p_bad_good=0.2, drop_bad=1.0)
#: heavier chain for the short smoke runs, so bursts are certain to occur
#: within a few dozen packets.
GE_SMOKE = GilbertElliott(p_good_bad=0.05, p_bad_good=0.25, drop_bad=1.0)


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
    # Every rank armed a cutoff timer and logged the decision.
    assert summary["max_timer_rearms"] >= 1
    for r in result.ranks:
        assert any(reason == "cutoff-arm" for _, _, reason in r.timer_trace)


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


def _chaotic_broadcast_duration(adaptive, seed=31, warmups=2):
    """Same seed, same fault schedule, same op sequence — only the cutoff
    policy differs."""
    cfg = CollectiveConfig(adaptive_cutoff=adaptive)
    comm = make_comm(8, config=cfg, seed=seed)
    data = rank_data(0, kib(256))
    for _ in range(warmups):  # fault-free: no channel RNG draws, identical
        assert comm.broadcast(0, data).verify_broadcast(data)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GE_5PCT))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.reliability_summary()["recoveries"] >= 1
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
        return max(
            timeout
            for r in result.ranks
            for _, timeout, reason in r.timer_trace
            if reason == "cutoff-arm"
        )

    assert armed_cutoff(adaptive) < armed_cutoff(static)
    assert armed_cutoff(static) >= cfg.cutoff_alpha  # includes full static α
    # ... and the end-to-end completion is faster.
    assert adaptive.duration < static.duration


def test_adaptive_cutoff_backs_off_after_spurious_recovery():
    comm = make_comm(4, topo=Topology.star(4), seed=32)
    data = rank_data(0, kib(64))
    comm.broadcast(0, data)
    slack_before = comm.engines[2].cutoff.slack()
    comm.fabric.set_fault("sw000", "h2", FaultSpec(drop_packet_seqs={0}))
    comm.broadcast(0, data)
    assert comm.engines[2].cutoff.spurious == 1
    assert comm.engines[2].cutoff.slack() > slack_before


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


def test_escalation_past_unresponsive_neighbor():
    """The preferred (ring-left) neighbor never answers FETCH_REQ; the
    requester must time out its FETCH_ACK and escalate to the next
    neighbor rather than retrying the dead one forever."""
    from repro.core.control import MSG_FETCH_REQ

    comm = make_comm(4, topo=Topology.star(4), seed=43)
    data = rank_data(0, kib(128))

    # Surgical outage: only rank 3's fetch requests toward rank 2 die (a
    # wedged fetch server); every other packet — barrier, final handshake,
    # rank 2's own traffic — is untouched.
    def is_r3_fetch_req(p, seq):
        if p.src != 3 or p.payload is None or p.payload.nbytes < 4:
            return False
        return int(np.asarray(p.payload[:4]).view(np.uint32)[0]) == MSG_FETCH_REQ

    comm.fabric.set_fault("sw000", "h3", FaultSpec(drop_packet_seqs=set(range(8))))
    comm.fabric.set_fault(
        "sw000", "h2",
        FaultSpec(drop_predicate=is_r3_fetch_req, protect_reliable=False),
    )
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    stats = result.ranks[3].counters
    assert stats["fetch_ack_timeouts"] >= 1
    assert stats["neighbor_escalations"] >= 1
    assert stats["recovered_chunks"] >= 1


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
