"""Fail-stop fault tolerance: crash detection, repair, degraded completion.

The acceptance suite of the fail-stop layer (DESIGN.md "Fail-stop
tolerance"): mid-collective host deaths under both
:class:`~repro.core.communicator.FailurePolicy` values, a spine switch
hard-down rerouted by the SM sweep, the simulator hang watchdog on a
deliberately-deadlocked fixture, and a watchdog-never-fires property
sweep across the chaos matrix.  Fast cases carry ``crash_smoke`` so CI
can run them standalone: ``pytest -m crash_smoke``.
"""

import numpy as np
import pytest

from repro.core import CollectiveConfig, Communicator, FailurePolicy
from repro.core.reliability import (
    LIVENESS_PROBE_TIMEOUT,
    SUSPICION_TIMEOUT,
    CollectiveAbortedError,
)
from repro.net import CrashSpec, Fabric, GilbertElliott, StragglerSpec, Topology
from repro.net.faults import normalize_windows
from repro.net.link import FaultSpec
from repro.obs import TraceConfig
from repro.sim import RandomStreams, Simulator
from repro.sim.engine import WatchdogError
from repro.units import gbit_per_s, kib


def make_comm(n_hosts=8, topo=None, config=None, seed=0, trace=None):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topo or Topology.leaf_spine(n_hosts, n_leaf=2, n_spine=2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed=seed),
    )
    return Communicator(fabric, config=config, trace=trace)


def rank_data(rank, nbytes):
    rng = np.random.default_rng(3000 + rank)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


# ------------------------------------------------------------ crash vocabulary


def test_crash_spec_requires_exactly_one_target():
    with pytest.raises(ValueError):
        CrashSpec(at=1e-6)
    with pytest.raises(ValueError):
        CrashSpec(at=1e-6, host=0, switch="sw000")
    assert CrashSpec(at=1e-6, host=3).target == 3
    assert CrashSpec(at=1e-6, switch="spine000").target == "spine000"


def test_schedule_crash_validates_target_names():
    comm = make_comm(4, topo=Topology.star(4))
    with pytest.raises(ValueError):
        comm.fabric.schedule_crash(CrashSpec(at=1e-6, switch="nope"))
    with pytest.raises(ValueError):
        comm.fabric.schedule_crash(CrashSpec(at=1e-6, host=99))
    with pytest.raises(ValueError):
        comm.fabric.schedule_crash(CrashSpec(at=1e-6, link=("h0", "h3")))


# ------------------------------------------------- degraded-mode completion


@pytest.mark.crash_smoke
def test_broadcast_degrades_around_dead_leaf():
    """A non-root rank fail-stops mid-broadcast; the survivors detect the
    silence, re-plan the tree, and finish with correct payloads."""
    cfg = CollectiveConfig(failure_policy=FailurePolicy.DEGRADE)
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=101)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=2))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.degraded and result.dead_ranks == [2]
    assert result.verify_broadcast(data)  # every survivor has every byte
    assert all(r.rank != 2 for r in result.ranks)


@pytest.mark.crash_smoke
def test_allgather_degrades_with_validity_masks():
    """A contributor dies mid-allgather: survivors complete with the dead
    rank's shard marked missing in their validity masks and every other
    shard byte-correct."""
    cfg = CollectiveConfig(failure_policy="degrade")  # plain string accepted
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=102)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=3))
    send = [rank_data(r, kib(32)) for r in range(4)]
    result = comm.allgather(send)
    assert result.degraded and result.dead_ranks == [3]
    assert result.validity is not None
    assert result.verify_allgather_degraded(send)
    chunks_per_rank = len(result.validity[0]) // 4
    for r in (0, 1, 2):
        mask = result.validity[r]
        # Holes live exactly in (a subset of) the dead rank's shard.
        assert not mask[3 * chunks_per_rank:].all()
        assert mask[: 3 * chunks_per_rank].all()


def test_allgather_16_hosts_mid_crash_deterministic():
    """The ISSUE acceptance point: 16-host allgather, mid-collective host
    death, DEGRADE — correct validity masks, bit-identical across reruns."""

    def run():
        cfg = CollectiveConfig(failure_policy="degrade")
        comm = make_comm(16, topo=Topology.leaf_spine(16, 4, 2),
                         config=cfg, seed=103)
        comm.fabric.schedule_crash(CrashSpec(at=15e-6, host=7))
        send = [rank_data(r, kib(16)) for r in range(16)]
        result = comm.allgather(send)
        return result, send, comm.sim.now

    r1, send, t1 = run()
    r2, _, t2 = run()
    assert r1.dead_ranks == [7]
    assert r1.verify_allgather_degraded(send)
    assert t1 == t2 and r1.dead_ranks == r2.dead_ranks
    assert all(
        (m1 is None and m2 is None) or np.array_equal(m1, m2)
        for m1, m2 in zip(r1.validity, r2.validity)
    )


def test_broadcast_188_hosts_mid_crash_degrades():
    """188-host testbed broadcast with a mid-collective host crash must
    terminate in degraded mode with every survivor byte-correct."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(188, topo=Topology.testbed_188(), config=cfg, seed=104)
    comm.fabric.schedule_crash(CrashSpec(at=20e-6, host=100))
    data = rank_data(0, kib(256))
    result = comm.broadcast(0, data)
    assert result.degraded and result.dead_ranks == [100]
    assert result.verify_broadcast(data)


def test_degraded_allgather_composes_with_chaos_loss():
    """CrashSpec composes with the chaos schedules: bursty loss keeps
    running on the survivors while one rank fail-stops."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=105)
    comm.fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_bad=1.0)))
    comm.fabric.schedule_crash(CrashSpec(at=12e-6, host=1))
    send = [rank_data(r, kib(32)) for r in range(4)]
    result = comm.allgather(send)
    assert result.dead_ranks == [1]
    assert result.verify_allgather_degraded(send)


def test_rank_dead_before_submission_is_pre_voided():
    """A collective submitted after a death never involves the dead rank:
    its shard is voided up front and the chain schedule skips it."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=106)
    comm.fabric.schedule_crash(CrashSpec(at=5e-6, host=2))
    first = comm.broadcast(0, rank_data(0, kib(64)))
    assert first.dead_ranks == [2]
    send = [rank_data(r, kib(16)) for r in range(4)]
    result = comm.allgather(send)
    assert result.dead_ranks == [2]
    assert result.verify_allgather_degraded(send)
    # Dead root is rejected loudly, not hung.
    with pytest.raises(ValueError):
        comm.broadcast(2, rank_data(2, kib(16)))


def _delegate_crash_run(kind, policy, crash_at=None):
    """A lossy 16-host leaf-spine collective whose first packets die above
    leaf 1, so every rank there recovers: rank 8 as the leaf's delegate,
    the others down the leaf's fan-out under it.  Host 8 fail-stops at
    *crash_at*, if given.  Returns the result and the payload."""
    cfg = CollectiveConfig(failure_policy=policy)
    comm = make_comm(16, topo=Topology.leaf_spine(16, 2, 2), config=cfg,
                     seed=141, trace=TraceConfig())
    fabric = comm.fabric
    fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_bad=0.5)))
    for spine in ("spine000", "spine001"):
        fabric.set_fault(spine, "leaf001", FaultSpec(drop_packet_seqs=set(range(4))))
    if crash_at is not None:
        fabric.schedule_crash(CrashSpec(at=crash_at, host=8))
    if kind == "broadcast":
        data = rank_data(0, kib(128))
        return comm.broadcast(0, data), data
    data = [rank_data(r, kib(16)) for r in range(16)]
    return comm.allgather(data), data


def _fan_out_parent(order, rank):
    """*rank*'s parent in the binomial fan-out over *order* (head first)."""
    i = order.index(rank)
    return order[i - (1 << (i.bit_length() - 1))]


@pytest.mark.crash_smoke
@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
def test_a_delegate_dying_mid_recovery_hands_over_to_the_next(kind):
    """Leaf 1's delegate fail-stops a microsecond into its recovery, while
    its fan-out children wait to read from it.  Under DEGRADE they confirm
    it dead and finish with verified payloads over the fan-out of the
    survivors instead of falling back to the ring: rank 9 — the leaf's
    next live rank, now its delegate — reads the owner, and every other
    rank reads its parent under rank 9; under ABORT they raise the typed
    error."""
    clean, _ = _delegate_crash_run(kind, "degrade")
    delegate = next(r for r in clean.ranks if r.rank == 8)
    children = {ev.track for ev in clean.trace.select(name="reliability.fetch")
                if ev.args == {"peer": 8, "via": "group"}}
    assert children == {"r9", "r10", "r12"}  # 8 serves its fan-out
    crash_at = delegate.phases["recovery"] + 1e-6
    assert crash_at < delegate.phases["data"]  # it dies mid-recovery

    result, data = _delegate_crash_run(kind, "degrade", crash_at)
    assert result.dead_ranks == [8]
    if kind == "broadcast":
        assert result.verify_broadcast(data)
    else:
        assert result.verify_allgather_degraded(data)
    summary = result.reliability_summary()
    assert summary["fetch_ack_timeouts"] > 0  # they waited on the dead one
    assert summary["fetch_sources"]["ring"] == summary["neighbor_escalations"] == 0
    confirmed = min(ev.ts for ev in result.trace.select(name="liveness.confirm"))
    later = [(int(ev.track[1:]), ev.args)
             for ev in result.trace.select(name="reliability.fetch")
             if ev.ts >= confirmed and 8 < int(ev.track[1:]) < 16]
    survivors = list(range(9, 16))
    assert {r for r, _ in later} == set(survivors)
    for r, args in later:
        if r == 9:
            assert args["via"] == "owner" and args["peer"] < 8
        else:
            assert args == {"peer": _fan_out_parent(survivors, r), "via": "group"}

    with pytest.raises(CollectiveAbortedError) as exc_info:
        _delegate_crash_run(kind, "abort", crash_at)
    assert exc_info.value.dead_ranks == (8,)
    assert exc_info.value.kind == kind


@pytest.mark.crash_smoke
def test_a_death_confirmation_ends_the_survivors_waits():
    """Host 9 fail-stops in the barrier.  The ranks that got the data wait
    in the final handshake on neighbours still stuck in the barrier; the
    confirmation of the death ends those waits at once, instead of after
    their own suspicion timers, so every survivor finishes within a probe
    timeout of the last confirmation."""
    cfg = CollectiveConfig(failure_policy="degrade")
    fabric = Fabric(Simulator(), Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=151))
    comm = Communicator(fabric, config=cfg, trace=TraceConfig())
    fabric.schedule_crash(CrashSpec(at=1e-6, host=9))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.dead_ranks == [9]
    assert result.verify_broadcast(data)
    confirmed = max(ev.ts for ev in result.trace.select(name="liveness.confirm"))
    early = [r for r in result.ranks if r.phases["data"] < confirmed]
    assert early  # some survivors were waiting in the handshake
    last = max(r.phases["final"] for r in result.ranks)
    assert last - confirmed < LIVENESS_PROBE_TIMEOUT


# ----------------------------------------------------------------- ABORT


@pytest.mark.crash_smoke
def test_abort_policy_raises_typed_error():
    cfg = CollectiveConfig(failure_policy=FailurePolicy.ABORT)
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=111)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=1))
    with pytest.raises(CollectiveAbortedError) as exc_info:
        comm.broadcast(0, rank_data(0, kib(128)))
    err = exc_info.value
    assert err.dead_ranks == (1,)
    assert err.kind == "broadcast"
    assert err.phase
    assert comm.sim.now < 0.1  # prompt, not a hang


def test_abort_allgather_16_hosts():
    cfg = CollectiveConfig(failure_policy="abort")
    comm = make_comm(16, topo=Topology.leaf_spine(16, 4, 2),
                     config=cfg, seed=112)
    comm.fabric.schedule_crash(CrashSpec(at=15e-6, host=9))
    send = [rank_data(r, kib(16)) for r in range(16)]
    with pytest.raises(CollectiveAbortedError) as exc_info:
        comm.allgather(send)
    assert exc_info.value.dead_ranks == (9,)


@pytest.mark.crash_smoke
@pytest.mark.parametrize("policy", ["abort", "degrade"])
@pytest.mark.parametrize("kind", ["reduce_scatter", "alltoall"])
def test_baseline_kind_mid_crash_aborts_typed_and_releases(kind, policy):
    """A fail-stop in the middle of a reduce-scatter or an alltoall fails
    the whole collective under either policy (no baseline substrate
    degrades): a typed error names the kind and the dead rank, the
    blocking call still releases every region it registered, and the
    survivors run on while the aborted writes still in flight are dropped
    at its destroyed QPs."""
    cfg = CollectiveConfig(failure_policy=policy)
    comm = make_comm(config=cfg, seed=131)
    memories = [comm.fabric.nic(h).memory for h in range(comm.fabric.n_hosts)]
    start = [len(m) for m in memories]
    rng = np.random.default_rng(131)
    data = [rng.normal(size=16 * 1024).astype(np.float32) for _ in range(8)]
    comm.fabric.schedule_crash(CrashSpec(at=6e-6, host=5))
    with pytest.raises(CollectiveAbortedError) as exc_info:
        getattr(comm, kind)(data)
    err = exc_info.value
    assert err.kind == kind
    assert err.dead_ranks == (5,)
    assert comm.sim.now == 6e-6  # failed at the crash instant
    assert [len(m) for m in memories] == start
    assert comm.fabric.collectives == {} and comm.fabric._inc_trees == {}
    payload = rank_data(0, kib(64))
    result = comm.broadcast(0, payload)
    assert result.dead_ranks == [5]
    assert result.verify_broadcast(payload)


@pytest.mark.crash_smoke
@pytest.mark.parametrize("kind,n_hosts,host,at", [
    ("broadcast", 4, 1, 10e-6), ("allreduce", 16, 9, 5e-6)])
def test_an_aborted_blocking_call_releases_its_handle(kind, n_hosts, host, at):
    """A blocking call whose run raises — a broadcast's rank process under
    ``ABORT``, an allreduce's driver in its reduce-scatter phase — still
    releases its handle: nothing stays on the fabric, and every NIC holds
    the regions it held before, besides the receive slabs its rank's
    control plane posted on first use (the communicator's, not the
    collective's)."""
    cfg = CollectiveConfig(failure_policy=FailurePolicy.ABORT)
    comm = make_comm(n_hosts, topo=Topology.star(4) if kind == "broadcast"
                     else None, config=cfg, seed=111)
    fabric = comm.fabric
    memories = [fabric.nic(h).memory for h in range(n_hosts)]
    start = [len(m) for m in memories]
    fabric.schedule_crash(CrashSpec(at=at, host=host))
    with pytest.raises(CollectiveAbortedError):
        if kind == "broadcast":
            comm.broadcast(0, rank_data(0, kib(128)))
        else:
            rng = np.random.default_rng(131)
            comm.allreduce([rng.normal(size=16 * 1024).astype(np.float32)
                            for _ in range(n_hosts)])
    assert fabric.collectives == {}
    assert [len(m) - len(e.ctrl._slabs)
            for m, e in zip(memories, comm.engines)] == start


# ------------------------------------------------------- switch/link crashes


@pytest.mark.crash_smoke
def test_spine_down_reroutes_and_completes():
    """A spine dies mid-broadcast: the SM sweep reroutes via the surviving
    spine and rebuilds the multicast tree; the cutoff/fetch recovery then
    re-delivers what the dead spine black-holed.  No liveness layer needed
    — no host died."""
    comm = make_comm(8, seed=121)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, switch="spine000"))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.dead_ranks == []  # all hosts survived
    assert result.reliability_summary()["recoveries"] >= 1
    assert "spine000" in comm.fabric.dead_switches


def test_spine_down_mid_allgather_completes():
    """A spine dies mid-allgather.  Control packets routed through it
    (activation/final tokens) are black-holed during the 1 ms pre-sweep
    window and RC retransmission is not modeled, so completion relies on
    the liveness layer's escalation: probes answered alive bound the wait
    and the collective proceeds without the lost token."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(8, config=cfg, seed=122)
    comm.fabric.schedule_crash(CrashSpec(at=12e-6, switch="spine001"))
    send = [rank_data(r, kib(32)) for r in range(8)]
    result = comm.allgather(send)
    assert result.verify_allgather(send)
    assert result.dead_ranks == []  # every host survived the switch death


@pytest.mark.crash_smoke
def test_link_down_heals_via_recovery():
    """A single host's access link hard-down is indistinguishable from a
    host death to its peers; with DEGRADE the survivors complete around
    the unreachable rank."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=123)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, link=("sw000", "h2")))
    data = rank_data(0, kib(128))
    result = comm.broadcast(0, data)
    assert result.dead_ranks == [2]
    assert result.verify_broadcast(data)


# ------------------------------------------------------------------ watchdog


@pytest.mark.crash_smoke
def test_watchdog_fires_on_deadlocked_fixture_with_diagnostics():
    """The deliberately-deadlocked fixture: the broadcast root dies with
    the liveness layer off, so the survivors' recovery churns events
    without progress forever.  The watchdog must convert that hang into a
    typed error carrying the per-rank diagnostic dump."""
    comm = make_comm(4, topo=Topology.star(4), seed=131)  # policy=None
    comm.sim.install_watchdog(5e-3)
    comm.fabric.schedule_crash(CrashSpec(at=5e-6, host=0))
    with pytest.raises(WatchdogError) as exc_info:
        comm.broadcast(0, rank_data(0, kib(128)))
    report = exc_info.value.report
    assert "dead_ranks=[0]" in report
    for r in range(4):
        assert f"rank {r}" in report  # per-rank state present
    assert "holes:" in report and "last phase:" in report


def test_watchdog_never_fires_on_clean_run():
    comm = make_comm(4, topo=Topology.star(4), seed=132)
    comm.sim.install_watchdog(1e-3)
    data = rank_data(0, kib(128))
    assert comm.broadcast(0, data).verify_broadcast(data)


GE_CHAOS = GilbertElliott(p_good_bad=0.02, p_bad_good=0.25, drop_bad=1.0)

_CHAOS_REGIMES = {
    "bursty": lambda comm: comm.fabric.set_fault_all(
        lambda s, d: FaultSpec(gilbert_elliott=GE_CHAOS)),
    "flap": lambda comm: comm.fabric.set_fault(
        "sw000", "h2", FaultSpec(flap_windows=[(10e-6, 40e-6)])),
    "straggler": lambda comm: comm.fabric.set_straggler(
        1, StragglerSpec(windows=[(0.0, 50e-6)], extra_poll_delay=2e-6)),
}


@pytest.mark.parametrize("seed", [201, 202, 203])
@pytest.mark.parametrize("regime", sorted(_CHAOS_REGIMES))
@pytest.mark.parametrize("collective", ["broadcast", "allgather"])
def test_watchdog_never_fires_under_chaos(seed, regime, collective):
    """Property sweep: across seeds × chaos regimes × collectives, a run
    that merely *recovers* (no fail-stop) must never trip the watchdog —
    recovery makes progress, and the watchdog only converts genuine
    no-progress hangs."""
    comm = make_comm(4, topo=Topology.star(4), seed=seed)
    comm.sim.install_watchdog(2e-3)
    _CHAOS_REGIMES[regime](comm)
    if collective == "broadcast":
        data = rank_data(0, kib(64))
        assert comm.broadcast(0, data).verify_broadcast(data)
    else:
        send = [rank_data(r, kib(16)) for r in range(4)]
        assert comm.allgather(send).verify_allgather(send)


# --------------------------------------------------------- liveness plumbing


def test_death_confirmation_is_agreed_and_tracked():
    """Membership agreement is *eventual*: the probing rank confirms the
    death immediately and updates the shared membership; MSG_DEATH notices
    still in flight when the op completes are consumed on the next drain,
    after which every survivor's engine holds the same confirmed-dead set."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(4, topo=Topology.star(4), config=cfg, seed=141)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=2))
    data = rank_data(0, kib(128))
    assert comm.broadcast(0, data).verify_broadcast(data)
    # The communicator-level membership is updated by the first confirmer
    # before the op completes ...
    assert comm.dead_ranks == {2}
    confirmers = [r for r in (0, 1, 3)
                  if comm.engines[r].confirmed_dead == {2}]
    assert confirmers  # ... and at least one engine confirmed it first-hand.
    # A follow-up collective drains the in-flight MSG_DEATH notices; after
    # it, agreement is total.
    assert comm.broadcast(0, data).verify_broadcast(data)
    for r in (0, 1, 3):
        assert comm.engines[r].confirmed_dead == {2}


def test_back_to_back_collectives_after_repair():
    """The repaired communicator keeps working: collectives submitted after
    a degraded completion run among the survivors without re-detecting."""
    cfg = CollectiveConfig(failure_policy="degrade")
    comm = make_comm(8, config=cfg, seed=142)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=5))
    data = rank_data(0, kib(64))
    first = comm.broadcast(0, data)
    assert first.dead_ranks == [5]
    t_mid = comm.sim.now
    second = comm.broadcast(0, data)
    assert second.verify_broadcast(data)
    assert second.dead_ranks == [5]
    # No fresh suspicion cycle: the second op finishes in healthy time.
    assert comm.sim.now - t_mid < SUSPICION_TIMEOUT


# ------------------------------------------------------- window validation


def test_normalize_windows_rejects_zero_length():
    with pytest.raises(ValueError, match=r"zero-length window \[3e-06, 3e-06\)"):
        normalize_windows([(1e-6, 2e-6), (3e-6, 3e-6)])


def test_normalize_windows_rejects_overlap_naming_pair():
    with pytest.raises(ValueError, match=r"\[0.0, 5e-06\) and \[4e-06, 6e-06\)"):
        normalize_windows([(4e-6, 6e-6), (0.0, 5e-6)])


def test_normalize_windows_sorts_disjoint():
    ws = normalize_windows([(5e-6, 6e-6), (1e-6, 2e-6)])
    assert [w.start for w in ws] == [1e-6, 5e-6]
