"""Unit tests for the adaptive reliability machinery (core/reliability.py)."""

import numpy as np
import pytest

from repro.bench import make_fabric
from repro.core import CollectiveConfig, Communicator, HostCostModel
from repro.core.reliability import (
    CUTOFF_ALPHA_MAX,
    CUTOFF_ALPHA_MIN,
    SUSPICION_TIMEOUT,
    CutoffEstimator,
    ReliabilityError,
)
from repro.net import Fabric, Topology
from repro.sim import Simulator
from repro.units import MiB


def make_est():
    return CutoffEstimator(alpha0=200e-6)


def test_initial_slack_is_static_alpha():
    est = make_est()
    assert est.slack() == pytest.approx(200e-6)


def test_clean_samples_tighten_slack():
    est = make_est()
    for _ in range(20):
        est.observe(10e-6)
    # SRTT → 10 µs, RTTVAR → 0, so slack converges near SRTT (clamped).
    assert est.slack() < 60e-6
    assert est.slack() >= CUTOFF_ALPHA_MIN


def test_slack_clamped_to_bounds():
    est = make_est()
    for _ in range(50):
        est.observe(0.0)
    assert est.slack() == CUTOFF_ALPHA_MIN
    for _ in range(50):
        est.on_recovery()
    # Backoff is capped at 64x, and the result never exceeds the clamp.
    assert est.slack() == pytest.approx(min(64 * CUTOFF_ALPHA_MIN, CUTOFF_ALPHA_MAX))
    assert est.slack() <= CUTOFF_ALPHA_MAX


def test_recovery_backs_off_and_clean_ops_decay():
    est = make_est()
    est.observe(10e-6)
    tight = est.slack()
    est.on_recovery()
    assert est.slack() == pytest.approx(min(tight * 2, CUTOFF_ALPHA_MAX))
    est.observe(10e-6)  # decays the backoff again
    assert est.slack() < tight * 2


def test_variance_widens_slack():
    steady, noisy = make_est(), make_est()
    for _ in range(30):
        steady.observe(50e-6)
    for i in range(30):
        noisy.observe(50e-6 if i % 2 else 150e-6)
    assert noisy.slack() > steady.slack()


def test_estimator_counts_samples_and_recoveries():
    est = make_est()
    est.observe(5e-6)
    est.on_recovery()
    assert est.samples == 1 and est.spurious == 1


def test_estimator_validates_bounds():
    assert 0 < CUTOFF_ALPHA_MIN <= CUTOFF_ALPHA_MAX


def test_negative_samples_clamped():
    est = make_est()
    est.observe(-5.0)  # delivery faster than the N/B ideal: clamp to 0
    assert est.srtt == 0.0
    assert est.slack() == CUTOFF_ALPHA_MIN


def test_reliability_error_renders_diagnostics():
    err = ReliabilityError(
        "recovery deadline exceeded",
        rank=3, coll_id=7, kind="broadcast", missing_chunks=12, n_chunks=64,
        elapsed=0.25, deadline=0.25, counters={"fetch_ack_timeouts": 4},
    )
    text = str(err)
    assert "rank=3" in text and "missing=12/64" in text
    assert "fetch_ack_timeouts=4" in text
    assert isinstance(err, RuntimeError)
    assert err.counters["fetch_ack_timeouts"] == 4


def test_suspicion_floor_clears_the_sm_reroute_delay():
    # A switch-down blackout lasts until the SM sweep reroutes around it;
    # a suspicion timer shorter than that would confirm live peers dead.
    fabric = Fabric(Simulator(), Topology.star(2))
    assert SUSPICION_TIMEOUT > fabric.sm_reroute_delay


@pytest.mark.parametrize("n_subgroups", [1, 2, 4])
def test_weak_core_broadcast_needs_no_recovery(n_subgroups):
    # The cutoff timer's N/B counts one receive worker per subgroup; a
    # rate that counted workers with no subgroup to drain would fire the
    # timer before a weak core could finish a clean broadcast.  The 4 MiB
    # ring (1024 slots of 4 KiB) holds the whole 2 MiB message.
    fabric = make_fabric(8, link_gbit=200)
    config = CollectiveConfig(n_subgroups=n_subgroups, staging_slots=1024,
                              cost=HostCostModel().scaled(2.0))
    comm = Communicator(fabric, config=config)
    data = np.random.default_rng(3).integers(0, 256, 2 * MiB, dtype=np.uint8)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    summary = result.reliability_summary()
    assert summary["recoveries"] == summary["fetch_rounds"] == 0
    assert all(len(e._recv_procs) == n_subgroups for e in comm.engines)


@pytest.mark.xfail(strict=True, reason=(
    "the default 256-slot ring holds 1 MiB of 4 KiB datagrams; one weak "
    "worker drains a 2 MiB broadcast slower than the 200 Gbit/s link "
    "fills it, so the ring overruns (826 RNR drops, 7 recoveries)"))
def test_a_weak_core_with_the_default_ring_needs_no_recovery():
    fabric = make_fabric(8, link_gbit=200)
    config = CollectiveConfig(cost=HostCostModel().scaled(2.0))
    comm = Communicator(fabric, config=config)
    data = np.random.default_rng(3).integers(0, 256, 2 * MiB, dtype=np.uint8)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.traffic["rnr_drops"] == 0
    assert result.reliability_summary()["recoveries"] == 0


@pytest.mark.parametrize("n_subgroups", [2, 4])
def test_an_8x_slower_core_with_subgroups_needs_no_recovery(n_subgroups):
    fabric = make_fabric(8, link_gbit=200)
    config = CollectiveConfig(n_subgroups=n_subgroups, staging_slots=1024,
                              cost=HostCostModel().scaled(8.0))
    comm = Communicator(fabric, config=config)
    data = np.random.default_rng(3).integers(0, 256, 2 * MiB, dtype=np.uint8)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)
    assert result.traffic["rnr_drops"] == 0
    assert result.reliability_summary()["recoveries"] == 0
