"""No recovery on a clean fabric: the cutoff timer covers every clean run.

The cutoff timer arms from the collective's chain schedule
(:mod:`repro.models.schedule`): the receive path's bytes over the link or
the receive workers, plus the activations an allgather's chains still run
after the arm.  On a fault-inert fabric with no straggler and no crash,
no generated broadcast, allgather or composed allreduce may fire it: every
case runs ``recoveries == fetch_rounds == 0`` and ends at the same virtual
instant as the same run with the timer pinned out of reach.  Each rank
posts a receive for every chunk it gets, so a receive worker slower than
its link (1 KiB chunks) cannot overrun its ring and drop one: a recovery
here can only be the timer's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.request import CollectiveRequest
from repro.models.schedule import chain_hops
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

#: topology families at 64 hosts; a case runs on its first P
FAMILIES = {
    "leaf_spine": lambda: Topology.leaf_spine(64, 8, 4),
    "fat_tree3": lambda: Topology.fat_tree3(64, 8, 4, 2),
    "torus": lambda: Topology.torus((4, 4), hosts_per_node=4),
    "dragonfly": lambda: Topology.dragonfly(4, 4, 4),
    "star": lambda: Topology.star(64),
}
#: a static slack no clean run of this size reaches
PINNED = dict(adaptive_cutoff=False, cutoff_alpha=1.0)


@st.composite
def cases(draw):
    p = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["broadcast", "allgather", "allreduce"]))
    chains = draw(st.sampled_from([m for m in range(1, p + 1) if p % m == 0])
                  if kind != "broadcast" else st.just(1))
    return dict(family=draw(st.sampled_from(sorted(FAMILIES))), p=p, kind=kind,
                chains=chains, chunk=draw(st.sampled_from([1024, 4096])),
                chunks=draw(st.sampled_from([1, 2, 8, 32])),
                transport=draw(st.sampled_from(["ud", "uc"])))


def _run(case, **pin):
    fabric = Fabric(Simulator(), FAMILIES[case["family"]](),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(0))
    comm = Communicator(fabric, hosts=range(case["p"]), config=CollectiveConfig(
        chunk_size=case["chunk"], transport=case["transport"],
        n_chains=case["chains"], staging_slots=case["p"] * case["chunks"], **pin))
    p, nbytes, rng = case["p"], case["chunk"] * case["chunks"], np.random.default_rng(0)
    if case["kind"] == "broadcast":
        data = rng.integers(0, 256, nbytes, dtype=np.uint8)
        res = comm.broadcast(p - 1, data)
        assert res.verify_broadcast(data)
    elif case["kind"] == "allgather":
        data = [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(p)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    else:  # each rank's reduced shard is *nbytes* of float32
        data = [rng.integers(0, 8, p * nbytes // 4).astype(np.float32)
                for _ in range(p)]
        res = comm.allreduce(data)
        assert res.verify_allreduce(data)
    return res


@settings(max_examples=20, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
# A 64-step chain of 32-chunk roots: ~6.7 µs per activation, 420 µs in all,
# past the timer's starting slack unless the allowance counts the chain.
@example(case=dict(family="leaf_spine", p=64, kind="allgather", chains=1,
                   chunk=4096, chunks=32, transport="ud"))
@example(case=dict(family="torus", p=48, kind="allreduce", chains=1,
                   chunk=1024, chunks=8, transport="uc"))
@example(case=dict(family="dragonfly", p=17, kind="allgather", chains=17,
                   chunk=1024, chunks=32, transport="ud"))
def test_a_clean_run_never_recovers(case) -> None:
    res, pinned = _run(case), _run(case, **PINNED)
    summary = res.reliability_summary()
    assert res.traffic["rnr_drops"] == res.traffic["fabric_drops"] == 0
    assert summary["recoveries"] == summary["fetch_rounds"] == 0, summary
    assert res.duration == pinned.duration
    assert [r.phases for r in res.ranks] == [r.phases for r in pinned.ranks]


def _armed(cfg, request):
    """Every rank's first armed timeout (expected + slack) of *request* on
    a fresh 16-host communicator, and the ``N/B`` rate it should use."""
    fabric = Fabric(Simulator(), Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric, config=cfg)
    handle = comm.submit(request)
    comm.run(handle)
    rate = min(fabric.link_bandwidth, cfg.cost.recv_rate(
        cfg.chunk_size, uc=cfg.transport == "uc") * cfg.n_subgroups)
    return [op.armed_timeout for op in handle.ops], rate


def test_a_broadcast_arms_at_n_over_b_plus_alpha():
    """A broadcast, and an allgather whose chains are one root long, arm
    the paper's ``N/B + α``: *B* the slower of the link and the receive
    workers, bit for bit ``N / min(link, recv_rate · subgroups) + α``."""
    for cfg in (CollectiveConfig(), CollectiveConfig(transport="uc"),
                CollectiveConfig(chunk_size=1024, n_subgroups=2),
                CollectiveConfig(n_chains=16, cutoff_alpha=100e-6)):
        for nbytes in (4096, 96 * 1024 + 1024):
            armed, rate = _armed(cfg, CollectiveRequest(
                kind="broadcast", data=np.zeros(nbytes, dtype=np.uint8), root=3))
            assert armed == [nbytes / rate + cfg.cutoff_alpha] * 16
        armed, rate = _armed(cfg, CollectiveRequest(
            kind="allgather", data=[np.zeros(4096, dtype=np.uint8)] * 16))
        if cfg.n_chains == 16:
            assert armed == [16 * 4096 / rate + cfg.cutoff_alpha] * 16
        else:  # a 16-step chain also waits out its activations
            assert min(armed) > 16 * 4096 / rate + cfg.cutoff_alpha


@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("chunks", [1, 8])
def test_each_activation_costs_the_chain_what_the_schedule_says(transport, chunks):
    """Between two successive roots' last bytes lies the next root's
    payload plus one activation step: the schedule's per-activation term,
    exactly (over a leaf-spine's 2- and 4-hop pairs)."""
    fabric = Fabric(Simulator(), Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56))
    cfg = CollectiveConfig(transport=transport, **PINNED)
    comm = Communicator(fabric, config=cfg)
    nbytes = chunks * cfg.chunk_size
    res = comm.allgather([np.zeros(nbytes, dtype=np.uint8)] * 16)
    sent = [r.phases["send_done"] for r in res.ranks]
    for a in range(15):
        step = comm._expected(2 * nbytes, nbytes, chain_hops(
            fabric.topology, [a, a + 1])) - 2 * nbytes / fabric.link_bandwidth
        assert sent[a + 1] - sent[a] - nbytes / fabric.link_bandwidth == (
            pytest.approx(step, rel=1e-9))


@pytest.mark.xfail(strict=True, reason=(
    "the default 256-slot staging ring overruns: 17 concurrent chains of "
    "1 KiB UD chunks outrun one receive worker (256 RNR drops, 8 recoveries)"))
def test_the_default_ring_keeps_up_with_concurrent_1k_chains() -> None:
    """The clean-run property's 17-chain case, at the default
    ``staging_slots`` instead of a receive posted per chunk."""
    fabric = Fabric(Simulator(), FAMILIES["dragonfly"](),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(0))
    comm = Communicator(fabric, hosts=range(17), config=CollectiveConfig(
        chunk_size=1024, n_chains=17))
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 256, 32 * 1024, dtype=np.uint8) for _ in range(17)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)
    assert res.reliability_summary()["recoveries"] == 0
