"""Generated exactness of the data fold over concurrent broadcast chains.

An allgather of ``M`` chains (paper §IV-A, Appendix A) folds every phase:
each tree edge serves the folded packets of all chains FIFO in the order
they reach it (DESIGN.md §6d).  Against ``Fabric(reference=True)``, every
generated case must leave the same per-rank phases, traffic and payloads,
fold every phase or name each decline, and run no recovery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

#: the tree families of the fold's exactness matrix, at 24 hosts
FAMILIES = {
    "leaf_spine": lambda: Topology.leaf_spine(24, 4, 2),
    "fat_tree3": lambda: Topology.fat_tree3(24, 4, 4, 2),
    "torus": lambda: Topology.torus((4, 3), hosts_per_node=2),
    "dragonfly": lambda: Topology.dragonfly(4, 3, 2),
    "star": lambda: Topology.star(24),
}
#: the gates a fault-free allgather can still decline with
NAMED = {"tie", "deadline", "qlen", "bypass", "busy", "missing"}


@st.composite
def cases(draw):
    p = draw(st.integers(2, 24))
    chains = draw(st.sampled_from([m for m in range(1, p + 1) if p % m == 0]))
    chunk = draw(st.sampled_from([1024, 4096]))
    # A shard is chunk-aligned; one below the chunk size is one short chunk.
    short = draw(st.integers(1, chunk))
    nbytes = draw(st.sampled_from([short, chunk, 2 * chunk, 3 * chunk]))
    return dict(family=draw(st.sampled_from(sorted(FAMILIES))), p=p,
                chains=chains, chunk=chunk, nbytes=nbytes,
                transport=draw(st.sampled_from(["ud", "uc"])),
                link=draw(st.floats(0.0, 1e-6)), delay=draw(st.floats(0.0, 1e-6)))


def _run(case, reference: bool):
    fabric = Fabric(Simulator(), FAMILIES[case["family"]](),
                    link_bandwidth=gbit_per_s(56), link_latency=case["link"],
                    switch_delay=case["delay"], streams=RandomStreams(0),
                    reference=reference)
    comm = Communicator(fabric, hosts=range(case["p"]), config=CollectiveConfig(
        chunk_size=case["chunk"], transport=case["transport"],
        n_chains=case["chains"]))
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 256, case["nbytes"], dtype=np.uint8)
            for _ in range(case["p"])]
    res = comm.allgather(data)
    assert res.verify_allgather(data)
    return res


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_chained_allgather_folds_exactly(case) -> None:
    res, ref = _run(case, False), _run(case, True)
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]
    assert res.duration == ref.duration and res.traffic == ref.traffic
    for a, b in zip(res.buffers, ref.buffers):
        assert np.array_equal(a, b)
    misses = res.engine["ff_misses"]
    assert set(misses) <= NAMED, misses
    assert res.engine["ff_phases"] + sum(misses.values()) == case["p"]
    for r in (res, ref):
        summary = r.reliability_summary()
        assert summary["recoveries"] == summary["fetch_rounds"] == 0
