"""Generated exactness of the data fold over concurrent broadcast chains.

An allgather of ``M`` chains (paper §IV-A, Appendix A) folds every phase:
each tree edge serves the folded packets of all chains FIFO in the order
they reach it (DESIGN.md §6d).  Against ``Fabric(reference=True)``, every
generated case must leave the same per-rank phases, traffic and payloads,
fold every phase or name each decline, and run no recovery.
"""

from __future__ import annotations

import numpy as np
import pytest
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


def _spy(monkeypatch, cls, name, record, static=False):
    """Wrap ``cls.name`` to append ``record(*args)`` to the returned list."""
    calls, fn = [], getattr(cls, name)

    def spy(*args):
        calls.append(record(*args))
        return fn(*args)

    monkeypatch.setattr(cls, name, staticmethod(spy) if static else spy)
    return calls


@pytest.mark.parametrize("nbytes", [1024, 4096, 8192])
@pytest.mark.parametrize("family", ["leaf_spine", "fat_tree3"])
def test_every_rank_a_chain_serves_the_edges_at_most_twice(
        family: str, nbytes: int, monkeypatch) -> None:
    # ``ar188``'s allgather shape at 24 hosts: ``n_chains == P``, so every
    # rank multicasts at once and phases overtake each other on shared
    # edges.  The edges defer like the lanes: a phase is recorded where it
    # is injected, and one exact serve covers them all where something
    # needs the exact forwards (the last phase, here; at most one more).
    from repro.sim.fastforward import _Session
    from repro.sim.parallel import TreeEdges

    serves = _spy(monkeypatch, TreeEdges, "_serve", lambda *a: a[2])
    sessions = _spy(monkeypatch, _Session, "__init__", lambda *a: None)
    case = dict(family=family, p=24, chains=24, chunk=4096, nbytes=nbytes,
                transport="ud", link=0.0, delay=0.0)
    res = _run(case, False)
    assert res.engine["ff_phases"] == 24 and res.engine["ff_misses"] == {}
    assert len(sessions) == 1 and 1 <= len(serves) <= 2
    assert sum(serves) <= 24 * max(1, nbytes // 4096)  # each packet at most once
    monkeypatch.undo()
    ref = _run(case, True)
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]
    assert res.duration == ref.duration and res.traffic == ref.traffic
    for a, b in zip(res.buffers, ref.buffers):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tie", [True, False], ids=["tie", "apart"])
def test_a_second_packet_size_takes_the_tie_check_on_exact_arrivals(
        tie: bool, monkeypatch) -> None:
    # Four chains on leaf_spine(8, 2, 2): lane 1 overtakes lane 0 on their
    # leaf's up-channel, so it and lane 5 after it are recorded fresh; lane
    # 2's short packet is a second size, so the edges serve every fresh
    # packet first and check ties on the exact arrivals — a tie with lane
    # 1's packet at their leaf declines, an arrival apart commits served.
    from repro.sim.parallel import TreeEdges

    comm = Communicator(Fabric(Simulator(), Topology.leaf_spine(8, 2, 2)))
    T = comm.ff.tree(comm.mcast_gids[0])
    edges = TreeEdges(T, np.array([T.host[h][0] for h in range(8)]), [0.0] * 8)
    fresh = _spy(monkeypatch, TreeEdges, "_tied",
                 lambda F, W: bool(np.isnan(F).any()), static=True)
    for lane, fin in ((0, 1e-6), (1, 0.5e-6), (5, 0.4e-6)):
        state, rows = edges.add(lane, [fin], [4160], [4096])
        edges.commit(state)
        assert (rows is None) == (lane != 0)
    assert edges.fresh == 2 and not fresh
    state, rows = edges.add(2, [0.5e-6 if tie else 3e-6], [164], [100])
    assert fresh == [False]  # one tie check, on served rows
    if tie:
        assert (state, rows) == (None, None)
        return
    edges.commit(state)
    assert edges.fresh == 0 and not np.isnan(edges.rows()[0]).any()
