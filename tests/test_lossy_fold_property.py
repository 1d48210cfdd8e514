"""Generated exactness of the data fold under loss.

A multicast phase folds with drop machinery armed on its tree channels
(DESIGN.md §6d): each channel takes its drop decisions in the order it
serves the packets, a packet lost on an edge is absent below it, and a rank
left with holes gets its survivors and recovers at packet level.  Against
``Fabric(reference=True)``, every generated case — topology family × kind ×
chains × transport × loss model × seed — must leave the same virtual time,
per-rank phases and counters, channel and switch counters, reliability
summary and payloads.  A forced drop on one tree channel sends exactly the
hosts below it to recovery.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.request import CollectiveRequest
from repro.net.fabric import Fabric
from repro.net.faults import GilbertElliott
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

#: the tree families of the fold's exactness matrix, at 16 hosts
FAMILIES = {
    "leaf_spine": lambda: Topology.leaf_spine(16, 4, 2),
    "fat_tree3": lambda: Topology.fat_tree3(16, 4, 4, 2),
    "torus": lambda: Topology.torus((4, 2), hosts_per_node=2),
    "dragonfly": lambda: Topology.dragonfly(4, 2, 2),
    "star": lambda: Topology.star(16),
}
LOSSES = ("bernoulli", "gilbert_elliott", "forced")
#: the gates a lossy single-chain phase can decline with
NAMED = {"lossy", "busy", "missing", "deadline"}


@st.composite
def cases(draw):
    return dict(family=draw(st.sampled_from(sorted(FAMILIES))),
                kind=draw(st.sampled_from(["broadcast", "allgather"])),
                chains=draw(st.sampled_from([1, 4])),
                transport=draw(st.sampled_from(["ud", "uc"])),
                loss=draw(st.sampled_from(LOSSES)),
                drop_good=draw(st.sampled_from([0.0, 0.002])),
                seed=draw(st.integers(0, 3)))


def _fabric(case, reference: bool) -> Fabric:
    return Fabric(Simulator(), FAMILIES[case["family"]](),
                  link_bandwidth=gbit_per_s(56),
                  streams=RandomStreams(case["seed"]), reference=reference)


def forced_channel(fabric: Fabric):
    """A tree channel host 0's packets cross downwards — a spine downlink
    where the tree has one, else the last host's edge — and the hosts
    below it."""
    comm = Communicator(fabric)
    T = comm.ff.tree(comm.mcast_gids[0])
    home = T.host[0][0]
    for c in range(1, T.S):
        below = sorted(h for h, (sw, _, _) in T.host.items() if T.anc[sw, c])
        if below and not T.anc[home, c]:
            return T.down[c], below
    h = max(T.host)
    return T.host[h][1], [h]


def _run(case, reference: bool):
    fabric = _fabric(case, reference)
    below: Optional[List[int]] = None
    if case["loss"] == "bernoulli":
        fabric.set_fault_all(lambda s, d: FaultSpec(drop_prob=0.01))
    elif case["loss"] == "gilbert_elliott":
        ge = GilbertElliott(p_good_bad=0.02, p_bad_good=0.3,
                            drop_good=case["drop_good"], drop_bad=0.2)
        fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=ge))
    else:
        ch, below = forced_channel(_fabric(case, reference))
        fabric.set_fault(ch.src_name, ch.dst_name, FaultSpec(drop_packet_seqs={0}))
    comm = Communicator(fabric, config=CollectiveConfig(
        chunk_size=1024, transport=case["transport"], n_chains=case["chains"]))
    rng = np.random.default_rng(case["seed"])
    if case["kind"] == "broadcast":
        data = rng.integers(0, 256, 8 * 1024, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        data = [rng.integers(0, 256, 2 * 1024, dtype=np.uint8)
                for _ in range(comm.size)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return comm, res, below


def _left(comm, res):
    """Everything a run leaves that the reference must match."""
    chans = {k: (c.bytes_sent, c.payload_bytes_sent, c.packets_sent,
                 c.bytes_dropped, c.packets_dropped, c._droppable_seq,
                 c._ge_bad, c.busy_until)
             for k, c in comm.fabric.channels.items()}
    switches = {n: (s.packets_forwarded, s.packets_dropped_no_route)
                for n, s in comm.fabric.switches.items()}
    # a receive worker steps only for what reaches it: its staging copies
    hosts = [(e.nic.packets_received, e.nic.bytes_received, e.dma.ops,
              e.dma.bytes_copied, e.dma.busy_until) for e in comm.engines]
    return (res.t_begin, res.t_end, [r.phases for r in res.ranks],
            [r.counters for r in res.ranks], chans, switches, hosts,
            res.traffic, res.reliability_summary(),
            [bytes(b) for b in res.buffers])


def _assert_same(a, b) -> None:
    for x, y in zip(a, b):
        assert x == y


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_lossy_fold_matches_the_reference(case) -> None:
    comm, res, below = _run(case, False)
    misses = res.engine["ff_misses"]
    if case["kind"] == "allgather" and case["chains"] > 1:
        # Concurrent chains' draws interleave in an order only a merge of
        # their packets knows: every phase declines, and the run is the
        # packet path's, which the reference runs too.
        assert res.engine["ff_phases"] == 0 and misses == {"lossy": comm.size}
        _assert_same(_left(comm, res), _left(*_run(case, True)[:2]))
    else:
        # A chain's phase folds only if the next roots' packets cannot meet
        # its own on any channel (``lossy``); until its packets are through,
        # the next phase finds the fabric ``busy``.
        assert set(misses) <= NAMED, misses
        if case["kind"] == "broadcast":
            assert res.engine["ff_phases"] == 1 and misses == {}
        else:
            assert res.engine["ff_phases"] + sum(misses.values()) == comm.size
        ref_comm, ref, _ = _run(case, True)
        _assert_same(_left(comm, res), _left(ref_comm, ref))
    if below is not None:
        recovered = [comm.host_of(r.rank) for r in res.ranks
                     if r.counters["recoveries"]]
        assert sorted(recovered) == below


def test_concurrent_chains_under_loss_match_the_reference() -> None:
    case = dict(family="dragonfly", kind="allgather", chains=4, transport="ud",
                loss="gilbert_elliott", drop_good=0.0, seed=1)
    comm, res, _ = _run(case, False)
    ref_comm, ref, _ = _run(case, True)
    _assert_same(_left(comm, res), _left(ref_comm, ref))


@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("t_submit", [2e-5, 5e-5])
def test_a_broadcast_admitted_into_a_lossy_session(t_submit, transport) -> None:
    # A broadcast submitted mid-allgather preempts the lossy session: the
    # flush commits the folded phases' draws with their watermarks, and the
    # run equals the reference's.
    ge = GilbertElliott(p_good_bad=0.05, p_bad_good=0.3, drop_good=0.01,
                        drop_bad=0.3)

    def run(reference: bool):
        fabric = Fabric(Simulator(), Topology.leaf_spine(16, 4, 2),
                        link_bandwidth=gbit_per_s(56), streams=RandomStreams(7),
                        reference=reference)
        fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=ge))
        comm = Communicator(fabric, config=CollectiveConfig(
            chunk_size=512, transport=transport))
        data = [np.full(512, (3 * r + 1) % 251, dtype=np.uint8)
                for r in range(16)]
        later = []
        first = comm.submit(CollectiveRequest(kind="allgather", data=data))
        comm.sim.post_at(t_submit, lambda: later.append(comm.submit(CollectiveRequest(
            kind="broadcast", data=np.full(4096, 99, dtype=np.uint8), root=0))))
        comm.run(first)
        comm.run(later[0])
        chans = {k: (c.packets_sent, c.packets_dropped, c._droppable_seq,
                     c._ge_bad, c.busy_until)
                 for k, c in comm.fabric.channels.items()}
        return (comm.sim.now, [bytes(op.mr.buf) for op in first.ops],
                [op.phases for op in first.ops + later[0].ops],
                [op.stats for op in first.ops + later[0].ops],
                chans), comm.ff

    folded, ff = run(False)
    packets, _ = run(True)
    assert ff.ff_phases > 0 and ff.comm.fabric.fold_misses["data"].get("preempted") == 1
    _assert_same(folded, packets)


@pytest.mark.parametrize("lost,rounds", [({0, 2}, 1), ({0, 28}, 2)])
def test_a_folded_owner_shows_its_chunks_as_they_land(lost, rounds) -> None:
    # h3 loses the first chunk of rank 0's block and of rank 1's (datagrams
    # 0 and 2 on its link) or of rank 15's (datagram 28), and its tail
    # trigger has it read rank 0's placed chunks a few µs after the last
    # phase — while h0's link, at 1/16 of the bandwidth, still lands that
    # phase.  The folded lanes show each chunk as placed when it lands, as
    # the packet path does: rank 0 has rank 1's chunk (one fetch round),
    # not yet rank 15's (a second round, from rank 15).
    def run(reference: bool):
        fabric = Fabric(Simulator(), Topology.leaf_spine(16, 4, 2),
                        link_bandwidth=gbit_per_s(56), streams=RandomStreams(1),
                        reference=reference)
        comm = Communicator(fabric, config=CollectiveConfig(chunk_size=1024))
        fabric.set_fault("leaf000", "h3", FaultSpec(drop_packet_seqs=lost))
        fabric.channel("leaf000", "h0").bandwidth /= 16
        data = [np.full(2048, r + 1, dtype=np.uint8) for r in range(16)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
        return comm, res

    comm, res = run(False)
    ref_comm, ref = run(True)
    assert res.engine["ff_phases"] == 16 and res.engine["ff_misses"] == {}
    summary = res.reliability_summary()
    assert summary["recovery_triggers"] == {"tail": 1, "cutoff": 0}
    assert summary["fetch_rounds"] == rounds
    _assert_same(_left(comm, res), _left(ref_comm, ref))
