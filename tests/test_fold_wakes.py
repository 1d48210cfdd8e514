"""What a folded rank costs in events, and the waits it does not wake for.

A folded collective wakes each rank only where it acts (DESIGN.md §6i):
its run_op kickoff; its barrier exit only if it multicasts then; its
activation, served in the event that delivers it; its send's end; its
data, completed in the fold's own event; its handshake's end, which also
completes its op.  The daemons start parked and a run_op nobody joins ends
without an event.  The event counts are pinned here; the waits a rank
skips must still be interruptible, leaving what the reference engine
leaves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.progress import RankEngine
from repro.core.request import CollectiveRequest
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.events import Timeout
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s, kib

#: cutoff pinned, as the ledger's ``ag1024``: no stale timer fires in-run
_PINNED = dict(adaptive_cutoff=False, cutoff_alpha=10e-3)


def _comm(n_hosts, reference=False, **config):
    leaves, spines = (8, 4) if n_hosts == 64 else (4, 2)
    fabric = Fabric(Simulator(), Topology.leaf_spine(n_hosts, leaves, spines),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=1),
                    reference=reference)
    return Communicator(fabric, config=CollectiveConfig(
        transport="uc", chunk_size=1024, **config))


@pytest.mark.parametrize("kind,events", [("allgather", 321), ("broadcast", 195)])
def test_a_folded_collective_costs_a_constant_few_events_per_rank(kind, events):
    comm = _comm(64, **_PINNED)
    data = np.arange(kib(64), dtype=np.uint8)
    if kind == "allgather":
        res = comm.allgather([data[:1024] + r for r in range(64)])
        assert res.verify_allgather([data[:1024] + r for r in range(64)])
    else:
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    eng = res.engine
    assert eng["ff_misses"] == {} and eng["ctrl_fold_misses"] == {}
    assert eng["sim_events"] == events <= 6 * 64


def _left_behind(comm, handles):
    """Everything the collectives decide or count, rank by rank."""
    fabric = comm.fabric
    return {
        "phases": [[op.phases for op in h.ops] for h in handles],
        "timers": [[op.armed_timeout for op in h.ops] for h in handles],
        "channels": {key: (ch.bytes_sent, ch.packets_sent, ch.busy_until)
                     for key, ch in fabric.channels.items()},
        "forwarded": {name: sw.packets_forwarded
                      for name, sw in fabric.switches.items()},
        "nics": [(nic.packets_received, nic.bytes_received)
                 for nic in fabric.nics.values()],
        "messages": [(e.ctrl.messages_sent, e.ctrl.messages_received,
                      e.ctrl.last_heard) for e in comm.engines],
    }


def _interrupted(reference, first, at, act):
    """A 16-rank *first* collective; *at* seconds in, ``act(comm, handles)``;
    on the reference engine or the production one."""
    comm = _comm(16, reference)
    data = np.arange(kib(4), dtype=np.uint8)
    shards = [data[:1024] + r for r in range(16)]
    handles = []

    def driver():
        handles.append(comm.submit(
            CollectiveRequest(kind="allgather", data=shards) if first == "allgather"
            else CollectiveRequest(kind="broadcast", data=data, root=0)))
        yield Timeout(comm.sim, at)
        act(comm, handles, data)

    comm.sim.drain([comm.sim.spawn(driver())])
    comm.run(*handles)
    return comm, _left_behind(comm, handles)


def _admit(comm, handles, data):
    handles.append(comm.submit(CollectiveRequest(kind="broadcast", data=data, root=3)))


def _new_epoch(comm, handles, data):
    comm.fabric.set_fault("h0", "leaf000", None)  # changes nothing but the epoch


def _assert_as_reference(first, at, act):
    """What the production run leaves equals what the reference's leaves."""
    comm, got = _interrupted(False, first, at, act)
    _, want = _interrupted(True, first, at, act)
    for key in want:
        assert got[key] == want[key], (at, key)
    return comm


# The 16-rank allgather's chain runs from about 17.7 to 71.5 µs.
_MID_CHAIN = [18e-6 + k * 2.7e-6 for k in range(20)]


@pytest.mark.parametrize("act", [_admit, _new_epoch], ids=["admitted", "new_epoch"])
def test_a_chain_interrupted_mid_way_leaves_what_the_packet_path_leaves(act):
    handed_back = 0
    for at in _MID_CHAIN:
        comm = _assert_as_reference("allgather", at, act)
        handed_back += comm.fabric.fold_misses["control"].get("preempted", 0)
    assert handed_back >= len(_MID_CHAIN)  # each one took the chain back


@pytest.mark.parametrize("first", ["broadcast", "allgather"])
def test_an_unfold_before_a_stamped_barrier_exit_rearms_there(first, monkeypatch):
    # Every rank but the first one to multicast waits past the folded
    # barrier without waking at its exit (15 to 17 µs in); an admission
    # before then takes the barrier back, and each of those ranks arms its
    # cutoff again at the packet-level exit.
    arms = []
    real = RankEngine._arm
    monkeypatch.setattr(RankEngine, "_arm", lambda self, op, t: (
        arms.append(op.rank), real(self, op, t))[1])
    for at in [k * 1.4e-6 for k in range(1, 11)]:
        arms.clear()
        _interrupted(False, first, at, _admit)
        # the first collective's 15 stamped ranks arm twice
        assert len(arms) == 16 + 15 + 16, at
        _assert_as_reference(first, at, _admit)
        # ... where the reference engine's packet barrier exits and arms
        arms_at = [[(phases["sync"], timeout) for phases, timeout in zip(
            left["phases"][0], left["timers"][0])] for _, left in (
                _interrupted(oracle, first, at, _admit) for oracle in (None, "reference"))]
        assert arms_at[0] == arms_at[1], at


def test_data_completed_before_a_stamped_barrier_exit_waits_for_the_exit():
    # A slow uplink from h1 delays its own barrier exit past the instant
    # the folded broadcast completes its data: the rank, woken by its data,
    # sleeps on to the exit it skipped, as the packet path's rank finds its
    # data already there when it leaves the barrier.
    def run(reference):
        fabric = Fabric(Simulator(), Topology.leaf_spine(6, 2, 2),
                        link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=1),
                        reference=reference)
        fabric.channel("h1", "leaf000").latency = 2e-6
        comm = Communicator(fabric, config=CollectiveConfig(transport="uc"))
        data = np.arange(kib(1), dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
        return res
    res, ref = run(False), run(True)
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]
    assert res.ranks[1].phases["data"] == res.ranks[1].phases["sync"]
    assert res.engine["ctrl_folds"] == 2 and res.engine["ff_phases"] == 1
