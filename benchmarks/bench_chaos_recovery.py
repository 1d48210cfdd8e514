"""Chaos recovery sweep — reliability slow path under fault severity × size.

Sweeps Gilbert–Elliott burst-loss severity against message size for both
Broadcast and Allgather on an 8-host leaf-spine, recording completion
time, recovery invocations, recovered chunks and fetch rounds, plus a
mid-collective link flap column at the highest severity.

A second table compares the adaptive cutoff estimator against the paper's
static α on identical fault schedules (same seeds): after clean warmups
the adaptive timer arms a tighter cutoff, enters recovery sooner, and
completes lossy collectives faster.  A receiver whose last chunk arrives
starts recovery at once (the tail trigger, DESIGN.md §7), so the schedule
also drops the last chunk on one host's link: that rank waits for its
cutoff, which is what the table compares.  A third table runs four
back-to-back lossy allgathers on one communicator with no warm-up: nearly
every recovery there is a real loss (most of them lost tails), which must
not back the adaptive timer off.

Shape criteria: every cell completes with verified payload (the harness
asserts data integrity, not just termination); recovery counters grow
monotonically with severity; the adaptive column never loses to static.
"""

import numpy as np

from repro.bench import format_table, report
from repro.core.communicator import CollectiveConfig, Communicator
from repro.net import Fabric, GilbertElliott, Topology
from repro.net.link import FaultSpec
from repro.sim import RandomStreams, Simulator
from repro.units import KiB, gbit_per_s, pretty_bytes

N_HOSTS = 8
SIZES = (64 * KiB, 256 * KiB)

#: (label, Gilbert–Elliott spec or None, add mid-collective flap)
SEVERITIES = (
    ("clean", None, False),
    ("2% burst", GilbertElliott(p_good_bad=0.004, p_bad_good=0.2, drop_bad=1.0), False),
    ("5% burst", GilbertElliott(p_good_bad=0.0105, p_bad_good=0.2, drop_bad=1.0), False),
    ("10% burst", GilbertElliott(p_good_bad=0.022, p_bad_good=0.2, drop_bad=1.0), False),
    ("5% + flap", GilbertElliott(p_good_bad=0.0105, p_bad_good=0.2, drop_bad=1.0), True),
)


def make_comm(config=None, seed=0):
    fabric = Fabric(
        Simulator(),
        Topology.leaf_spine(N_HOSTS, n_leaf=2, n_spine=2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed=seed),
    )
    return Communicator(fabric, config=config)


def install_chaos(fabric, ge, flap, lose_tail=None):
    """*ge* burst loss on every link, and on the links into ``h5`` a flap
    (*flap*) or the drops of the predicate *lose_tail*."""
    def factory(src, dst):
        if ge is None and not flap:
            return None
        windows = [(15e-6, 45e-6)] if (flap and dst == "h5") else []
        return FaultSpec(gilbert_elliott=ge, flap_windows=windows,
                         drop_predicate=lose_tail if dst == "h5" else None)

    fabric.set_fault_all(factory)


def run_cell(kind, nbytes, ge, flap, seed):
    comm = make_comm(seed=seed)
    install_chaos(comm.fabric, ge, flap)
    if kind == "broadcast":
        data = np.random.default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8)
        result = comm.broadcast(0, data)
        assert result.verify_broadcast(data)
    else:
        shard = nbytes // N_HOSTS
        data = [np.full(shard, r % 251, dtype=np.uint8) for r in range(N_HOSTS)]
        result = comm.allgather(data)
        assert result.verify_allgather(data)
    return result


def sweep_rows():
    rows = []
    by_sev = {}
    for kind in ("broadcast", "allgather"):
        for nbytes in SIZES:
            for label, ge, flap in SEVERITIES:
                result = run_cell(kind, nbytes, ge, flap, seed=7)
                s = result.reliability_summary()
                by_sev.setdefault((kind, nbytes), []).append((label, s))
                rows.append(
                    (
                        kind,
                        pretty_bytes(nbytes),
                        label,
                        f"{result.duration * 1e6:.1f}",
                        result.traffic["fabric_drops"],
                        s["recoveries"],
                        s["recovered_chunks"],
                        s["fetch_rounds"],
                        s["neighbor_escalations"],
                    )
                )
    return rows, by_sev


def adaptive_rows():
    """Adaptive vs static cutoff on identical fault schedules."""
    rows = []
    wins = []
    ge = GilbertElliott(p_good_bad=0.0105, p_bad_good=0.2, drop_bad=1.0)
    for nbytes in SIZES:
        durations = {}
        for adaptive in (False, True):
            cfg = CollectiveConfig(adaptive_cutoff=adaptive)
            comm = make_comm(config=cfg, seed=11)
            data = np.random.default_rng(3).integers(0, 256, nbytes, dtype=np.uint8)
            for _ in range(2):  # clean warmups train (or no-op for static)
                assert comm.broadcast(0, data).verify_broadcast(data)
            last = nbytes // cfg.chunk_size - 1  # h5 loses the tail

            def tail(packet, _seq, comm=comm, last=last):
                return (packet.imm is not None
                        and comm.imm.decode(packet.imm)[0] == last)

            install_chaos(comm.fabric, ge, flap=False, lose_tail=tail)
            result = comm.broadcast(0, data)
            assert result.verify_broadcast(data)
            durations[adaptive] = result.duration
        speedup = durations[False] / durations[True]
        wins.append(speedup)
        rows.append(
            (
                pretty_bytes(nbytes),
                f"{durations[False] * 1e6:.1f}",
                f"{durations[True] * 1e6:.1f}",
                f"{speedup:.2f}x",
            )
        )
    return rows, wins


def back_to_back_rows(n_ops=4):
    """Adaptive vs static cutoff over *n_ops* back-to-back allgathers on
    one communicator under 5 % burst loss, with no warm-up: the total
    time of each, per message size."""
    rows = []
    wins = []
    ge = GilbertElliott(p_good_bad=0.0105, p_bad_good=0.2, drop_bad=1.0)
    for nbytes in SIZES:
        shard = nbytes // N_HOSTS
        data = [np.full(shard, r % 251, dtype=np.uint8) for r in range(N_HOSTS)]
        totals = {}
        for adaptive in (False, True):
            comm = make_comm(config=CollectiveConfig(adaptive_cutoff=adaptive), seed=11)
            install_chaos(comm.fabric, ge, flap=False)
            totals[adaptive] = 0.0
            for _ in range(n_ops):
                result = comm.allgather(data)
                assert result.verify_allgather(data)
                totals[adaptive] += result.duration
        speedup = totals[False] / totals[True]
        wins.append(speedup)
        rows.append(
            (
                pretty_bytes(nbytes),
                f"{totals[False] * 1e6:.1f}",
                f"{totals[True] * 1e6:.1f}",
                f"{speedup:.2f}x",
            )
        )
    return rows, wins


def run_chaos_sweep():
    return sweep_rows(), adaptive_rows(), back_to_back_rows()


def test_chaos_recovery_sweep(benchmark):
    (rows, by_sev), (a_rows, wins), (b_rows, b_wins) = benchmark.pedantic(
        run_chaos_sweep, rounds=1, iterations=1
    )
    report(
        "chaos_recovery",
        "Recovery under fault severity x message size (8-host leaf-spine)\n"
        + format_table(
            ["collective", "msg", "severity", "time us", "drops",
             "recoveries", "recovered", "fetch rounds", "escalations"],
            rows,
        )
        + "\n\nAdaptive vs static cutoff (identical fault schedule, "
        "2 clean warmups, 5% burst loss, h5 loses the last chunk)\n"
        + format_table(
            ["msg", "static us", "adaptive us", "speedup"], a_rows
        )
        + "\n\nAdaptive vs static cutoff, 4 back-to-back allgathers on one "
        "communicator (identical fault schedule, no warmup, 5% burst loss, "
        "total time)\n"
        + format_table(
            ["msg", "static us", "adaptive us", "speedup"], b_rows
        ),
    )
    # Clean cells never enter recovery; lossy cells always complete.
    for (kind, nbytes), cells in by_sev.items():
        clean = dict(cells)["clean"]
        assert clean["recoveries"] == 0, f"clean run recovered: {kind} {nbytes}"
        worst = dict(cells)["10% burst"]
        assert worst["recovered_chunks"] >= clean["recovered_chunks"]
    # The adaptive cutoff never loses to the static α under loss.
    for speedup in wins + b_wins:
        assert speedup >= 1.0, f"adaptive slower than static: {speedup:.2f}x"
