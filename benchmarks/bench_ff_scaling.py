"""Fig. 16-style host-count scaling of the flow-level fast-forward engine.

Sweeps the multicast broadcast across host counts and simulation engines:

* ``pkt``    — the reference engine: ``Fabric(reference=True)``, so every
  wire packet and every receive CQE is a simulated event.
* ``train``  — the production engine without the fold
  (``fast_forward='off'``): clean runs ride packet trains, look-ahead
  delivery and CQE batches.
* ``exact``  — the production engine with the flow-level fast-forward,
  bit-identical virtual time to ``pkt`` (the fold replays the per-packet
  arithmetic).

The committed ``ff_scaling.txt`` predates the one engine switch: its
``pkt`` column ran with CQE batching on (only trains off), so its events
and walls are not the reference engine's.  Virtual times are unaffected.

Every broadcast folds as a single phase (``staging_slots`` is sized to
the chunk count so the receive queue covers the whole payload), so the
wall-clock ratio ``pkt / exact`` measures exactly what the engine
replaces: O(packets) event simulation with O(links) arithmetic.

Entry modes:

* ``--smoke`` — the CI ``scaling-smoke`` job: folded broadcast +
  allgather at 1024 AND 4096 hosts, a 1024-host allgather of four chunks
  per rank that must stay within 4x the wall of the one-chunk row, a
  1024-host composed INC allreduce that must fold both phases, an
  ag4096/ag1024 wall-clock scaling-ratio gate, a hard wall-clock budget, a peak-RSS budget for
  the whole process, and ``ff_phases`` / ``ctrl_folds`` / ``ctrl_pairs``
  assertions that fail loudly if the data fold or the control-plane fold
  (barrier, handshake and an allgather's activations, DESIGN.md §6i)
  silently disengages.  The result table is
  persisted to ``benchmarks/results/ff_scaling_smoke.txt`` (commit and
  command in its header) for artifact upload.
* default — the full sweep (minutes: the ``pkt`` column at 2048 hosts
  is the cost being amortized), persisted to
  ``benchmarks/results/ff_scaling.txt``; source of the EXPERIMENTS.md
  table.

Virtual time is printed for every cell: ``pkt``/``exact`` agreement is
the exactness contract, checked here on every run.
"""

from __future__ import annotations

import argparse
import gc
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import CollectiveConfig, Communicator
from repro.units import KiB, MiB

#: engine mode -> (fast_forward knob, reference engine)
MODES = {
    "pkt": ("off", True),
    "train": ("off", False),
    "exact": ("exact", False),
}

BCAST_PAYLOAD = 4 * MiB
CHUNK = 4096
AG_PER_RANK = KiB
#: float32 elements per allreduce shard (128 B: 128 KiB contributed per rank)
AR_SHARD_ELEMS = 32
#: peak resident set the whole ``--smoke`` process may reach (MiB)
SMOKE_RSS_BUDGET_MIB = 1024


def run_broadcast(n_hosts: int, mode: str,
                  payload: int = BCAST_PAYLOAD) -> Dict[str, object]:
    ff, reference = MODES[mode]
    t_setup = time.perf_counter()
    fabric = make_fabric(n_hosts, mtu=CHUNK, reference=reference)
    cfg = CollectiveConfig(
        chunk_size=CHUNK,
        transport="uc",
        fast_forward=ff,
        # Cover the whole payload with posted recv WRs so the phase is
        # fold-eligible end to end (the no-RNR gate needs the posted
        # depth to absorb every chunk of a folded phase).
        staging_slots=payload // CHUNK,
    )
    comm = Communicator(fabric, config=cfg)
    setup = time.perf_counter() - t_setup
    # Warm-up: establishes the lazily-built control-plane QP mesh so the
    # timed section measures the data path, not one-time setup.
    comm.broadcast(0, np.zeros(64 * KiB, dtype=np.uint8))
    data = np.arange(payload, dtype=np.uint8) % 251
    t0 = time.perf_counter()
    res = comm.broadcast(0, data)
    wall = time.perf_counter() - t0
    assert res.verify_broadcast(data), "broadcast payload corrupted"
    return {
        "setup_s": setup,
        "wall_s": wall,
        "events": res.engine["sim_events"],
        "virtual_s": res.duration,
        "ff_phases": res.engine.get("ff_phases", 0),
        "ctrl_folds": res.engine.get("ctrl_folds", 0),
        "ctrl_pairs": res.engine.get("ctrl_pairs", 0),
    }


def run_allgather(n_ranks: int, mode: str,
                  per_rank: int = AG_PER_RANK,
                  cutoff_alpha: float = 10e-3,
                  chunk: Optional[int] = None) -> Dict[str, object]:
    ff, reference = MODES[mode]
    t_setup = time.perf_counter()
    fabric = make_fabric(n_ranks, mtu=4096, reference=reference)
    cfg = CollectiveConfig(
        chunk_size=chunk or per_rank,
        transport="uc",
        fast_forward=ff,
        # The chain-serialized allgather is activation-latency bound; the
        # adaptive cutoff's bandwidth-based deadline under-estimates it
        # at this scale, so pin a static slack that covers the chain.
        # (4096-rank chains run ~13 ms of virtual time, so their callers
        # pass a wider slack than the 10 ms default here.)
        adaptive_cutoff=False,
        cutoff_alpha=cutoff_alpha,
    )
    comm = Communicator(fabric, config=cfg)
    setup = time.perf_counter() - t_setup
    datas = [np.full(per_rank, r % 251, dtype=np.uint8) for r in range(n_ranks)]
    t0 = time.perf_counter()
    res = comm.allgather(datas)
    wall = time.perf_counter() - t0
    assert res.verify_allgather(datas), "allgather payload corrupted"
    return {
        "setup_s": setup,
        "wall_s": wall,
        "events": res.engine["sim_events"],
        "virtual_s": res.duration,
        "ff_phases": res.engine.get("ff_phases", 0),
        "ctrl_folds": res.engine.get("ctrl_folds", 0),
        "ctrl_pairs": res.engine.get("ctrl_pairs", 0),
    }


def run_allreduce(n_ranks: int, shard_elems: int = AR_SHARD_ELEMS,
                  cutoff_alpha: float = 100e-3) -> Dict[str, object]:
    """Composed INC allreduce on the production path: the reduce-scatter
    pass folds (DESIGN.md §6j) and so do the allgather phases (the exact
    fold), with the allgather rows' static cutoff."""
    t_setup = time.perf_counter()
    fabric = make_fabric(n_ranks, mtu=4096)
    cfg = CollectiveConfig(chunk_size=shard_elems * 4, transport="uc",
                           fast_forward="exact", adaptive_cutoff=False,
                           cutoff_alpha=cutoff_alpha)
    comm = Communicator(fabric, config=cfg)
    setup = time.perf_counter() - t_setup
    # Small integers: every float32 partial sum is exact, in any order.
    base = (np.arange(n_ranks * shard_elems, dtype=np.float32) % 251)
    datas = [base + (r % 7) for r in range(n_ranks)]
    t0 = time.perf_counter()
    res = comm.allreduce(datas, algorithm="inc")
    wall = time.perf_counter() - t0
    assert res.verify_allreduce(datas), "allreduce payload corrupted"
    return {
        "setup_s": setup,
        "wall_s": wall,
        "events": res.engine["sim_events"],
        "virtual_s": res.duration,
        "ff_phases": res.engine.get("ff_phases", 0),
        "ctrl_folds": res.engine.get("ctrl_folds", 0),
        "ctrl_pairs": res.engine.get("ctrl_pairs", 0),
        "inc_folds": res.engine.get("inc_folds", 0),
    }


def _rows(kind: str, sizes: List[int], modes: List[str],
          runner) -> List[List[str]]:
    rows = []
    for n in sizes:
        base_wall: Optional[float] = None
        virts = {}
        for mode in modes:
            r = runner(n, mode)
            virts[mode] = r["virtual_s"]
            if mode == "pkt":
                base_wall = r["wall_s"]
            speedup = (f"{base_wall / r['wall_s']:.1f}x"
                       if base_wall and mode != "pkt" else "-")
            rows.append([kind, str(n), mode, f"{r['wall_s']:.2f}",
                         f"{r['events']:,}", f"{r['virtual_s'] * 1e6:.3f}",
                         str(r["ff_phases"]), speedup])
            print(f"  {kind} n={n} {mode}: wall={r['wall_s']:.2f}s "
                  f"events={r['events']:,} virt={r['virtual_s'] * 1e6:.3f}us "
                  f"ff_phases={r['ff_phases']}", flush=True)
        # Exactness contract: pkt and exact must agree bitwise.
        if "pkt" in virts and "exact" in virts:
            assert virts["exact"] == virts["pkt"], (
                f"{kind} n={n}: exact diverged from packet-level "
                f"({virts['exact']} != {virts['pkt']})")
    return rows


HEADERS = ["collective", "hosts", "engine", "wall_s", "events",
           "virtual_us", "ff_phases", "speedup_vs_pkt"]
#: the smoke table: bring-up (fabric + communicator build, outside the
#: timed call) in its own column instead of hidden in ``total``
SMOKE_HEADERS = (HEADERS[:3] + ["setup_s"] + HEADERS[3:7] + ["ctrl_pairs"]
                 + HEADERS[7:])


def full_sweep(bcast_hosts: List[int], ag_hosts: List[int]) -> int:
    rows = _rows("broadcast", bcast_hosts,
                 ["pkt", "train", "exact"], run_broadcast)
    rows += _rows("allgather", ag_hosts,
                  ["pkt", "exact"], run_allgather)
    report("ff_scaling", format_table(HEADERS, rows))
    return 0


def smoke(budget_s: float) -> int:
    """CI scaling-smoke: folded broadcast + allgather at 1024 AND 4096
    hosts, a four-chunk-per-rank 1024-host allgather, a folded 1024-host
    allreduce, a wall-clock budget, and fold-engagement assertions.

    The 4096-host rows are the headline: the allgather chain is O(P) folds, so quadrupling the rank count must
    cost far less than the 16x a quadratic engine would pay.  Both
    allgather rows carry the same per-rank payload and cutoff so the
    ratio isolates scaling, not configuration.
    The 4096-host rows run at the 1024-row payload sizes: a folded phase
    records where each receiver's bytes come from instead of copying
    them (DESIGN.md §6h), so the 4096-rank x 1 KiB allgather holds one
    4 MiB gather image, not 4096 receive buffers of 4 MiB (16 GiB).  The
    4096-host broadcast runs 4 MiB: a rank's receive ring is one cached
    WR posted ``staging_slots`` times (DESIGN.md §6g), where 4096 x 1024
    receive WR objects used to stand in front of the run.  The
    process-wide RSS budget is asserted at the end.
    """
    t0 = time.perf_counter()
    rows = []
    failures = []

    def row(kind, n, r, note="-"):
        rows.append([kind, str(n), "exact", f"{r['setup_s']:.2f}",
                     f"{r['wall_s']:.2f}",
                     f"{r['events']:,}", f"{r['virtual_s'] * 1e6:.3f}",
                     str(r["ff_phases"]), str(r["ctrl_pairs"]), note])
        print(f"  smoke {kind} n={n} ({note}): setup={r['setup_s']:.2f}s "
              f"wall={r['wall_s']:.2f}s ff_phases={r['ff_phases']} "
              f"ctrl_folds={r['ctrl_folds']} ctrl_pairs={r['ctrl_pairs']}",
              flush=True)
        # barrier + handshake, and an allgather chain's activations
        expected = 2 if kind == "broadcast" else 3
        if r["ctrl_folds"] != expected or r["ctrl_pairs"]:
            failures.append(
                f"{kind} n={n}: control-plane fold disengaged "
                f"(ctrl_folds={r['ctrl_folds']}, expected {expected}; "
                f"ctrl_pairs={r['ctrl_pairs']}, expected 0) — control ran "
                "at packet level")
        # A finished row's fabric and communicator reference each other;
        # free them now so the RSS budget measures one row, not the sum.
        gc.collect()

    b = run_broadcast(1024, "exact")
    row("broadcast", 1024, b)
    if b["ff_phases"] != 1:
        failures.append(
            f"broadcast fold disengaged (ff_phases={b['ff_phases']}, "
            "expected 1) — the run fell back to packet level")

    # 100 ms static cutoff on both allgather rows: a 4096-rank chain runs
    # ~13 ms of virtual time, past the 10 ms default slack.
    a = run_allgather(1024, "exact", cutoff_alpha=100e-3)
    row("allgather", 1024, a)
    if a["ff_phases"] != 1024:
        failures.append(
            f"allgather folded {a['ff_phases']}/1024 phases — "
            "eligibility gates are rejecting clean phases")

    # Four 1 KiB chunks per rank: the same session folds a multi-chunk
    # phase, so it costs the same O(P) events and a small constant factor
    # more wall, not one event per receiver per phase.
    a4 = run_allgather(1024, "exact", per_rank=4 * KiB, chunk=KiB,
                       cutoff_alpha=100e-3)
    row("allgather", 1024, a4, note="4x1KiB")
    if a4["ff_phases"] != 1024:
        failures.append(
            f"4-chunk allgather folded {a4['ff_phases']}/1024 phases")
    if a4["wall_s"] > 4.0 * a["wall_s"]:
        failures.append(
            f"4-chunk allgather wall {a4['wall_s']:.2f}s > 4x the 1-chunk "
            f"row's {a['wall_s']:.2f}s — multi-chunk phases left the session")

    # Composed allreduce: the INC reduce-scatter pass and all 1024
    # allgather phases fold.
    ar = run_allreduce(1024)
    row("allreduce", 1024, ar, note=f"inc_folds={ar['inc_folds']}")
    if ar["inc_folds"] != 1 or ar["ff_phases"] != 1024:
        failures.append(
            f"allreduce n=1024 did not fold both phases (inc_folds="
            f"{ar['inc_folds']}, expected 1; ff_phases={ar['ff_phases']}, "
            "expected 1024)")

    # --- 4096-host rows ----------------------------------------------------
    b4 = run_broadcast(4096, "exact", payload=4 * MiB)
    row("broadcast", 4096, b4, note="4MiB")
    if b4["ff_phases"] != 1:
        failures.append(
            f"4096-host broadcast fold disengaged "
            f"(ff_phases={b4['ff_phases']}, expected 1)")

    a4 = run_allgather(4096, "exact", cutoff_alpha=100e-3)
    row("allgather", 4096, a4)
    if a4["ff_phases"] != 4096:
        failures.append(
            f"4096-rank allgather folded {a4['ff_phases']}/4096 phases — "
            "the chain fell back to packet level partway")
    ratio = a4["wall_s"] / max(a["wall_s"], 1e-9)
    rows.append(["ag4096/ag1024", "-", "-", "-", f"{ratio:.2f}x",
                 "-", "-", "-", "-", "wall ratio"])
    print(f"  smoke ag4096/ag1024 wall ratio: {ratio:.2f}x "
          "(a quadratic engine would pay 16x)", flush=True)
    if ratio >= 16.0:
        failures.append(
            f"allgather scaling regressed: 4096/1024 wall ratio "
            f"{ratio:.2f}x >= 16x — the chain is quadratic again")

    wall = time.perf_counter() - t0
    rows.append(["total", "-", "-", "-", f"{wall:.2f}", "-", "-", "-", "-", "-"])
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows.append(["peak_rss", "-", "-", "-", "-", "-", "-", "-", "-",
                 f"{rss_mib:.0f} MiB"])
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], capture_output=True,
        text=True).stdout.strip() or "unknown"
    report("ff_scaling_smoke",
           f"# commit {commit}\n# command: PYTHONPATH=src python "
           f"benchmarks/bench_ff_scaling.py --smoke\n"
           + format_table(SMOKE_HEADERS, rows))
    if rss_mib > SMOKE_RSS_BUDGET_MIB:
        failures.append(
            f"scaling smoke blew its memory budget: peak RSS "
            f"{rss_mib:.0f} MiB > {SMOKE_RSS_BUDGET_MIB} MiB — receive "
            "payloads are being materialised again")
    if wall > budget_s:
        failures.append(
            f"scaling smoke blew its wall-clock budget: {wall:.1f}s > "
            f"{budget_s:.0f}s")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"scaling smoke OK in {wall:.1f}s (budget {budget_s:.0f}s), "
              f"peak RSS {rss_mib:.0f} MiB (budget {SMOKE_RSS_BUDGET_MIB} MiB)")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI mode: folded 1024/4096-host broadcast + "
                         "allgather under a wall-clock budget")
    ap.add_argument("--budget", type=float, default=300.0,
                    help="smoke wall-clock budget in seconds (default 300)")
    ap.add_argument("--hosts", type=str, default="188,512,1024,2048",
                    help="broadcast sweep host counts (full mode)")
    ap.add_argument("--ag-hosts", type=str, default="1024",
                    help="allgather sweep rank counts (full mode)")
    args = ap.parse_args()
    if args.smoke:
        return smoke(args.budget)
    bcast_hosts = [int(x) for x in args.hosts.split(",") if x]
    ag_hosts = [int(x) for x in args.ag_hosts.split(",") if x]
    return full_sweep(bcast_hosts, ag_hosts)


if __name__ == "__main__":
    raise SystemExit(main())
