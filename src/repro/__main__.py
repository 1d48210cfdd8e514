"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``
    The quickstart scenario: Broadcast + Allgather on a 16-host fat-tree,
    verified, with timing and telemetry.
``experiments``
    List every paper table/figure and the benchmark that regenerates it.
``speedup [P ...]``
    Appendix B's concurrent {Allgather, Reduce-Scatter} speedup at the
    given communicator sizes (default 4 8 16).
``table1``
    The DPA single-thread metrics of Table I.
``trace [--out F] [--hosts N] [--bytes B] [--lossy] [--seed S]``
    Run a traced broadcast and write a Chrome/Perfetto trace-event JSON
    (open it at chrome://tracing or https://ui.perfetto.dev).
``tune [--collective C] [--hosts N] [--bytes B] [...] | --list | --show REF``
    Run (or recall from the profile store) a cost-model-guided knob
    search for one deployment point; inspect stored profiles.
"""

from __future__ import annotations

import sys

import numpy as np


def _demo() -> int:
    from repro import Communicator, Fabric, Simulator, Topology
    from repro.units import KiB, gbit_per_s, pretty_rate

    fabric = Fabric(Simulator(), Topology.leaf_spine(16, 4, 2),
                    link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric)
    data = [np.full(64 * KiB, r % 251, dtype=np.uint8) for r in range(comm.size)]
    res = comm.allgather(data)
    ok = res.verify_allgather(data)
    print(f"allgather x{comm.size} of 64 KiB: {res.duration * 1e6:.1f} µs, "
          f"{pretty_rate(res.throughput)}, data {'OK' if ok else 'CORRUPT'}")
    return 0 if ok else 1


def _experiments() -> int:
    rows = [
        ("Table I", "benchmarks/bench_table1_dpa_single_thread.py"),
        ("Figure 2", "benchmarks/bench_fig02_traffic_model.py"),
        ("Figure 3", "benchmarks/bench_fig03_node_boundary.py"),
        ("Figure 5", "benchmarks/bench_fig05_cpu_vs_dpa.py"),
        ("Figure 7", "benchmarks/bench_fig07_bitmap_memory.py"),
        ("Figure 10", "benchmarks/bench_fig10_critical_path.py"),
        ("Figure 11", "benchmarks/bench_fig11_throughput_188.py"),
        ("Figure 12", "benchmarks/bench_fig12_traffic_savings.py"),
        ("Figure 13", "benchmarks/bench_fig13_dpa_thread_scaling.py"),
        ("Figure 14", "benchmarks/bench_fig14_dpa_msg_scaling.py"),
        ("Figure 15", "benchmarks/bench_fig15_uc_chunk_size.py"),
        ("Figure 16", "benchmarks/bench_fig16_tbit_scaling.py"),
        ("Appendix B", "benchmarks/bench_appb_speedup.py"),
        ("Ablation: chains", "benchmarks/bench_ablation_chains.py"),
        ("Ablation: workers", "benchmarks/bench_ablation_workers.py"),
    ]
    width = max(len(a) for a, _ in rows)
    for name, path in rows:
        print(f"{name.ljust(width)}  pytest {path} --benchmark-only")
    return 0


def _speedup(args: list) -> int:
    from repro.bench import make_fabric
    from repro.core.communicator import CollectiveConfig
    from repro.models import concurrent_speedup
    from repro.units import KiB
    from repro.workloads import run_concurrent_pair

    sizes = [int(a) for a in args] or [4, 8, 16]
    for p in sizes:
        ring = run_concurrent_pair(make_fabric(p), "ring", 64 * KiB)
        opt = run_concurrent_pair(make_fabric(p), "optimal", 64 * KiB,
                                  config=CollectiveConfig(n_chains=p))
        print(f"P={p}: measured {ring.makespan / opt.makespan:.2f}x, "
              f"paper S=2-2/P = {concurrent_speedup(p):.2f}x")
    return 0


def _table1() -> int:
    from repro.dpa import dpa_single_thread_metrics

    for t in ("uc", "ud"):
        m = dpa_single_thread_metrics(t)
        print(f"{t.upper()}: {m.throughput_gib_s:.1f} GiB/s, "
              f"{m.instructions_per_cqe} instr/CQE, "
              f"{m.cycles_per_cqe} cycles/CQE, IPC {m.ipc}")
    return 0


def _trace(args: list) -> int:
    import argparse

    from repro.core.communicator import CollectiveConfig, Communicator
    from repro.net.fabric import Fabric
    from repro.net.faults import GilbertElliott
    from repro.net.link import FaultSpec
    from repro.net.topology import Topology
    from repro.obs import TraceConfig, write_chrome_trace
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomStreams
    from repro.units import KiB, gbit_per_s

    ap = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run a traced broadcast and export a Chrome trace.")
    ap.add_argument("--out", default="trace.json", help="output JSON path")
    ap.add_argument("--hosts", type=int, default=16)
    ap.add_argument("--bytes", type=int, default=64 * KiB)
    ap.add_argument("--lossy", action="store_true",
                    help="Gilbert-Elliott loss on every link (exercises the "
                         "reliability tracepoints)")
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args(args)

    fabric = Fabric(Simulator(), Topology.leaf_spine(ns.hosts, 2, 2),
                    link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(ns.seed))
    if ns.lossy:
        fabric.set_fault_all(lambda s, d: FaultSpec(gilbert_elliott=GilbertElliott(
            p_good_bad=0.02, p_bad_good=0.3, drop_good=0.002, drop_bad=0.15)))
    comm = Communicator(fabric, config=CollectiveConfig(chunk_size=4096),
                        trace=TraceConfig())
    rng = np.random.default_rng(ns.seed)
    data = rng.integers(0, 256, ns.bytes, dtype=np.uint8)
    res = comm.broadcast(0, data)
    ok = res.verify_broadcast(data)
    view = res.trace
    write_chrome_trace(view, ns.out)
    rel = res.reliability_summary()
    print(f"broadcast x{ns.hosts} of {ns.bytes} B: {res.duration * 1e6:.1f} µs, "
          f"data {'OK' if ok else 'CORRUPT'}")
    print(f"trace: {len(view)} events ({view.dropped} dropped), "
          f"{len(view.tracks())} tracks, recoveries={rel['recoveries']}, "
          f"recovered_chunks={rel['recovered_chunks']} -> {ns.out}")
    return 0 if ok else 1


def _tune(args: list) -> int:
    import argparse
    import json

    from repro.bench.runner import format_table
    from repro.tune import ProfileStore, Scenario, autotune
    from repro.tune.scenario import FAULT_PROFILES, TUNABLE_COLLECTIVES

    ap = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Search (or recall) the best CollectiveConfig for a "
                    "deployment point; repeated runs with the same key are "
                    "pure cache hits served from the profile store.")
    ap.add_argument("--collective", choices=TUNABLE_COLLECTIVES,
                    default="allgather")
    ap.add_argument("--hosts", type=int, default=16)
    ap.add_argument("--topo", default="auto",
                    help="auto | star | leaf_spine | testbed_188 | back_to_back")
    ap.add_argument("--bytes", type=int, default=64 * 1024,
                    help="per-rank payload (keyed by power-of-two bucket)")
    ap.add_argument("--transport", choices=("ud", "uc"), default="ud")
    ap.add_argument("--fault", choices=sorted(FAULT_PROFILES), default="clean")
    ap.add_argument("--link-gbit", type=float, default=56.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-evals", type=int, default=8,
                    help="simulation budget after cost-model pruning")
    ap.add_argument("--force", action="store_true",
                    help="re-search even on a cache hit")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip observability metrics (faster at scale)")
    ap.add_argument("--store", default=None,
                    help="profile directory (default: the committed store)")
    ap.add_argument("--log", default=None,
                    help="write the per-candidate search log as JSON")
    ap.add_argument("--expect-cache-hit", action="store_true",
                    help="exit 3 unless the profile was served from the "
                         "store without simulating (CI cache check)")
    ap.add_argument("--list", action="store_true", dest="list_profiles",
                    help="list stored profiles and exit")
    ap.add_argument("--show", default=None, metavar="REF",
                    help="print one profile (cache-key or slug prefix)")
    ns = ap.parse_args(args)

    store = ProfileStore(ns.store) if ns.store else ProfileStore.default()

    if ns.list_profiles:
        rows = [
            (p.slug, p.key["collective"], p.key["n_hosts"], p.key["transport"],
             p.key["bucket"], p.key["fault_profile"],
             f"{p.baseline['duration'] * 1e6:.1f}",
             f"{p.best['duration'] * 1e6:.1f}", f"{p.improvement:.2f}x")
            for p in store.profiles()
        ]
        print(format_table(
            ["profile", "coll", "P", "tpt", "bucket", "fault",
             "default µs", "tuned µs", "gain"], rows))
        return 0

    if ns.show is not None:
        profile = store.get(ns.show)
        if profile is None:
            print(f"no profile matching {ns.show!r}")
            return 1
        print(profile.to_json(), end="")
        return 0

    scenario = Scenario(
        collective=ns.collective, n_hosts=ns.hosts, topo=ns.topo,
        link_gbit=ns.link_gbit, transport=ns.transport, msg_bytes=ns.bytes,
        fault_profile=ns.fault, seed=ns.seed)
    result = autotune(scenario, store=store, max_evals=ns.max_evals,
                      force=ns.force, trace=not ns.no_trace)
    profile = result.profile

    origin = "cache hit" if result.cache_hit else "searched"
    print(f"{origin}: {profile.slug} "
          f"(evaluations={result.evaluations}, sim_events={result.sim_events})")
    if result.log:
        rows = []
        for entry in result.log:
            k = entry["knobs"]
            m = entry["measured"]
            pred = entry["predicted"]
            rows.append((
                "default" if entry["baseline"] else "candidate",
                k["chunk_size"], k.get("n_chains", 1), k.get("n_subgroups", 1),
                k.get("batch_size", 32), k.get("staging_slots", 256),
                "-" if pred is None else f"{pred['total'] * 1e6:.1f}",
                f"{m['duration'] * 1e6:.1f}",
            ))
        print(format_table(
            ["kind", "chunk", "chains", "subgrp", "batch", "slots",
             "predicted µs", "measured µs"], rows))
    print(f"best knobs: {json.dumps(profile.knobs, sort_keys=True)}")
    print(f"default {profile.baseline['duration'] * 1e6:.1f} µs -> tuned "
          f"{profile.best['duration'] * 1e6:.1f} µs "
          f"({profile.improvement:.2f}x)  [{result.store_path}]")
    if ns.log is not None:
        with open(ns.log, "w") as fh:
            json.dump({"profile": profile.slug, "cache_hit": result.cache_hit,
                       "log": result.log}, fh, indent=2, sort_keys=True)
        print(f"search log -> {ns.log}")
    if ns.expect_cache_hit and not result.cache_hit:
        print("expected a cache hit but a search ran")
        return 3
    return 0


#: exit code for a typed collective failure (reliability / fail-stop /
#: watchdog) — distinct from usage errors (2) and tune cache misses (3)
EXIT_COLLECTIVE_FAILURE = 4


def _failure_screen(err) -> str:
    """One-screen summary of a typed collective failure.

    Every field the post-mortem needs — rank, phase, retry histogram,
    dead ranks — without the stack trace (``--trace``-style debugging
    belongs in the exported Chrome trace, not on stderr).
    """
    lines = ["=" * 64, f"collective failure: {type(err).__name__}",
             "=" * 64, f"  detail   : {RuntimeError.__str__(err)}"]
    if getattr(err, "rank", None) is not None:
        lines.append(f"  rank     : {err.rank}")
    if getattr(err, "kind", None):
        lines.append(f"  op       : {err.kind} (coll_id={err.coll_id})")
    elif getattr(err, "coll_id", None) is not None:
        lines.append(f"  coll_id  : {err.coll_id}")
    if getattr(err, "phase", None):
        lines.append(f"  phase    : {err.phase}")
    dead = getattr(err, "dead_ranks", None) or getattr(err, "dead", None)
    if dead:
        lines.append(f"  dead     : ranks {sorted(dead)}")
    if getattr(err, "n_chunks", 0):
        lines.append(f"  missing  : {err.missing_chunks}/{err.n_chunks} chunks")
    if getattr(err, "elapsed", None) is not None:
        lines.append(f"  elapsed  : {err.elapsed * 1e6:.1f} µs "
                     f"(deadline {err.deadline * 1e6:.1f} µs)")
    hist = getattr(err, "retry_histogram", None)
    if hist is not None:
        lines.append(f"  retries  : {hist or '[]'} "
                     f"({len(hist)} recoveries, {sum(hist)} fetch rounds)")
    counters = getattr(err, "counters", None)
    if counters:
        body = " ".join(f"{k}={v}" for k, v in sorted(counters.items()) if v)
        lines.append(f"  counters : {body or '(all zero)'}")
    report = getattr(err, "report", None)
    if report:
        lines.append("  diagnostics:")
        lines.extend("    " + ln for ln in report.splitlines())
    lines.append("=" * 64)
    return "\n".join(lines)


def main(argv=None) -> int:
    from repro.core.reliability import (
        CollectiveAbortedError,
        PeerDeadError,
        ReliabilityError,
    )
    from repro.sim.engine import WatchdogError

    argv = list(sys.argv[1:] if argv is None else argv)
    cmd = argv[0] if argv else "demo"
    try:
        if cmd == "demo":
            return _demo()
        if cmd == "experiments":
            return _experiments()
        if cmd == "speedup":
            return _speedup(argv[1:])
        if cmd == "table1":
            return _table1()
        if cmd == "trace":
            return _trace(argv[1:])
        if cmd == "tune":
            return _tune(argv[1:])
    except (ReliabilityError, CollectiveAbortedError, PeerDeadError,
            WatchdogError) as err:
        print(_failure_screen(err), file=sys.stderr)
        return EXIT_COLLECTIVE_FAILURE
    print(__doc__)
    return 0 if cmd in ("-h", "--help", "help") else 2


if __name__ == "__main__":
    raise SystemExit(main())
