"""Speedometer — the simulator's perf-regression harness.

Measures wall-clock, simulator events, and events/sec on four pinned
scenarios that together cover the hot paths the fast-path PR optimizes:

* ``ag16``        clean 16-rank allgather (NIC receive + DMA datapath)
* ``bcast188``    clean 188-node coarse broadcast (paper Fig 11 shape)
* ``bcast188hf``  clean 188-node *fine-grained* broadcast (mtu 4096,
                  1 MiB) — the headline scenario for the >=2x wall-clock
                  claim; dominated by per-packet channel/switch events
* ``lossy188``    Gilbert-Elliott lossy 188-node broadcast — exercises
                  the per-packet slow path + recovery machinery
* ``fsdp``        3-layer FSDP backward pipeline (overlapping AG+RS)
* ``bcast1024``   1024-host broadcast under the flow-level fast-forward
                  engine (``fast_forward="exact"``) — the Tbit-scale
                  configuration the packet-level engine cannot reach in CI
* ``ag1024``      1024-rank chain-scheduled allgather under exact
                  fast-forward — the scaling stress case for the
                  vectorized fold commit path
* ``ar188``       188-host composed allreduce (INC reduce-scatter →
                  multicast allgather in one submission) — the paper
                  Appendix B shape at testbed scale
* ``a2a16``       16-rank personalized alltoall over unicast RC QPs
                  (the MoE expert-parallel exchange)

Virtual-time outputs (durations), event counts, each scenario's
traffic fingerprint (packets and bytes sent and dropped on every channel,
packets every switch forwarded, packets and RNR drops at every NIC, each
summed over the fabric) and its payload cost (``payload_regions_materialized``
/ ``payload_bytes_copied``: op regions that became byte arrays, and the
landed bytes memcpy'd into them; ``None`` where the collective reports
none) are deterministic: any change to them is a *semantic* change, not
noise, and fails the ``--check`` gate outright.  Wall-clock is machine-dependent, so the gate
normalizes it by a calibration loop (pure-Python event churn) measured on
the same machine at the same moment, and compares the *normalized* cost
against the committed baseline with a tolerance (default 25%).

Usage::

    python benchmarks/bench_speedometer.py                  # table
    python benchmarks/bench_speedometer.py --json           # machine output
    python benchmarks/bench_speedometer.py --reference      # reference engine
    python benchmarks/bench_speedometer.py \
        --check benchmarks/results/speedometer_baseline.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from typing import Dict

import numpy as np

from repro.bench import coarse_config, format_table, make_fabric
from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.faults import GilbertElliott
from repro.net.link import FaultSpec
from repro.sim.engine import Simulator
from repro.units import KiB, MiB
from repro.workloads.fsdp import run_fsdp_backward_pipeline

CALIBRATION_EVENTS = 200_000

#: ``CollectiveResult.engine`` payload counters gated exactly
PAYLOAD_KEYS = ("payload_regions_materialized", "payload_bytes_copied")


def calibrate() -> float:
    """Seconds to churn a fixed number of no-op simulator events.

    A pure-Python measure of this machine's event-loop speed; dividing a
    scenario's wall-clock by this yields a dimensionless cost that is
    comparable across machines (same interpreter, same scenario).
    """
    sim = Simulator()

    def tick(n: int) -> None:
        if n > 0:
            sim.post_later(1e-9, tick, n - 1)

    tick(CALIBRATION_EVENTS)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def traffic(fabric) -> Dict[str, int]:
    """The fabric's traffic fingerprint: channel, switch and NIC packet
    counters, each summed over the fabric."""
    chans = fabric.channels.values()
    nics = [nic for rail in fabric.rail_nics.values() for nic in rail]
    return {
        "packets_sent": sum(ch.packets_sent for ch in chans),
        "bytes_sent": sum(ch.bytes_sent for ch in chans),
        "packets_dropped": sum(ch.packets_dropped for ch in chans),
        "packets_forwarded": sum(sw.packets_forwarded
                                 for sw in fabric.switches.values()),
        "packets_received": sum(nic.packets_received for nic in nics),
        "rnr_drops": sum(nic.rnr_drops for nic in nics),
    }


def _result(wall: float, res, fabric) -> Dict[str, object]:
    return {
        "wall_s": wall,
        "virtual_s": res.duration,
        "events": res.engine["sim_events"],
        "trains": res.engine["trains"],
        "train_packets": res.engine["train_packets"],
        "ff_phases": res.engine.get("ff_phases", 0),
        "traffic": traffic(fabric),
        **{key: res.engine.get(key) for key in PAYLOAD_KEYS},
    }


def _bcast(n_hosts: int, nbytes: int, chunk: int, reference: bool,
           fault_factory=None, coarse: bool = True,
           **cfg_kw) -> Dict[str, float]:
    fabric = make_fabric(n_hosts, mtu=chunk, reference=reference)
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    cfg = (coarse_config(chunk, **cfg_kw) if coarse
           else CollectiveConfig(chunk_size=chunk, **cfg_kw))
    comm = Communicator(fabric, config=cfg)
    data = (np.arange(nbytes, dtype=np.uint32) % 251).astype(np.uint8)
    t0 = time.perf_counter()
    res = comm.broadcast(0, data)
    wall = time.perf_counter() - t0
    assert res.verify_broadcast(data), "broadcast payload corrupted"
    return _result(wall, res, fabric)


def _ff_kw(ff: str | None, default: str = "off") -> Dict[str, str]:
    """Config override for a scenario's fast-forward mode.  ``ff`` is the
    run-wide ``--ff`` override; ``default`` is the scenario's pinned mode."""
    return {"fast_forward": default if ff is None else ff}


def scenario_ag16(reference: bool, ff: str | None = None) -> Dict[str, float]:
    fabric = make_fabric(16, mtu=4096, reference=reference)
    comm = Communicator(fabric, config=CollectiveConfig(chunk_size=4096,
                                                       **_ff_kw(ff)))
    data = [np.full(64 * KiB, r % 251, dtype=np.uint8) for r in range(16)]
    t0 = time.perf_counter()
    res = comm.allgather(data)
    wall = time.perf_counter() - t0
    assert res.verify_allgather(data), "allgather payload corrupted"
    return _result(wall, res, fabric)


def scenario_bcast188(reference: bool,
                      ff: str | None = None) -> Dict[str, float]:
    return _bcast(188, MiB, 64 * KiB, reference, **_ff_kw(ff))


def scenario_bcast188hf(reference: bool,
                        ff: str | None = None) -> Dict[str, float]:
    return _bcast(188, MiB, 4096, reference, coarse=False, **_ff_kw(ff))


def scenario_lossy188(reference: bool,
                      ff: str | None = None) -> Dict[str, float]:
    ge = GilbertElliott(p_good_bad=0.01, p_bad_good=0.3,
                        drop_good=0.001, drop_bad=0.10)
    return _bcast(188, 256 * KiB, 64 * KiB, reference,
                  fault_factory=lambda s, d: FaultSpec(gilbert_elliott=ge),
                  **_ff_kw(ff))


def scenario_fsdp(reference: bool, ff: str | None = None) -> Dict[str, float]:
    fabric = make_fabric(16, mtu=16 * KiB, reference=reference)
    sim = fabric.sim
    ev0 = sim.events_processed
    t0 = time.perf_counter()
    virtual = run_fsdp_backward_pipeline(
        fabric, "optimal", [64 * KiB, 64 * KiB, 32 * KiB],
        config=coarse_config(16 * KiB, **_ff_kw(ff)),
    )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "virtual_s": virtual,
        "events": sim.events_processed - ev0,
        "trains": fabric.total_trains(),
        "train_packets": fabric.total_train_packets(),
        "ff_phases": 0,
        "traffic": traffic(fabric),
        **{key: None for key in PAYLOAD_KEYS},
    }


def scenario_bcast1024(reference: bool,
                       ff: str | None = None) -> Dict[str, float]:
    # Pinned to exact fast-forward: packet-level 1024-host runs belong to
    # bench_ff_scaling.py, not the per-commit speedometer.
    return _bcast(1024, 512 * KiB, 4096, reference, coarse=False,
                  transport="uc", **_ff_kw(ff, default="exact"))


def scenario_ag1024(reference: bool,
                    ff: str | None = None) -> Dict[str, float]:
    fabric = make_fabric(1024, mtu=4096, reference=reference)
    # The chain-serialized 1024-step schedule outruns the adaptive cutoff's
    # ``buffer/B + alpha`` deadline model (activation latency dominates at
    # this scale), so the scenario pins a static cutoff wide enough that no
    # spurious recovery fires — in either engine.
    cfg = CollectiveConfig(chunk_size=KiB, transport="uc",
                           adaptive_cutoff=False, cutoff_alpha=10e-3,
                           **_ff_kw(ff, default="exact"))
    comm = Communicator(fabric, config=cfg)
    data = [np.full(KiB, r % 251, dtype=np.uint8) for r in range(1024)]
    t0 = time.perf_counter()
    res = comm.allgather(data)
    wall = time.perf_counter() - t0
    assert res.verify_allgather(data), "allgather payload corrupted"
    return _result(wall, res, fabric)


def scenario_ar188(reference: bool,
                   ff: str | None = None) -> Dict[str, float]:
    fabric = make_fabric(188, mtu=4096, reference=reference)
    comm = Communicator(fabric, config=coarse_config(
        4096, n_chains=188, **_ff_kw(ff)))
    # 1024 float32 elements per shard (4 KiB, one chunk) x 188 shards.
    elems = 188 * 1024
    data = [(np.arange(elems, dtype=np.float32) % 251) + r
            for r in range(188)]
    t0 = time.perf_counter()
    res = comm.allreduce(data, algorithm="inc")
    wall = time.perf_counter() - t0
    assert res.verify_allreduce(data), "allreduce payload corrupted"
    return _result(wall, res, fabric)


def scenario_a2a16(reference: bool, ff: str | None = None) -> Dict[str, float]:
    fabric = make_fabric(16, mtu=4096, reference=reference)
    comm = Communicator(fabric, config=CollectiveConfig(chunk_size=4096,
                                                       **_ff_kw(ff)))
    data = [(np.arange(64 * KiB, dtype=np.uint32) % 251 + r).astype(np.uint8)
            for r in range(16)]
    t0 = time.perf_counter()
    res = comm.alltoall(data)
    wall = time.perf_counter() - t0
    assert res.verify_alltoall(data), "alltoall payload corrupted"
    return _result(wall, res, fabric)


SCENARIOS = {
    "ag16": scenario_ag16,
    "bcast188": scenario_bcast188,
    "bcast188hf": scenario_bcast188hf,
    "lossy188": scenario_lossy188,
    "fsdp": scenario_fsdp,
    "bcast1024": scenario_bcast1024,
    "ag1024": scenario_ag1024,
    "ar188": scenario_ar188,
    "a2a16": scenario_a2a16,
}

#: Scenarios whose calibration-normalized wall-clock is steady enough to
#: gate at the default 25 % tolerance.  Six consecutive runs on a quiet
#: 2-core box spread 3–9 % around their median on every scenario listed
#: here except ``a2a16`` (-4/+39 %: it is 30 ms of wall, so one scheduler
#: hiccup shows); the 1024-host scenarios have been as steady as the rest
#: since folded phases stopped materialising receive buffers (DESIGN.md
#: §6h: 122 MiB peak RSS, not the former 0.7–1.2 GiB of first-touch page
#: faults).  ``bcast188`` (coarse) stays out: the same six runs put it
#: anywhere from 3.0 to 8.5 normalized units (-34/+85 %) — it runs at
#: packet level through 188 staging rings of 256 x 64 KiB slots, so its
#: wall is still first-touch page faults, a memory-subsystem measurement.
#: Its *event count and virtual time* are gated exactly, like everyone's.
WALL_GATED = frozenset({"ag16", "bcast188hf", "lossy188", "fsdp", "a2a16",
                        "bcast1024", "ag1024", "ar188"})


def run_all(reference: bool = False, profile_top: int = 0,
            ff: str | None = None,
            skip: frozenset = frozenset()) -> Dict[str, object]:
    cal = calibrate()
    scenarios: Dict[str, Dict[str, float]] = {}
    for name, fn in SCENARIOS.items():
        if name in skip:
            continue
        if profile_top:
            prof = cProfile.Profile()
            prof.enable()
        r = fn(reference, ff)
        if profile_top:
            prof.disable()
            _print_hotspots(name, prof, profile_top)
        r["events_per_s"] = r["events"] / r["wall_s"] if r["wall_s"] > 0 else 0.0
        r["normalized_cost"] = r["wall_s"] / cal
        scenarios[name] = r
    return {
        "reference": reference,
        "fast_forward": ff,
        "skipped": sorted(skip),
        "calibration_s": cal,
        "calibration_events": CALIBRATION_EVENTS,
        "scenarios": scenarios,
    }


def _print_hotspots(name: str, prof: cProfile.Profile, top: int) -> None:
    """Print the scenario's top-N hot spots by self time and by cumulative
    time (to stderr, so --json output stays parseable)."""
    for sort, title in (("tottime", "self time"), ("cumtime", "cumulative")):
        print(f"\n--- {name}: top {top} by {title} ---", file=sys.stderr)
        st = pstats.Stats(prof, stream=sys.stderr)
        st.sort_stats(sort).print_stats(top)


def check(results: Dict[str, object], baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    # When the run used a different fast-path configuration than the
    # committed baseline (--reference / --ff), event counts and
    # wall-clock are not comparable — but virtual time still must match
    # *exactly*: the production engine and the exact fast-forward are both
    # proven bit-equivalent to the reference, so this mode turns --check
    # into an equivalence gate.
    same_config = (
        results.get("reference") == baseline.get("reference", False)
        and results.get("fast_forward") == baseline.get("fast_forward")
    )
    skipped = set(results.get("skipped", ()))
    failures = []
    for name, base in baseline["scenarios"].items():
        if name in skipped:
            continue
        cur = results["scenarios"].get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        # Event counts and virtual time are deterministic: exact match.
        if same_config and cur["events"] != base["events"]:
            failures.append(
                f"{name}: event count changed {base['events']} -> {cur['events']} "
                "(semantic change — regenerate the baseline deliberately)"
            )
        if same_config and cur["traffic"] != base["traffic"]:
            failures.append(
                f"{name}: traffic fingerprint changed {base['traffic']} -> "
                f"{cur['traffic']} (semantic change — regenerate the baseline "
                "deliberately)"
            )
        for key in PAYLOAD_KEYS:
            if same_config and cur.get(key) != base.get(key):
                failures.append(
                    f"{name}: {key} changed {base.get(key)} -> {cur.get(key)} "
                    "(semantic change — regenerate the baseline deliberately)"
                )
        if cur["virtual_s"] != base["virtual_s"]:
            failures.append(
                f"{name}: virtual time changed {base['virtual_s']!r} -> "
                f"{cur['virtual_s']!r}"
            )
        # Wall-clock: compare calibration-normalized cost with tolerance.
        if not same_config or name not in WALL_GATED:
            continue
        limit = base["normalized_cost"] * (1.0 + tolerance)
        if cur["normalized_cost"] > limit:
            failures.append(
                f"{name}: perf regression — normalized cost "
                f"{cur['normalized_cost']:.2f} > {base['normalized_cost']:.2f} "
                f"* (1 + {tolerance:.2f})"
            )
    if failures:
        print("SPEEDOMETER CHECK FAILED")
        for f in failures:
            print("  -", f)
        return 1
    mode = "full" if same_config else "virtual-time equivalence only"
    print(f"speedometer check OK against {baseline_path} "
          f"({mode}, tolerance {tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", action="store_true", help="emit JSON to stdout")
    ap.add_argument("--reference", action="store_true",
                    help="run the per-packet, per-CQE reference engine "
                         "(Fabric(reference=True))")
    ap.add_argument("--ff", choices=("off", "exact"), default=None,
                    help="override every scenario's fast-forward mode "
                         "(default: each scenario's pinned mode); with "
                         "--check this is the flow-level equivalence gate")
    ap.add_argument("--skip", default="", metavar="NAMES",
                    help="comma-separated scenarios to leave out (the "
                         "check gate ignores their baseline entries)")
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="cProfile each scenario; print top-N hot spots "
                         "(self time and cumulative) to stderr")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare against a baseline JSON; exit 1 on regression")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed normalized wall-clock growth (default 0.25)")
    args = ap.parse_args(argv)

    skip = frozenset(n for n in args.skip.split(",") if n)
    unknown = skip - set(SCENARIOS)
    if unknown:
        ap.error(f"unknown scenario(s) in --skip: {', '.join(sorted(unknown))}")

    results = run_all(reference=args.reference,
                      profile_top=args.profile,
                      ff=args.ff, skip=skip)

    if args.check:
        return check(results, args.check, args.tolerance)

    if args.json:
        json.dump(results, sys.stdout, indent=2)
        print()
        return 0

    rows = []
    for name, r in results["scenarios"].items():
        rows.append((
            name,
            f"{r['wall_s']:.3f}",
            f"{r['virtual_s'] * 1e6:.1f}",
            f"{r['events']:,}",
            f"{r['events_per_s'] / 1e3:.0f}k",
            f"{r['normalized_cost']:.2f}",
            f"{r['trains']:,}",
        ))
    print(f"calibration: {results['calibration_s']:.3f}s "
          f"for {CALIBRATION_EVENTS:,} events "
          f"({'reference' if results['reference'] else 'production'} "
          f"engine, ff={results['fast_forward'] or 'per-scenario'})")
    print(format_table(
        ("scenario", "wall s", "virt us", "events", "ev/s", "norm", "trains"),
        rows,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
