"""Command line of the perf ledger.

* no ``--workload``: run every workload, each in its own fresh interpreter
  one after the other (so peak RSS and allocator state are per workload and
  do not depend on order), print every metric and write one JSON document;
* ``--workload NAME``: run that workload here and end with the pipeline's
  one-line result (this is the command in ``BENCHMARK.json``);
* ``--compare A.json B.json``: judge B against A.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy

from benchmarks.perf import harness
from benchmarks.perf.compare import compare
from benchmarks.perf.metrics import (
    END_TO_END,
    PER_LAYER,
    contract_end_to_end,
)
from benchmarks.perf.workloads import WORKLOAD_NAMES, workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: Default length of the timed phase; equals ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 10
SMOKE_MIN_TIMED = 3
#: A child that has not finished by then is killed and its ops count as
#: failed (the pipeline allows a run 180 s).
CHILD_TIMEOUT_S = 170


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(c)) for c in col) for col in zip(headers, *rows)]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in (headers, ["-" * w for w in widths], *rows)]
    return "\n".join(lines)


def _cell(entry: Optional[Dict[str, float]]) -> str:
    if entry is None:
        return "-"
    text = f"{entry['value']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.4g}..{entry['q3']:.4g}] n={entry['n']}"
    return text


def print_report(docs: Dict[str, Dict[str, Any]]) -> None:
    """Every metric by name with its unit, one column per workload."""
    names = list(docs)
    for title, group, metrics in (
            ("end-to-end (host time: mean [q1..q3] of n timed iterations, "
             "calibrated seconds)",
             "end_to_end", END_TO_END),
            ("per-layer", "per_layer", PER_LAYER)):
        rows = [[m.name, m.unit, *(_cell(docs[n][group].get(m.name))
                                   for n in names)]
                for m in metrics
                if any(m.name in docs[n][group] for n in names)]
        print(f"\n{title}")
        print(_table(["metric", "unit", *names], rows))
    for n in names:
        d = docs[n]
        print(f"\n{n}: {d['ops_total']} ops, {d['ops_failed']} failed, "
              f"{d.get('timed_iterations', 0)} timed iterations")
        for f in d["failures"]:
            print(f"  op {f['op']}: {f['error']}: {f['message']}")
        for reason in d.get("invalid", ()):
            print(f"  INVALID: {reason}")


def _healthy(doc: Dict[str, Any]) -> bool:
    return (doc["ops_failed"] == 0 and not doc.get("invalid")
            and bool(doc["end_to_end"]))


def _host() -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def _write(path: Path, doc: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _stem(args: argparse.Namespace) -> str:
    return (("smoke" if args.smoke else "run") + f"-seed{args.seed}"
            + ("-trace" if args.trace else ""))


def _min_timed(args: argparse.Namespace) -> int:
    return SMOKE_MIN_TIMED if args.smoke else harness.MIN_TIMED


def run_one(args: argparse.Namespace) -> int:
    """Single-workload mode: measure here, end with the result line."""
    spec = next(w for w in workloads(args.smoke) if w.name == args.workload)
    doc = harness.run_workload(spec, args.seed, args.seconds,
                               bool(args.trace), min_timed=_min_timed(args))
    doc.update(smoke=args.smoke, comparable=not args.smoke,
               seconds=args.seconds, host=_host())
    _write(Path(args.out) if args.out
           else OUT_DIR / f"{_stem(args)}.{spec.name}.json", doc)
    print_report({spec.name: doc})
    wanted = PER_LAYER if args.trace else contract_end_to_end()
    group = doc["per_layer" if args.trace else "end_to_end"]
    if any(m.name not in group for m in wanted):
        print("no result: the workload produced no complete measurement",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": _healthy(doc),
        "attempted": doc["ops_total"],
        "failed": doc["ops_failed"],
        "metrics": {m.name: {"value": group[m.name]["value"], "unit": m.unit}
                    for m in wanted},
    }))
    return 0 if _healthy(doc) else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh interpreter, sequentially."""
    stem = _stem(args)
    docs: Dict[str, Dict[str, Any]] = {}
    for name in WORKLOAD_NAMES:
        part = OUT_DIR / f"{stem}.{name}.json"
        part.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "__main__.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(part)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"[{name}] running ...", file=sys.stderr, flush=True)
        try:
            child = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
            error = (f"exit {child.returncode}: {child.stderr[-400:]}"
                     if child.returncode else "")
        except subprocess.TimeoutExpired:
            error = f"no result within {CHILD_TIMEOUT_S} s; child killed"
        if part.exists():
            with open(part) as fh:
                docs[name] = json.load(fh)
            part.unlink()
        else:
            # No document: the planned ops (cold, then timed) all count
            # as failed rather than vanish.
            planned = 1 + _min_timed(args)
            docs[name] = {"workload": name, "end_to_end": {}, "per_layer": {},
                          "ops_total": planned, "ops_failed": planned,
                          "failures": [{"op": 0, "error": "ChildFailed",
                                        "message": error}]}
    first = next(iter(docs.values()))
    doc = {"harness": "benchmarks.perf", "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace),
           "smoke": args.smoke, "comparable": not args.smoke,
           "host": first.get("host"), "workloads": docs}
    out = Path(args.out) if args.out else OUT_DIR / f"{stem}.json"
    _write(out, doc)
    if args.smoke:
        print("SMOKE RUN: 16-host fabrics, numbers are not comparable")
    print_report(docs)
    print(f"\nwrote {out}")
    return 0 if all(_healthy(d) for d in docs.values()) else 1


def run_compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows, reasons = compare(json.load(fa), json.load(fb))
    print(_table(["workload", "metric", "A", "B", "unit", "B worse by",
                  "bound", "verdict"], rows))
    for reason in reasons:
        print("REJECT:", reason)
    return 1 if reasons else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run only this workload, in this process, and end "
                    "with the one-line JSON result")
    ap.add_argument("--seed", type=int, default=0,
                    help="payload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase per workload; at least "
                    f"the minimum iteration count runs (default {RUN_SECONDS},"
                    " smoke 0)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add the traced iterations: spans "
                    "and the cProfile layer table")
    ap.add_argument("--smoke", action="store_true",
                    help="16-host versions of the four shapes, a few "
                    "iterations; checks the harness, not the system")
    ap.add_argument("--out", metavar="PATH", help="where to write the JSON "
                    "document (default: benchmarks/perf/out/)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two documents; exit 1 if B is worse")
    args = ap.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else RUN_SECONDS
    return run_all(args) if args.workload is None else run_one(args)
