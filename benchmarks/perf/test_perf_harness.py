"""Self-test of the perf harness.  Not part of tier-1 (``testpaths`` stays
``tests``); run it explicitly::

    python -m pytest benchmarks/perf -q

It checks the harness, not the system: names and units against
``BENCHMARK.json``, the file-to-layer map against ``src/repro/``, failure
accounting, and ``--compare`` verdicts on synthetic documents.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

# Importing the entry point puts the checkout's ``src`` on sys.path.
from benchmarks.perf.__main__ import main  # noqa: F401
from benchmarks.perf import cli, harness, workloads
from benchmarks.perf.compare import compare
from benchmarks.perf.layers import LAYER_FILES, layer_of
from benchmarks.perf.metrics import (
    END_TO_END,
    LAYERS,
    PER_LAYER,
    benchmark_json_lists,
)

ROOT = Path(__file__).resolve().parents[2]
ENTRY = str(ROOT / "benchmarks" / "perf")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(*args, **kw):
    return subprocess.run([sys.executable, ENTRY, *args], capture_output=True,
                          text=True, timeout=120, **kw)


# ------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_lists_the_registry(benchmark_json):
    b = benchmark_json
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["paths"] == ["benchmarks/perf"]
    assert b["command"] == ["python3", "benchmarks/perf"]
    assert b["run_seconds"] == cli.RUN_SECONDS
    lists = benchmark_json_lists()
    assert b["end_to_end"] == lists["end_to_end"]
    assert b["per_layer"] == lists["per_layer"]
    assert b["workloads"] == [{"name": w.name, "why": w.why}
                              for w in workloads.workloads()]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in b[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in b["workloads"])


# ------------------------------------------------------------ smoke run

@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "not comparable" in proc.stdout
    with open(out) as fh:
        return json.load(fh)


def test_smoke_emits_every_metric_with_a_unit(smoke_doc, benchmark_json):
    assert smoke_doc["smoke"] and not smoke_doc["comparable"]
    assert list(smoke_doc["workloads"]) == [
        w["name"] for w in benchmark_json["workloads"]]
    for doc in smoke_doc["workloads"].values():
        assert list(doc["end_to_end"]) == [m.name for m in END_TO_END]
        assert list(doc["per_layer"]) == [m.name for m in PER_LAYER]
        for entry in (*doc["end_to_end"].values(), *doc["per_layer"].values()):
            assert entry["unit"] and isinstance(entry["value"], (int, float))
        assert doc["ops_failed"] == 0 and doc["ops_total"] >= 5
        assert doc["config_applied"]["chunk_size"] > 0


def test_smoke_layer_table_accounts_for_the_run_span(smoke_doc):
    for doc in smoke_doc["workloads"].values():
        layers = doc["layers"]
        assert set(layers["self_s"]) == set(LAYERS)
        assert sum(layers["self_s"].values()) == pytest.approx(
            layers["run_span_s"], rel=0.02)
        assert doc["per_layer"]["other.self_share"]["value"] < 0.10
        assert doc["per_layer"]["harness.trace_overhead_ratio"]["value"] > 1


def test_smoke_spans_form_the_documented_tree(smoke_doc):
    for name, doc in smoke_doc["workloads"].items():
        by_id = {s["id"]: s for s in doc["spans"]}
        assert all(s["end"] >= s["start"] for s in by_id.values())

        def path(span):
            names = [span["name"].split(":")[0]]
            while span["parent"] is not None:
                span = by_id[span["parent"]]
                names.append(span["name"].split(":")[0])
            return "/".join(reversed(names))

        paths = {path(s) for s in by_id.values()}
        assert paths == {"workload", "workload/iteration"} | {
            f"workload/iteration/{stage}" for stage in (
                "fabric_build", "comm_build", "payload_gen", "run",
                "verify", "run/submit", "run/drain", "run/result")}
        roots = [s for s in by_id.values() if s["parent"] is None]
        assert [r["name"] for r in roots] == [f"workload:{name}"]
        iterations = [s for s in by_id.values()
                      if s["name"].startswith("iteration:")]
        assert len(iterations) == doc["ops_total"]


def test_smoke_loss_lands_where_it_should(smoke_doc):
    for name, doc in smoke_doc["workloads"].items():
        drops = doc["per_layer"]["net.link.fabric_drops"]["value"]
        recoveries = doc["per_layer"]["core.reliability.recoveries"]["value"]
        if name == "bcast188lossy":
            assert drops > 0 and recoveries > 0
        else:
            assert drops == 0 and recoveries == 0
        assert doc["invalid"] == []


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace, tmp_path, benchmark_json):
    proc = _run("--workload", "ar188", "--smoke", "--seed", "3", "--seconds",
                "0", "--trace", str(trace), "--out", str(tmp_path / "o.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = benchmark_json["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_unknown_workload_is_refused():
    proc = _run("--workload", "nope")
    assert proc.returncode == 2 and "invalid choice" in proc.stderr


# ------------------------------------------------------------ layer map

def test_every_source_file_has_a_layer():
    src = ROOT / "src" / "repro"
    files = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py"))
    assert files
    unmapped = [f for f in files if layer_of(f) not in LAYERS]
    assert not unmapped, f"add to benchmarks/perf/layers.py: {unmapped}"
    stale = [p for paths in LAYER_FILES.values() for p in paths
             if not (src / p).exists()]
    assert not stale, f"layers.py names paths that are gone: {stale}"


# --------------------------------------------------- failure accounting

def _tiny(name: str, **config) -> workloads.Workload:
    w = next(w for w in workloads.workloads(smoke=True) if w.name == name)
    return dataclasses.replace(w, config={**w.config, **config})


def test_typed_errors_are_counted_and_the_run_goes_on():
    # A recovery deadline no lossy run can meet: every op raises
    # ReliabilityError, and every op is still attempted.
    doc = harness.run_workload(_tiny("bcast188lossy", recovery_deadline=1e-7),
                               seed=0, seconds=0, trace=False, min_timed=2)
    assert doc["ops_total"] == 3 and doc["ops_failed"] == 3
    assert {f["error"] for f in doc["failures"]} == {"ReliabilityError"}
    assert doc["end_to_end"] == {}


def test_verify_failure_is_counted(monkeypatch):
    calls = []

    def flaky_verify(w, result, data):
        calls.append(1)
        return len(calls) != 2  # the first timed op fails its check

    monkeypatch.setattr(workloads, "verify", flaky_verify)
    doc = harness.run_workload(_tiny("bcast1024"), seed=0, seconds=0,
                               trace=False, min_timed=3)
    assert doc["ops_total"] == 4 and doc["ops_failed"] == 1
    assert doc["failures"][0]["error"] == "VerifyFailed"
    assert doc["timed_iterations"] == 2
    assert doc["end_to_end"]["ops_failed"]["value"] == 1


def test_loss_must_show_on_the_lossy_workload_and_nowhere_else():
    lossy, clean = _tiny("bcast188lossy"), _tiny("ar188")
    quiet = {"net.link.fabric_drops": 0, "core.reliability.recoveries": 0,
             "net.nic.rnr_drops": 0}
    lost = {**quiet, "net.link.fabric_drops": 5,
            "core.reliability.recoveries": 3}
    assert harness._validity(lossy, lost) == []
    assert harness._validity(clean, quiet) == []
    assert harness._validity(lossy, quiet) == [
        "bcast188lossy: no drops", "bcast188lossy: no recoveries"]
    assert harness._validity(clean, lost) == [
        "ar188: clean workload saw 5 drops",
        "ar188: clean workload saw 3 recoveries"]


# -------------------------------------------------------------- compare

def _doc(seed=0, **overrides):
    e2e = {
        "setup_s": {"value": 0.5, "q1": 0.51, "q3": 0.53, "n": 5},
        "run_wall_s": {"value": 2.0, "q1": 2.02, "q3": 2.08, "n": 5},
        "peak_rss_mib": {"value": 800.0},
        "virtual_s": {"value": 1.0e-4},
        "bound_efficiency": {"value": 0.5},
        "switch_bytes_per_delivered_byte": {"value": 1.1},
        "ops_failed": {"value": 0},
    }
    for name, fields in overrides.items():
        e2e[name] = {**e2e[name], **fields}
    return {"seed": seed, "workloads": {"w": {
        "end_to_end": e2e, "ops_total": 9,
        "ops_failed": e2e["ops_failed"]["value"]}}}


def _verdicts(a, b):
    rows, reasons = compare(a, b)
    return {row[1]: row[-1] for row in rows}, reasons


def test_compare_same_document_is_same():
    verdicts, reasons = _verdicts(_doc(), copy.deepcopy(_doc()))
    assert set(verdicts.values()) == {"same"} and not reasons
    assert set(verdicts) == {m.name for m in END_TO_END}


RUN_BOUND = next(m.bound for m in END_TO_END if m.name == "run_wall_s")


def test_compare_host_time_against_its_bound():
    def b(factor):
        return _doc(run_wall_s={"value": 2.0 * factor})

    verdicts, reasons = _verdicts(_doc(), b(1 + RUN_BOUND + 0.05))
    assert verdicts["run_wall_s"] == "worse" and len(reasons) == 1
    verdicts, reasons = _verdicts(_doc(), b(1 + RUN_BOUND / 2))
    assert verdicts["run_wall_s"] == "same" and not reasons
    verdicts, reasons = _verdicts(_doc(), b(1 - RUN_BOUND - 0.05))
    assert verdicts["run_wall_s"] == "better" and not reasons


def test_compare_noisy_parent_is_unresolved_not_worse():
    # quartile spread / sqrt(n) is the noise of the mean: just over the bound
    iqr = 2.0 * (RUN_BOUND + 0.02) * 5 ** 0.5
    noisy = _doc(run_wall_s={"q1": 1.8, "q3": 1.8 + iqr})
    verdicts, reasons = _verdicts(noisy, _doc(run_wall_s={"value": 3.0}))
    assert verdicts["run_wall_s"] == "unresolved" and not reasons
    calm = _doc(run_wall_s={"q1": 1.8, "q3": 1.8 + iqr / 2})
    verdicts, reasons = _verdicts(calm, _doc(run_wall_s={"value": 3.0}))
    assert verdicts["run_wall_s"] == "worse" and reasons


def test_compare_exact_metrics_allow_no_drift_at_one_seed():
    slower = _doc(virtual_s={"value": 1.0e-4 + 1e-12},
                  bound_efficiency={"value": 0.5 - 1e-9})
    verdicts, reasons = _verdicts(_doc(), slower)
    assert verdicts["virtual_s"] == verdicts["bound_efficiency"] == "worse"
    assert len(reasons) == 2
    faster = _doc(virtual_s={"value": 0.9e-4},
                  bound_efficiency={"value": 0.55})
    verdicts, reasons = _verdicts(_doc(), faster)
    assert verdicts["virtual_s"] == verdicts["bound_efficiency"] == "better"
    assert not reasons


def test_compare_rejects_more_failed_ops():
    verdicts, reasons = _verdicts(_doc(), _doc(ops_failed={"value": 1}))
    assert verdicts["ops_failed"] == "worse"
    assert any("failed ops rose" in r for r in reasons)


def test_compare_cli_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc()))
    b.write_text(json.dumps(_doc(peak_rss_mib={"value": 900.0})))
    assert _run("--compare", str(a), str(a)).returncode == 0
    proc = _run("--compare", str(a), str(b))
    assert proc.returncode == 1 and "peak_rss_mib" in proc.stdout
