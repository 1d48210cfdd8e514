"""Perf-regression gate wired into pytest via the ``perf`` marker.

Two layers of protection:

* ``test_event_counts_match_baseline`` (always on) — re-runs the cheap
  speedometer scenarios and asserts their *deterministic* outputs (event
  counts, virtual time) still match the committed baseline exactly.  A
  mismatch means a semantic change to the simulator, not noise.
* ``test_speedometer_wall_clock_gate`` (``-m perf``, needs RUN_PERF=1) —
  the full calibration-normalized wall-clock check, the same gate the CI
  speedometer job runs via ``bench_speedometer.py --check``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "results" / "speedometer_baseline.json"


def _load_speedometer():
    spec = importlib.util.spec_from_file_location(
        "bench_speedometer", ROOT / "benchmarks" / "bench_speedometer.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_event_counts_match_baseline():
    speedo = _load_speedometer()
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    # The cheap scenarios only — the fine-grained 188-node run is the CI
    # perf job's business, not tier-1's.
    for name in ("ag16", "fsdp"):
        base = baseline["scenarios"][name]
        cur = speedo.SCENARIOS[name](reference=False)
        assert cur["events"] == base["events"], (
            f"{name}: simulator event count drifted from the committed "
            f"baseline ({base['events']} -> {cur['events']}); if the "
            "change is intentional, regenerate speedometer_baseline.json"
        )
        assert cur["virtual_s"] == base["virtual_s"], (
            f"{name}: virtual completion time drifted from the baseline"
        )
        for key in speedo.PAYLOAD_KEYS:
            assert cur[key] == base[key], f"{name}: {key} drifted"
        assert cur["traffic"] == base["traffic"], (
            f"{name}: channel/switch/NIC packet counters drifted from the "
            "baseline — the packet path sent, forwarded or delivered "
            "something else"
        )
        # The reference engine must reach the same virtual time (the
        # production engine is bit-equivalent by construction).
        slow = speedo.SCENARIOS[name](reference=True)
        assert slow["virtual_s"] == base["virtual_s"], (
            f"{name}: the reference engine diverged from the baseline"
        )


def test_check_gates_the_traffic_fingerprint(capsys):
    """``--check`` fails on any traffic counter that moved, with events
    and virtual time unchanged."""
    import copy

    speedo = _load_speedometer()
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    results = copy.deepcopy(baseline)
    assert speedo.check(results, str(BASELINE), tolerance=0.25) == 0
    results["scenarios"]["ar188"]["traffic"]["packets_forwarded"] += 1
    assert speedo.check(results, str(BASELINE), tolerance=0.25) == 1
    assert "ar188: traffic fingerprint changed" in capsys.readouterr().out


def test_check_gates_the_payload_cost(capsys):
    """``--check`` fails when a scenario materialises or memcpy's payload
    it did not before, with everything else unchanged."""
    import copy

    speedo = _load_speedometer()
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    for name, base in baseline["scenarios"].items():
        assert all(key in base for key in speedo.PAYLOAD_KEYS), name
    for key in speedo.PAYLOAD_KEYS:
        results = copy.deepcopy(baseline)
        results["scenarios"]["ar188"][key] += 1
        assert speedo.check(results, str(BASELINE), tolerance=0.25) == 1
        assert f"ar188: {key} changed" in capsys.readouterr().out


def test_lossy188_forms_trains():
    """Regression: loss-fault specs used to disqualify every packet run
    from train coalescing even when the evaluated window dropped nothing,
    so the lossy188 scenario ran per-packet end to end (trains == 0).
    Inert-window evaluation must keep clean runs on the train fast path.
    """
    speedo = _load_speedometer()
    cur = speedo.SCENARIOS["lossy188"](reference=False)
    assert cur["trains"] > 0, (
        "lossy188 formed no packet trains — the coalescing eligibility "
        "check is treating every faulted channel as per-packet again"
    )


@pytest.mark.perf
@pytest.mark.skipif(
    not os.environ.get("RUN_PERF"),
    reason="wall-clock gate only meaningful on a quiet machine (set RUN_PERF=1)",
)
def test_speedometer_wall_clock_gate():
    speedo = _load_speedometer()
    results = speedo.run_all(reference=False)
    assert speedo.check(results, str(BASELINE), tolerance=0.25) == 0
