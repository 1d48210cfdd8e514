"""``--compare A.json B.json``: did B get worse than A, metric by metric?

A is the parent, B the change.  One row per workload and end-to-end
metric.  A metric the simulator decides is held to bit-equality when both
documents ran the same seed.  A host-time metric is held to its bound, and
reported ``unresolved`` when the parent's own noise is wider than that
bound, because then neither "worse" nor "same" can be told apart from it.
The noise of a mean of ``n`` iterations is taken as their quartile spread
over ``sqrt(n)``; on the box this was built on that estimate (12-17 %)
matches the spread measured between whole runs (11-18 %).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from benchmarks.perf.metrics import END_TO_END, Metric

__all__ = ["compare", "verdict"]


def _workloads(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-workload documents of a full run, or of a single-workload one."""
    return doc.get("workloads") or {doc["workload"]: doc}


def verdict(m: Metric, a: Dict[str, float], b: Dict[str, float],
            same_seed: bool) -> Tuple[str, float, float]:
    """``(verdict, worsening, bound)``; worsening is B against A as a share
    of A, positive when B is worse."""
    bound = 0.0 if m.exact and same_seed else m.bound
    va, vb = a["value"], b["value"]
    if va == vb:
        return "same", 0.0, bound
    if va:
        worse_by = (vb - va) / abs(va)
    else:  # only a count (ops_failed) is ever 0
        worse_by = float("inf") if vb > va else float("-inf")
    if m.better == "higher":
        worse_by = -worse_by
    if "q1" in a and (a["q3"] - a["q1"]) / (va * math.sqrt(a["n"])) > bound:
        return "unresolved", worse_by, bound
    if worse_by > bound:
        return "worse", worse_by, bound
    return ("better" if worse_by < -bound else "same"), worse_by, bound


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]
            ) -> Tuple[List[Tuple[str, ...]], List[str]]:
    """Rows for the table, and the reasons (if any) B must be rejected."""
    same_seed = doc_a.get("seed") == doc_b.get("seed")
    rows: List[Tuple[str, ...]] = []
    reasons: List[str] = []
    a_all, b_all = _workloads(doc_a), _workloads(doc_b)
    for name, a in a_all.items():
        b = b_all.get(name)
        if b is None:
            reasons.append(f"{name}: missing from B")
            continue
        if (b["ops_failed"] * a["ops_total"]
                > a["ops_failed"] * b["ops_total"]):
            reasons.append(
                f"{name}: failed ops rose from {a['ops_failed']}/"
                f"{a['ops_total']} to {b['ops_failed']}/{b['ops_total']}")
        for m in END_TO_END:
            ma, mb = a["end_to_end"].get(m.name), b["end_to_end"].get(m.name)
            if ma is None or mb is None:
                reasons.append(f"{name}: {m.name} missing")
                continue
            what, worse_by, bound = verdict(m, ma, mb, same_seed)
            rows.append((name, m.name, f"{ma['value']:.6g}",
                         f"{mb['value']:.6g}", m.unit, f"{worse_by:+.2%}",
                         f"{bound:.0%}" if bound else "exact", what))
            if what == "worse":
                reasons.append(f"{name}: {m.name} worse by {worse_by:.2%} "
                               f"(bound {bound:.2%})")
    return rows, reasons
