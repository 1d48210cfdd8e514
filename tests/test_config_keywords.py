"""Static check: every keyword a caller passes to ``CollectiveConfig(...)``
or ``coarse_config(...)`` names a declared field.

The figure benches and the examples are not collected by the test suite,
so a stale knob name there would otherwise surface only at the next
figure regeneration.  This parses their source instead of running them.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.bench import coarse_config
from repro.core import CollectiveConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")

FIELDS = {f.name for f in dataclasses.fields(CollectiveConfig)}
ACCEPTED = {
    "CollectiveConfig": FIELDS,
    "coarse_config": FIELDS | {
        name for name, p in inspect.signature(coarse_config).parameters.items()
        if p.kind is not inspect.Parameter.VAR_KEYWORD
    },
}


def _callee(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _unknown_keywords():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                accepted = ACCEPTED.get(_callee(node))
                if accepted is None:
                    continue
                for kw in node.keywords:
                    if kw.arg is not None and kw.arg not in accepted:
                        rel = path.relative_to(ROOT)
                        yield f"{rel}:{node.lineno}: {_callee(node)}({kw.arg}=...)"


def test_config_call_sites_use_declared_fields():
    assert list(_unknown_keywords()) == []


def test_the_scan_finds_call_sites():
    # Guard against a scan that silently matches nothing.
    calls = 0
    for path in (ROOT / "benchmarks").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _callee(node) in ACCEPTED:
                calls += 1
    assert calls >= 10
