#!/usr/bin/env python3
"""Lint tracepoint call sites against the schema catalogue.

Parses every module under ``src/repro`` and finds each
``.instant(...)`` / ``.complete(...)`` / ``.counter(...)`` call whose
first argument is a string literal — a call may span lines — and each
``TraceRecord(...)`` built with a literal event name (the tracer's
dispatch histogram).  It checks that every name

* follows the ``subsystem.verb`` convention (:data:`repro.obs.schema.NAME_RE`),
* is registered in :data:`repro.obs.schema.TRACEPOINTS`.

Exit status 1 lists every violation; 0 means the catalogue is complete.
Run from the repo root: ``PYTHONPATH=src python tools/check_tracepoints.py``.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.schema import NAME_RE, TRACEPOINTS  # noqa: E402

#: the tracer's emission methods, whose first argument is the name
EMITTERS = {"instant", "complete", "counter"}
#: ``TraceRecord``'s positional index of the event name
RECORD_NAME_ARG = 6

#: tracepoints that must have at least one live emission site — the
#: fail-stop suite's CI assertions grep traces for these, so a refactor
#: that silently drops the call site must fail here, not in a flaky
#: downstream crash test.
REQUIRED_EMITTED = {
    "liveness.suspect",
    "liveness.confirm",
    "repair.replan",
    "repair.void",
    "engine.watchdog",
    "engine.fold",
}


def emissions(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` of every literal tracepoint name emitted in *tree*."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in EMITTERS:
            arg = node.args[0] if node.args else None
        elif isinstance(func, ast.Name) and func.id == "TraceRecord":
            arg = node.args[RECORD_NAME_ARG] if len(node.args) > RECORD_NAME_ARG else None
        else:
            continue
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield node.lineno, arg.value


def main() -> int:
    violations = []
    used = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT)
        for lineno, name in emissions(ast.parse(path.read_text(), str(rel))):
            used.add(name)
            if not NAME_RE.match(name):
                violations.append(
                    f"{rel}:{lineno}: tracepoint {name!r} does not match "
                    f"subsystem.verb ({NAME_RE.pattern})")
            elif name not in TRACEPOINTS:
                violations.append(
                    f"{rel}:{lineno}: tracepoint {name!r} is not registered "
                    f"in repro.obs.schema.TRACEPOINTS")
    missing_required = sorted(REQUIRED_EMITTED - set(TRACEPOINTS))
    for name in missing_required:
        violations.append(
            f"required tracepoint {name!r} is not registered in "
            f"repro.obs.schema.TRACEPOINTS")
    for name in sorted(REQUIRED_EMITTED & set(TRACEPOINTS) - used):
        violations.append(
            f"required tracepoint {name!r} is catalogued but has no "
            f"emission site under src/repro")
    for v in violations:
        print(v)
    unused = sorted(set(TRACEPOINTS) - used - REQUIRED_EMITTED)
    if unused:
        print(f"note: catalogued but never emitted: {', '.join(unused)}",
              file=sys.stderr)
    if violations:
        print(f"{len(violations)} tracepoint violation(s)", file=sys.stderr)
        return 1
    print(f"tracepoints OK: {len(used)} names in use, "
          f"{len(TRACEPOINTS)} catalogued")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
