"""Entry point: ``python -m benchmarks.perf`` or ``python3 benchmarks/perf``.

Puts the checkout's root and ``src`` on ``sys.path`` itself, so the command
in ``BENCHMARK.json`` needs no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/perf measures the checkout it sits in, and {_ROOT} "
             "has no src/repro")
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
