"""Shared machinery for the benchmark harness in ``benchmarks/``."""

from repro.bench.runner import (
    format_table,
    make_fabric,
    paper_vs_measured,
    report,
)
from repro.bench import reference

__all__ = [
    "format_table",
    "make_fabric",
    "paper_vs_measured",
    "reference",
    "report",
]
