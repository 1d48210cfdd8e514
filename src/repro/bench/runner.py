"""Helpers shared by every benchmark: fabric factories, table formatting,
and result reporting (stdout + ``benchmarks/results/*.txt``)."""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from repro.net.fabric import Fabric
from repro.net.topology import TopologySpec, auto_spec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

__all__ = ["make_fabric", "format_table", "report", "paper_vs_measured"]


def make_fabric(
    n_hosts: int = 16,
    topo: str = "auto",
    link_gbit: float = 56.0,
    seed: int = 0,
    topo_params: Optional[dict] = None,
    reference: bool = False,
) -> Fabric:
    """A fresh simulator + fabric for one benchmark run, at the 4 KiB MTU.

    ``topo='auto'`` is :func:`~repro.net.topology.auto_spec`'s shape for
    ``n_hosts``; any other kind builds through
    :class:`~repro.net.topology.TopologySpec` with ``topo_params``.
    ``reference`` selects the per-packet, per-CQE reference engine.
    """
    spec = (auto_spec(n_hosts) if topo == "auto"
            else TopologySpec(topo, n_hosts, dict(topo_params or {})))
    return Fabric(
        Simulator(),
        spec.build(),
        link_bandwidth=gbit_per_s(link_gbit),
        streams=RandomStreams(seed),
        reference=reference,
    )


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _results_dir() -> Optional[str]:
    for cand in ("benchmarks/results", "results"):
        parent = os.path.dirname(cand) or "."
        if os.path.isdir(parent):
            os.makedirs(cand, exist_ok=True)
            return cand
    return None


def report(name: str, text: str) -> None:
    """Print a bench's data table and persist it for EXPERIMENTS.md."""
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    out_dir = _results_dir()
    if out_dir is not None:
        with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")


def paper_vs_measured(rows: Iterable[Sequence]) -> str:
    """Format (metric, paper, measured) triples."""
    return format_table(["metric", "paper", "measured"], rows)
