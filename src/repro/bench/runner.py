"""Helpers shared by every benchmark: fabric factories, table formatting,
and result reporting (stdout + ``benchmarks/results/*.txt``)."""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from repro.core.communicator import CollectiveConfig
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

__all__ = ["make_fabric", "coarse_config", "format_table", "report",
           "paper_vs_measured"]


def make_fabric(
    n_hosts: int = 16,
    topo: str = "auto",
    link_gbit: float = 56.0,
    mtu: int = 4096,
    seed: int = 0,
    topo_params: Optional[dict] = None,
    reference: bool = False,
) -> Fabric:
    """A fresh simulator + fabric for one benchmark run.

    ``topo='auto'`` picks a star for tiny clusters, the paper's 188-node
    testbed shape when asked for 188 hosts, and a leaf-spine otherwise.
    Zoo kinds (``torus``/``dragonfly``/``multi_rail``/…) route through
    :class:`~repro.net.topology.TopologySpec` with ``topo_params``.
    ``mtu`` doubles as the *simulation granularity* knob: benches that only
    need byte-accurate traffic or large-message timing raise it so one
    simulated packet stands for many wire packets (documented per bench).
    ``reference`` selects the per-packet, per-CQE reference engine.
    """
    if topo == "auto":
        if n_hosts == 188:
            topology = Topology.testbed_188()
        elif n_hosts <= 8:
            topology = Topology.star(n_hosts)
        else:
            n_leaf = max(2, -(-n_hosts // 16))
            topology = Topology.leaf_spine(n_hosts, n_leaf, max(2, n_leaf // 2))
    elif topo == "star":
        topology = Topology.star(n_hosts)
    elif topo == "testbed_188":
        topology = Topology.testbed_188()
    elif topo == "back_to_back":
        topology = Topology.back_to_back()
    else:
        from repro.net.topology import TopologySpec
        topology = TopologySpec(topo, n_hosts, dict(topo_params or {})).build()
    return Fabric(
        Simulator(),
        topology,
        link_bandwidth=gbit_per_s(link_gbit),
        mtu=mtu,
        streams=RandomStreams(seed),
        reference=reference,
    )


def coarse_config(chunk_bytes: int, **overrides) -> CollectiveConfig:
    """A config for coarse-grained timing runs: one simulated chunk stands
    for ``chunk_bytes / 4096`` real datagrams.  Per-chunk datapath costs
    are scaled by the aggregation factor so total software time stays
    calibrated; per-batch and per-control-message costs are *not* scaled —
    they are paid per operation, not per byte."""
    factor = max(1.0, chunk_bytes / 4096)
    base = HostCostModel()
    cost = HostCostModel(
        cqe_poll=base.cqe_poll * factor,
        cqe_process=base.cqe_process * factor,
        recv_repost=base.recv_repost * factor,
        copy_issue=base.copy_issue * factor,
        send_wqe=base.send_wqe * factor,
        doorbell=base.doorbell,
        ctrl_message=base.ctrl_message,
    )
    return CollectiveConfig(chunk_size=chunk_bytes, cost=cost, **overrides)


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
