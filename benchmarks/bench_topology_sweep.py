"""Topology-zoo sweep: achieved collective time vs the analytic bound.

Sweeps broadcast and allgather across host counts (16 / 64 / 188) and
topology families (fat-tree, torus, dragonfly, 2-rail multi-rail),
reporting the simulated completion time next to the family's analytic
single-port floor (:mod:`repro.models.traffic`) and the achieved
fraction of that bound.  The multi-rail rows additionally report the
measured speedup over the single-rail fat-tree base at the same size —
the acceptance figure for Nezha-style rail striping, asserted
``>= MIN_BCAST_RAIL_SPEEDUP`` for every broadcast row.

Every cell runs 4 KiB UD datagrams.  ``--smoke`` trims the sweep to
the 16-host row per family for the CI ``topology-smoke`` job.

Results are persisted to ``benchmarks/results/topology_sweep.txt`` —
the source of the EXPERIMENTS.md achieved-vs-bound table.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import CollectiveConfig, Communicator
from repro.models import DragonflyTraffic, FatTreeTraffic, MultiRailTraffic, TorusTraffic
from repro.units import KiB, MiB, gbit_per_s

LINK_GBIT = 56.0
BCAST_PAYLOAD = 4 * MiB
AG_SHARD = 256 * KiB
#: the least a 2-rail broadcast may read over its single-rail base: the
#: root feeds its subgroups' QPs round-robin, so both rails carry data
#: at once (two rails bound it at 2x)
MIN_BCAST_RAIL_SPEEDUP = 1.6

#: family -> host count -> (topo kind, TopologySpec params, traffic model)
SHAPES: Dict[str, Dict[int, tuple]] = {
    "fat_tree": {
        16: ("auto", None,
             FatTreeTraffic(n_hosts=16, radix=8)),
        64: ("auto", None,
             FatTreeTraffic(n_hosts=64, radix=16)),
        188: ("auto", None,
              FatTreeTraffic(n_hosts=188, radix=32)),
    },
    "torus": {
        16: ("torus", {"dims": [4, 4]}, TorusTraffic((4, 4))),
        64: ("torus", {"dims": [8, 8]}, TorusTraffic((8, 8))),
        188: ("torus", {"dims": [47], "hosts_per_node": 4},
              TorusTraffic((47,), hosts_per_node=4)),
    },
    "dragonfly": {
        16: ("dragonfly",
             {"n_groups": 4, "routers_per_group": 2, "hosts_per_router": 2},
             DragonflyTraffic(4, 2, hosts_per_router=2)),
        64: ("dragonfly",
             {"n_groups": 4, "routers_per_group": 4, "hosts_per_router": 4},
             DragonflyTraffic(4, 4, hosts_per_router=4)),
        188: ("dragonfly",
              {"n_groups": 4, "routers_per_group": 47, "hosts_per_router": 1},
              DragonflyTraffic(4, 47)),
    },
    "multi_rail": {
        16: ("multi_rail",
             {"base_kind": "leaf_spine",
              "base_params": {"n_leaf": 4, "n_spine": 2}, "n_rails": 2},
             MultiRailTraffic(
                 FatTreeTraffic(n_hosts=16, radix=8), 2)),
        64: ("multi_rail",
             {"base_kind": "leaf_spine",
              "base_params": {"n_leaf": 8, "n_spine": 4}, "n_rails": 2},
             MultiRailTraffic(
                 FatTreeTraffic(n_hosts=64, radix=16), 2)),
        188: ("multi_rail",
              {"base_kind": "leaf_spine",
               "base_params": {"n_leaf": 12, "n_spine": 6}, "n_rails": 2},
              MultiRailTraffic(
                  FatTreeTraffic(n_hosts=188, radix=32), 2)),
    },
}


def _run(collective: str, kind: str, n_hosts: int,
         params: Optional[dict]) -> float:
    fabric = make_fabric(n_hosts, topo=kind, link_gbit=LINK_GBIT,
                         topo_params=params)
    # 4 subgroups: the paper's operating point, and on 2-rail fabrics
    # the striping needs a rail-count multiple to spread planes.
    cfg = CollectiveConfig(n_subgroups=4)
    comm = Communicator(fabric, config=cfg)
    if collective == "broadcast":
        data = np.zeros(BCAST_PAYLOAD, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        send = [np.full(AG_SHARD, r % 251, dtype=np.uint8)
                for r in range(n_hosts)]
        res = comm.allgather(send)
        assert res.verify_allgather(send)
    return res.duration


def sweep(sizes, collectives) -> str:
    bw = gbit_per_s(LINK_GBIT)
    base_times: Dict[tuple, float] = {}
    rows = []
    for collective in collectives:
        nbytes = BCAST_PAYLOAD if collective == "broadcast" else AG_SHARD
        for family, by_size in SHAPES.items():
            for n_hosts in sizes:
                kind, params, model = by_size[n_hosts]
                achieved = _run(collective, kind, n_hosts, params)
                bound = (model.bcast_time_bound(nbytes, bw)
                         if collective == "broadcast"
                         else model.allgather_time_bound(nbytes, bw))
                if family == "fat_tree":
                    base_times[(collective, n_hosts)] = achieved
                speedup = ""
                if family == "multi_rail":
                    base = base_times.get((collective, n_hosts))
                    if base:
                        speedup = f"{base / achieved:.2f}x"
                        assert (collective != "broadcast"
                                or base / achieved >= MIN_BCAST_RAIL_SPEEDUP), (
                            f"2-rail broadcast at {n_hosts} hosts reads "
                            f"{speedup} over one rail")
                rows.append([
                    collective, family, n_hosts,
                    f"{achieved * 1e6:.1f}",
                    f"{bound * 1e6:.1f}",
                    f"{bound / achieved:.2f}",
                    speedup,
                ])
    return format_table(
        ["collective", "family", "hosts", "achieved_us", "bound_us",
         "bound_frac", "vs_1rail"], rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="16-host row per family only (CI topology-smoke)")
    args = ap.parse_args()
    sizes = (16,) if args.smoke else (16, 64, 188)
    table = sweep(sizes, ("broadcast", "allgather"))
    report("topology_sweep" + ("_smoke" if args.smoke else ""), table)


if __name__ == "__main__":
    main()
