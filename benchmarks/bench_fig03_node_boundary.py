"""Figure 3 — data movement at the training-node boundary.

Regenerates the paper's table for {INC + Mcast} vs {Ring + Ring} and
cross-checks the *measured* NIC-boundary bytes of the simulator against
the closed-form entries.
"""

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.baselines import ring_allgather
from repro.core.communicator import Communicator
from repro.models import node_boundary_table
from repro.units import KiB


def model_rows(n=64 * KiB, p=16):
    table = node_boundary_table(n, p)
    return [
        (f"{coll}/{algo}", row.send, row.recv)
        for (coll, algo), row in sorted(table.items())
    ]


def measured_allgather_boundary(p=8, n=64 * KiB):
    """Per-NIC injected bytes for mcast vs ring allgather on the DES."""
    data = [np.full(n, r, dtype=np.uint8) for r in range(p)]
    out = {}
    for algo in ("mcast", "ring"):
        fabric = make_fabric(p, link_gbit=56)
        if algo == "mcast":
            res = Communicator(fabric).allgather(data)
        else:
            res = ring_allgather(fabric, data)
        assert res.verify_allgather(data)
        out[algo] = fabric.host_injected_bytes(payload_only=True) / p
    return out


def test_fig03_node_boundary(benchmark):
    rows = model_rows()
    measured = benchmark.pedantic(measured_allgather_boundary, rounds=1, iterations=1)
    p, n = 8, 64 * KiB
    report(
        "fig03_node_boundary",
        format_table(["configuration", "NIC send", "NIC recv"], rows)
        + "\n\nmeasured per-NIC injection (P=8, 64 KiB):\n"
        + format_table(
            ["algorithm", "bytes/NIC", "model"],
            [
                ("allgather/mcast", int(measured["mcast"]), n),
                ("allgather/ring", int(measured["ring"]), n * (p - 1)),
            ],
        ),
    )
    # Multicast injects ~N per NIC (+ control), ring injects ~N(P-1).
    assert measured["mcast"] < n * 1.3
    assert measured["ring"] > n * (p - 1) * 0.95
    assert measured["ring"] / measured["mcast"] > (p - 1) * 0.7
