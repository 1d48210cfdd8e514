"""Figure 10 — protocol critical-path breakdown.

Regenerates the stacked breakdown of Allgather progress time into RNR
synchronization, multicast datapath and final handshake, across node
counts and message sizes.  Shape criteria: synchronization dominates only
small messages / small scale; from 16 nodes and large buffers the
datapath takes ~all of the time (paper: 99 %).
"""

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import Communicator
from repro.units import KiB, pretty_bytes

NODES = (4, 16)
SIZES = (16 * KiB, 256 * KiB, 1024 * KiB)


def run_breakdown():
    rows = []
    fractions = {}
    for p in NODES:
        for n in SIZES:
            comm = Communicator(make_fabric(p))
            data = [np.full(n, r % 251, dtype=np.uint8) for r in range(p)]
            res = comm.allgather(data)
            assert res.verify_allgather(data)
            ph = res.phase_means()
            frac = ph.multicast / ph.total
            fractions[(p, n)] = frac
            rows.append(
                (
                    p,
                    pretty_bytes(n),
                    f"{ph.sync * 1e6:.1f}",
                    f"{ph.multicast * 1e6:.1f}",
                    f"{ph.handshake * 1e6:.1f}",
                    f"{frac * 100:.1f}%",
                )
            )
    return rows, fractions


def test_fig10_critical_path(benchmark):
    rows, fractions = benchmark.pedantic(run_breakdown, rounds=1, iterations=1)
    report(
        "fig10_critical_path",
        format_table(
            ["nodes", "msg", "sync µs", "multicast µs", "handshake µs",
             "datapath share"],
            rows,
        ),
    )
    # Datapath share grows with message size at fixed node count...
    for p in NODES:
        shares = [fractions[(p, n)] for n in SIZES]
        assert shares == sorted(shares), f"P={p}: {shares}"
    # ...and dominates at 16 nodes / 1 MiB (paper: 99 % from 16 nodes).
    assert fractions[(16, SIZES[-1])] > 0.95
    # Small message at small scale: synchronization clearly visible.
    assert fractions[(4, SIZES[0])] < 0.9
