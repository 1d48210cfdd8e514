"""Figure 11 — per-process throughput at the full 188-node testbed scale.

Left panel: Broadcast at 188 nodes — multicast vs k-nomial vs binary tree.
Right panel: Allgather — multicast vs ring.

Shape criteria (paper §VI-B): the multicast Broadcast is the fastest
(up to 1.3× over k-nomial and 4.75× over the binary tree on the paper's
hardware); Allgather multicast ≈ ring for FSDP-typical sizes (both are
receive-path bound).

Memory note: an Allgather does not materialize its P² · N bytes.  Buffers
are lazily backed (DESIGN.md §6h): a rank's region records where its bytes
come from, and ``verify_allgather`` compares them without materializing,
so a 188-node multicast Allgather of the paper's 128 KiB FSDP shard peaks
under 200 MiB of resident memory (4 KiB UD chunks).  The 188-node point
here uses 16 KiB shards; the 128–256 KiB shard sizes run at 32 nodes.
Simulation granularity: one simulated chunk = up to 64 KiB of wire
traffic, with per-chunk software costs rescaled (see repro.bench).
"""

import numpy as np

from repro.bench import coarse_config, format_table, make_fabric, report
from repro.core.baselines import binary_tree_broadcast, knomial_broadcast, ring_allgather
from repro.core.communicator import Communicator
from repro.core.costmodel import HostCostModel
from repro.units import KiB, MiB, pretty_bytes, to_gbit_per_s

BCAST_P = 188
BCAST_CHUNK = 64 * KiB
BCAST_SIZES = (64 * KiB, 256 * KiB, MiB)

AG_POINTS = (  # (ranks, shard bytes, chunk bytes)
    (188, 16 * KiB, 16 * KiB),
    (32, 128 * KiB, 64 * KiB),
    (32, 256 * KiB, 64 * KiB),
)


def bcast_rows():
    rows = []
    ratios = {}
    cost = HostCostModel().scaled(BCAST_CHUNK / 4096)
    for n in BCAST_SIZES:
        data = np.random.default_rng(1).integers(0, 256, n, dtype=np.uint8)
        f1 = make_fabric(BCAST_P, mtu=BCAST_CHUNK)
        mc = Communicator(f1, config=coarse_config(BCAST_CHUNK)).broadcast(0, data)
        assert mc.verify_broadcast(data)
        f2 = make_fabric(BCAST_P, mtu=BCAST_CHUNK)
        kn = knomial_broadcast(f2, 0, data, cost=cost, radix=4)
        f3 = make_fabric(BCAST_P, mtu=BCAST_CHUNK)
        bt = binary_tree_broadcast(f3, 0, data, cost=cost, segment_bytes=BCAST_CHUNK)
        ratios[n] = (mc.throughput / kn.throughput, mc.throughput / bt.throughput)
        rows.append(
            (
                pretty_bytes(n),
                round(to_gbit_per_s(mc.throughput), 2),
                round(to_gbit_per_s(kn.throughput), 2),
                round(to_gbit_per_s(bt.throughput), 2),
                f"{ratios[n][0]:.2f}x",
                f"{ratios[n][1]:.2f}x",
            )
        )
    return rows, ratios


def ag_rows():
    rows = []
    ratios = {}
    for p, n, chunk in AG_POINTS:
        cost = HostCostModel().scaled(chunk / 4096)
        data = [np.full(n, r % 251, dtype=np.uint8) for r in range(p)]
        f1 = make_fabric(p, mtu=chunk)
        mc = Communicator(f1, config=coarse_config(chunk)).allgather(data)
        assert mc.verify_allgather(data)
        del f1
        f2 = make_fabric(p, mtu=chunk)
        ring = ring_allgather(f2, data, cost=cost)
        del f2
        ratios[(p, n)] = mc.throughput / ring.throughput
        rows.append(
            (
                p,
                pretty_bytes(n),
                round(to_gbit_per_s(mc.throughput), 2),
                round(to_gbit_per_s(ring.throughput), 2),
                f"{ratios[(p, n)]:.2f}x",
            )
        )
    return rows, ratios


def run_fig11():
    return bcast_rows(), ag_rows()


def test_fig11_throughput_188(benchmark):
    (b_rows, b_ratios), (a_rows, a_ratios) = benchmark.pedantic(
        run_fig11, rounds=1, iterations=1
    )
    report(
        "fig11_throughput_188",
        "Broadcast @188 nodes (paper: mcast up to 1.3x over k-nomial, "
        "4.75x over binary tree)\n"
        + format_table(
            ["msg", "mcast Gbit/s", "k-nomial Gbit/s", "bintree Gbit/s",
             "vs knomial", "vs bintree"],
            b_rows,
        )
        + "\n\nAllgather (paper: mcast ≈ ring at FSDP-typical sizes)\n"
        + format_table(
            ["ranks", "shard", "mcast Gbit/s", "ring Gbit/s", "mcast/ring"],
            a_rows,
        ),
    )
    # Multicast Broadcast beats both P2P trees at every size.
    for n, (vs_kn, vs_bt) in b_ratios.items():
        assert vs_kn > 1.0, f"knomial beat mcast at {n}"
        assert vs_bt > 1.0, f"bintree beat mcast at {n}"
    # The binary tree loses by more at the largest size (4.75x-style gap).
    assert b_ratios[BCAST_SIZES[-1]][1] > 1.5
    # Allgather: multicast at or above ring parity (paper: equal throughput
    # at FSDP sizes; our ring pays explicit per-step control latency, so
    # multicast comes out mildly ahead, never behind).
    for key, ratio in a_ratios.items():
        assert 0.9 < ratio < 1.8, f"AG parity broken at {key}: {ratio}"
