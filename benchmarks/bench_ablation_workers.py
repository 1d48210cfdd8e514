"""Ablation — multicast subgroups & receive workers (paper §IV-C).

The Allgather receive path absorbs (P−1)× more bytes than the send path
injects, and a single worker's per-CQE software cost caps its rate.  This
ablation runs a Broadcast over a fast (200 Gbit/s) link where one worker
cannot keep up, and scales the subgroup/worker count: the paper's packet
parallelism restores line rate.  It also demonstrates the asymmetric
mapping (1 send worker, k receive workers).
"""

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.costmodel import HostCostModel
from repro.units import KiB, MiB, to_gbit_per_s

SIZE = 2 * MiB
CHUNK = 16 * KiB
WORKERS = (1, 2, 4)

#: inflated per-chunk costs: a "weak" progress core that a 200 Gbit/s link
#: outruns (models the CPU-starved deployments of §V-B)
WEAK_CORE = HostCostModel().scaled(8.0)


def run_sweep():
    out = {}
    data = np.random.default_rng(3).integers(0, 256, SIZE, dtype=np.uint8)
    for w in WORKERS:
        fabric = make_fabric(8, mtu=CHUNK, link_gbit=200)
        config = CollectiveConfig(chunk_size=CHUNK, n_subgroups=w, cost=WEAK_CORE)
        comm = Communicator(fabric, config=config)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
        out[w] = res.throughput
    return out


def test_ablation_workers(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [(w, f"{to_gbit_per_s(tp):.1f}") for w, tp in out.items()]
    report(
        "ablation_workers",
        format_table(["subgroups (one receive worker each)", "throughput Gbit/s"],
                     rows)
        + "\nweak progress core: one worker cannot sustain a 200 Gbit/s link;"
        "\npacket parallelism across multicast subgroups restores the rate.",
    )
    # Scaling from 1 → 4 workers must raise throughput substantially.
    assert out[4] > out[1] * 1.8
    assert out[2] > out[1] * 1.3
