"""Ablation — broadcast-chain parallelism M (paper §IV-A, Appendix A).

The sequencer splits the Allgather ring into M parallel chains.  M=1
serializes the roots completely (per-step activation latency adds up);
M=P starts everyone at once (maximal overlap, maximal instantaneous
incast).  This ablation sweeps M at fixed P and shows completion time
improving as chain activation gaps overlap, while per-NIC traffic stays
constant (the schedule changes, the bytes do not).
"""

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import CollectiveConfig, Communicator
from repro.units import KiB

P = 16
SHARD = 64 * KiB
CHAINS = (1, 2, 4, 8, 16)


def run_sweep():
    out = {}
    data = [np.full(SHARD, r % 251, dtype=np.uint8) for r in range(P)]
    for m in CHAINS:
        comm = Communicator(make_fabric(P), config=CollectiveConfig(n_chains=m))
        res = comm.allgather(data)
        assert res.verify_allgather(data)
        out[m] = (
            res.duration,
            res.traffic["host_injected_bytes"] / P,
        )
    return out


def test_ablation_chains(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        (m, f"{dur * 1e6:.1f}", f"{int(inj)}")
        for m, (dur, inj) in out.items()
    ]
    report(
        "ablation_chains",
        format_table(["chains M", "duration µs", "injected B/NIC"], rows),
    )
    durations = [out[m][0] for m in CHAINS]
    # More chains → faster (activation gaps overlap), monotonically here.
    assert durations[-1] < durations[0] * 0.85
    # Traffic is schedule-independent: per-NIC injection ~constant.
    injections = [out[m][1] for m in CHAINS]
    assert max(injections) < min(injections) * 1.05
