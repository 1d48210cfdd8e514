"""Appendix B — speedup of {AG_mcast, RS_INC} over {AG_ring, RS_ring}.

Both collectives run *concurrently on the same simulated fabric*, so they
genuinely contend for link bandwidth, exactly the FSDP interleaving
scenario.  Shape criteria: the measured makespan ratio grows with P and
tracks ``S = 2 − 2/P`` (the closed form assumes an RS input of N·(P−1);
ours is N·P, so the ideal ratio is ``2(P−1)/(P+1)``, shown alongside).
"""

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import CollectiveConfig
from repro.models import concurrent_speedup
from repro.units import KiB
from repro.workloads import run_concurrent_pair

AG_BYTES = 64 * KiB
SIZES = (4, 8, 16)


def run_appb():
    rows = []
    measured = {}
    for p in SIZES:
        ring = run_concurrent_pair(make_fabric(p), "ring", AG_BYTES)
        # Maximal chain parallelism overlaps the chain-activation gaps
        # (§IV-A); the receive path remains the binding resource.
        opt = run_concurrent_pair(
            make_fabric(p), "optimal", AG_BYTES, config=CollectiveConfig(n_chains=p)
        )
        assert ring.correct and opt.correct
        s = ring.makespan / opt.makespan
        measured[p] = s
        rows.append(
            (
                p,
                f"{ring.makespan * 1e6:.0f}",
                f"{opt.makespan * 1e6:.0f}",
                f"{s:.2f}",
                f"{concurrent_speedup(p):.2f}",
                f"{2 * (p - 1) / (p + 1):.2f}",
            )
        )
    return rows, measured


def test_appb_speedup(benchmark):
    rows, measured = benchmark.pedantic(run_appb, rounds=1, iterations=1)
    report(
        "appb_speedup",
        format_table(
            ["P", "ring pair µs", "optimal pair µs", "measured S",
             "paper S=2-2/P", "ideal (N·P input)"],
            rows,
        ),
    )
    # Speedup grows with P...
    values = [measured[p] for p in SIZES]
    assert values == sorted(values)
    # ...exceeds 1 everywhere, and lands near the closed form at P=16
    # (ideal for our N·P-sized RS input: 2(P−1)/(P+1) ≈ 1.76; paper's
    # S = 2 − 2/P ≈ 1.88).
    assert all(v > 1.0 for v in values)
    ideal = 2 * (SIZES[-1] - 1) / (SIZES[-1] + 1)
    assert abs(measured[SIZES[-1]] - ideal) / ideal < 0.25
