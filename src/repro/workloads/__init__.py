"""Experiment workloads.

* :mod:`repro.workloads.fsdp` — the FSDP interleaving scenario (paper
  §II-A, Appendix B): concurrent Allgather + Reduce-Scatter on the same
  nodes, comparing {ring, ring} against {multicast, INC}.
* :mod:`repro.workloads.osu` — OSU-benchmark-style message-size sweeps
  with warm-up/iteration discipline (paper §VI-A methodology).
"""

from repro.workloads.fsdp import (
    FsdpPairResult,
    pair_payloads,
    run_concurrent_pair,
    run_fsdp_backward_pipeline,
)
from repro.workloads.osu import SweepPoint, sweep

__all__ = [
    "FsdpPairResult",
    "pair_payloads",
    "SweepPoint",
    "run_concurrent_pair",
    "run_fsdp_backward_pipeline",
    "sweep",
]
