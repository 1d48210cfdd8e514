"""Closed-form analytical models from the paper.

* :mod:`repro.models.traffic` — the Fig 2 fat-tree traffic model
  (P2P vs multicast Allgather on a 1024-node radix-32 fat-tree).
* :mod:`repro.models.boundary` — Fig 3's data movement at the training
  node boundary for {INC + Mcast} vs {Ring + Ring}.
* :mod:`repro.models.memory` — Fig 7's bitmap/receive-buffer sizing as a
  function of PSN bits in the 32-bit immediate.
* :mod:`repro.models.schedule` — a multicast collective's expected time
  as one chain schedule (wire, software, sequencing, fill): what the
  cutoff timer arms from and the tuner ranks with.
* :mod:`repro.models.speedup` — Appendix B's concurrent {AG, RS} speedup
  ``S = 2 − 2/P`` and alpha-beta time models for cross-validating the
  packet-level simulator.
"""

from repro.models.boundary import NodeBoundary, node_boundary_table
from repro.models.footprint import ProtocolFootprint, communicators_fitting_llc
from repro.models.memory import DEVICE_MEMORY, bitmap_bytes, max_receive_buffer
from repro.models.speedup import (
    concurrent_speedup,
    time_composed_allreduce,
    time_inc_reduce_scatter,
    time_knomial_bcast,
    time_mcast_allgather,
    time_mcast_bcast,
    time_p2p_alltoall,
    time_pipelined_tree_bcast,
    time_ring_allgather,
)
from repro.models.traffic import (
    DragonflyTraffic,
    FatTreeTraffic,
    MultiRailTraffic,
    TorusTraffic,
)

__all__ = [
    "DEVICE_MEMORY",
    "DragonflyTraffic",
    "FatTreeTraffic",
    "MultiRailTraffic",
    "TorusTraffic",
    "NodeBoundary",
    "ProtocolFootprint",
    "communicators_fitting_llc",
    "bitmap_bytes",
    "concurrent_speedup",
    "max_receive_buffer",
    "node_boundary_table",
    "time_composed_allreduce",
    "time_inc_reduce_scatter",
    "time_knomial_bcast",
    "time_mcast_allgather",
    "time_mcast_bcast",
    "time_p2p_alltoall",
    "time_pipelined_tree_bcast",
    "time_ring_allgather",
]
