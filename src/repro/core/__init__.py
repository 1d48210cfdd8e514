"""The paper's contribution: multicast Broadcast + bandwidth-optimal Allgather.

Layering (bottom-up):

* :mod:`repro.core.chunking` — zero-copy buffer fragmentation and the
  32-bit immediate-data layout carrying (collective id, PSN).
* :mod:`repro.core.bitmap` — the receive bitmap, the only reliability state
  that grows with the buffer (paper §III-D, Fig 7).
* :mod:`repro.core.staging` — staging ring buffer between the wire and the
  user buffer (paper §III-B), tolerant of out-of-order delivery.
* :mod:`repro.core.sequencer` — broadcast-chain scheduling (Appendix A).
* :mod:`repro.core.subgroups` — multicast subgroup partitioning (§IV-C).
* :mod:`repro.core.control` — the RC control plane: dissemination barrier
  (RNR sync), activation signals, fetch requests, final handshake.
* :mod:`repro.core.broadcast` / :mod:`repro.core.reliability` — the
  constant-time reliable Broadcast datapaths (§III).
* :mod:`repro.core.allgather` — Allgather as a composition of Broadcasts
  (§IV).
* :mod:`repro.core.communicator` — the user-facing API.
* :mod:`repro.core.baselines` — P2P algorithms used for comparison.
"""

from repro.core.bitmap import Bitmap
from repro.core.chunking import ChunkPlan, ImmLayout
from repro.core.communicator import (
    CollectiveConfig,
    CollectiveResult,
    Communicator,
    FailurePolicy,
    PhaseBreakdown,
    RankStats,
)
from repro.core.costmodel import HostCostModel
from repro.core.sequencer import BroadcastSequencer
from repro.core.staging import StagingRing, recv_table
from repro.core.subgroups import SubgroupPlan

__all__ = [
    "Bitmap",
    "BroadcastSequencer",
    "ChunkPlan",
    "CollectiveConfig",
    "CollectiveResult",
    "Communicator",
    "FailurePolicy",
    "HostCostModel",
    "ImmLayout",
    "PhaseBreakdown",
    "RankStats",
    "StagingRing",
    "SubgroupPlan",
    "recv_table",
]
