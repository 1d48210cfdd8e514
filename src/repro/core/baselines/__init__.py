"""Point-to-point baseline collectives (paper §VI-B comparators).

These are the algorithms the paper benchmarks its multicast protocol
against, implemented on the *same* simulated fabric so that time and
traffic comparisons are apples-to-apples:

* :func:`ring_allgather` — NCCL/UCC's bandwidth-optimal P2P Allgather.
* :func:`linear_allgather` — the naive P-1-destination variant.
* :func:`recursive_doubling_allgather` — log-step variant (P = 2^k).
* :func:`knomial_broadcast` — UCC's k-nomial tree Broadcast.
* :func:`binary_tree_broadcast` — pipelined binary-tree Broadcast.
* :func:`ring_reduce_scatter` — ring Reduce-Scatter (the FSDP companion).
* :func:`inc_reduce_scatter` — SHARP-like in-network-compute
  Reduce-Scatter running on the switch-reduction substrate
  (:mod:`repro.net.inc`).
* :func:`inc_reduce` — rooted Reduce on the same substrate (PSN
  ownership pinned to one rank).
* :func:`p2p_alltoall` — personalized exchange over RC writes (the MoE
  expert-parallel pattern).

All baselines use RC transport: RDMA writes with immediate notifications,
hardware reliability — the production configuration whose *send-path* cost
the paper's Insight 1 lower-bounds at Ω(N·(P−1)) bytes.  Like the
multicast path, each lands in lazily backed memory regions and returns a
:class:`~repro.core.communicator.CollectiveResult` whose ``buffers`` is a
:class:`~repro.net.memory.PayloadBuffers` (DESIGN.md §6h).
"""

from repro.core.baselines.base import P2PNet
from repro.core.baselines.allgather import (
    linear_allgather,
    recursive_doubling_allgather,
    ring_allgather,
)
from repro.core.baselines.alltoall import p2p_alltoall
from repro.core.baselines.bcast import binary_tree_broadcast, knomial_broadcast
from repro.core.baselines.reduce import (
    inc_reduce,
    inc_reduce_scatter,
    ring_reduce_scatter,
)

__all__ = [
    "P2PNet",
    "binary_tree_broadcast",
    "inc_reduce",
    "inc_reduce_scatter",
    "knomial_broadcast",
    "p2p_alltoall",
    "linear_allgather",
    "recursive_doubling_allgather",
    "ring_allgather",
    "ring_reduce_scatter",
]
