"""repro — network-offloaded bandwidth-optimal Broadcast and Allgather.

A simulation-backed, full-system reproduction of *"Network-Offloaded
Bandwidth-Optimal Broadcast and Allgather for Distributed AI"* (SC 2024):

* a packet-level discrete-event RDMA fabric (:mod:`repro.net` on
  :mod:`repro.sim`) with fat-tree topologies, switch multicast, UD/UC/RC
  transports, fault injection and per-port telemetry;
* the paper's reliable constant-time Broadcast and bandwidth-optimal
  Allgather protocols (:mod:`repro.core`) — staging ring, PSN bitmap,
  broadcast-chain sequencer, multicast subgroups, ring fetch recovery;
* P2P baselines and a SHARP-like in-network-compute Reduce-Scatter
  (:mod:`repro.core.baselines`, :mod:`repro.net.inc`);
* a cycle-approximate SmartNIC/DPA offload model (:mod:`repro.dpa`);
* the paper's closed-form models (:mod:`repro.models`) and experiment
  workloads (:mod:`repro.workloads`).

Quickstart
----------
>>> import numpy as np
>>> from repro import Communicator, Fabric, Simulator, Topology
>>> fabric = Fabric(Simulator(), Topology.leaf_spine(8, 2, 2))
>>> comm = Communicator(fabric)
>>> data = [np.full(64 * 1024, r, dtype=np.uint8) for r in range(comm.size)]
>>> result = comm.allgather(data)
>>> assert result.verify_allgather(data)
"""

from repro.core.communicator import (
    CollectiveConfig,
    CollectiveHandle,
    CollectiveKind,
    CollectiveRequest,
    CollectiveRequestError,
    CollectiveResult,
    Communicator,
    ComposedHandle,
    FailurePolicy,
    OpHandle,
    PhaseBreakdown,
    PhaseStats,
    RankStats,
)
from repro.core.costmodel import HostCostModel
from repro.core.reliability import (
    CollectiveAbortedError,
    CutoffEstimator,
    PeerDeadError,
    ReliabilityError,
)
from repro.net.fabric import Fabric
from repro.net.faults import CrashSpec, GilbertElliott, StragglerSpec, Window
from repro.net.link import FaultSpec
from repro.net.topology import Topology, TopologyError, TopologySpec
from repro.net.plan import MulticastPlan, plan_mcast
from repro.obs import TraceConfig, Tracer, TraceView
from repro.sim.engine import Simulator, WatchdogError
from repro.sim.random import RandomStreams

__version__ = "1.0.0"

__all__ = [
    "CollectiveAbortedError",
    "CollectiveConfig",
    "CollectiveHandle",
    "CollectiveKind",
    "CollectiveRequest",
    "CollectiveRequestError",
    "CollectiveResult",
    "Communicator",
    "ComposedHandle",
    "CrashSpec",
    "CutoffEstimator",
    "Fabric",
    "FailurePolicy",
    "FaultSpec",
    "GilbertElliott",
    "HostCostModel",
    "OpHandle",
    "PeerDeadError",
    "PhaseBreakdown",
    "PhaseStats",
    "RandomStreams",
    "RankStats",
    "ReliabilityError",
    "Simulator",
    "StragglerSpec",
    "MulticastPlan",
    "Topology",
    "TopologyError",
    "TopologySpec",
    "plan_mcast",
    "TraceConfig",
    "Tracer",
    "TraceView",
    "WatchdogError",
    "Window",
    "__version__",
]
