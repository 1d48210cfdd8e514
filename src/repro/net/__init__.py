"""Simulated RDMA fabric.

This package models everything between two user buffers on different hosts:

* :mod:`repro.net.packet` — packets/datagrams with payloads by reference.
* :mod:`repro.net.link` — bandwidth/latency channels with fault injection,
  reordering, and per-direction traffic counters.
* :mod:`repro.net.switch` — forwarding + multicast replication + counters.
* :mod:`repro.net.topology` — fat-tree (and simpler) topology builders with
  deterministic destination routing and multicast spanning trees.
* :mod:`repro.net.memory` — registered memory regions (the RDMA MR model).
* :mod:`repro.net.nic` — host NIC: queue pairs, completion queues, the send
  engine, receive matching, RNR behaviour, and one-sided RC operations.
* :mod:`repro.net.fabric` — glues a topology, switches, links and NICs into
  a runnable network and exposes counter scraping (the "switch telemetry"
  used by the paper's Figure 12 experiment).

The user-visible API mirrors InfiniBand Verbs closely enough that the
protocol code in :mod:`repro.core` reads like its C counterpart: create a
QP of a given transport, attach it to a multicast group, pre-post receive
work requests, post sends with immediate data, poll CQEs.
"""

from repro.net.packet import Packet, PacketKind
from repro.net.faults import CrashSpec, GilbertElliott, StragglerSpec, Window
from repro.net.link import Channel, FaultSpec
from repro.net.switch import Switch
from repro.net.memory import Memory, MemoryRegion
from repro.net.nic import (
    CQE,
    CompletionQueue,
    Nic,
    Opcode,
    QueuePair,
    RecvWR,
    SendWR,
    Transport,
)
from repro.net.topology import Topology, TopologyError, TopologySpec
from repro.net.plan import (
    MulticastPlan,
    PlanError,
    plan_mcast,
    validate_disjointness,
    validate_plan,
)
from repro.net.fabric import Fabric

__all__ = [
    "CQE",
    "Channel",
    "CompletionQueue",
    "CrashSpec",
    "Fabric",
    "FaultSpec",
    "GilbertElliott",
    "Memory",
    "MemoryRegion",
    "MulticastPlan",
    "Nic",
    "Opcode",
    "Packet",
    "PacketKind",
    "PlanError",
    "QueuePair",
    "RecvWR",
    "SendWR",
    "StragglerSpec",
    "Switch",
    "Topology",
    "TopologyError",
    "Window",
    "TopologySpec",
    "Transport",
    "plan_mcast",
    "validate_disjointness",
    "validate_plan",
]
