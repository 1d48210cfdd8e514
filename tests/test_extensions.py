"""Tests for extension features: protocol memory footprint (§III-D),
3-level fat-trees, multi-communicator capacity, switch unit behaviour."""

import numpy as np
import pytest

from repro import Communicator, Fabric, Simulator, Topology
from repro.models import ProtocolFootprint, communicators_fitting_llc
from repro.models.footprint import BF3_MAX_RECV_QUEUE
from repro.net.packet import Packet, PacketKind, mcast_dst
from repro.net.switch import Switch
from repro.sim import RandomStreams
from repro.units import GiB, KiB, MiB, gbit_per_s


# ------------------------------------------------------- memory footprint


def test_footprint_bitmap_is_one_bit_per_chunk():
    fp = ProtocolFootprint(recv_buffer_bytes=16 * GiB, chunk_bytes=4096)
    assert fp.n_chunks == 4 * 1024 * 1024
    assert fp.bitmap_bytes == 512 * KiB


def test_footprint_paper_16gb_example():
    """§III-D-d: 16 GB receive buffer → ~64 KiB bitmap at 4 KiB chunks...
    (the paper's 64 KiB figure corresponds to 2 GiB at 4 KiB, or 16 GB at
    32 KiB chunks; we check the arithmetic both ways)."""
    fp = ProtocolFootprint(recv_buffer_bytes=2 * GiB, chunk_bytes=4096)
    assert fp.bitmap_bytes == 64 * KiB


def test_footprint_staging_bounds():
    assert ProtocolFootprint.max_staging_bytes(4096) == 32 * MiB  # §III-D-b
    with pytest.raises(ValueError, match="receive "):
        ProtocolFootprint(recv_buffer_bytes=MiB, staging_slots=BF3_MAX_RECV_QUEUE + 1)


def test_footprint_constant_connection_count():
    """1 mcast QP per subgroup + 2 ring RC QPs, independent of P."""
    fp = ProtocolFootprint(recv_buffer_bytes=MiB, n_subgroups=4)
    assert fp.qp_count == 6


def test_footprint_llc_residency():
    fp = ProtocolFootprint(recv_buffer_bytes=2 * GiB)
    assert fp.llc_resident_bytes == fp.bitmap_bytes + 16 * KiB
    # Staging is DRAM, not LLC.
    assert fp.staging_bytes not in (fp.llc_resident_bytes,)


def test_more_than_16_communicators_fit_llc():
    """§III-D-d: with 64 KiB bitmaps and 16 KiB contexts, >16 fit."""
    assert communicators_fitting_llc() > 16


def test_communicators_fitting_validation():
    with pytest.raises(ValueError):
        communicators_fitting_llc(bitmap_bytes=0, context_bytes=0)


def test_many_communicators_run_on_one_fabric():
    """§V-C: each communicator maps to its own thread/QP set; several make
    progress concurrently on one fabric."""
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(12, 3, 2),
                    link_bandwidth=gbit_per_s(56), streams=RandomStreams(1))
    comms = [Communicator(fabric, hosts=[h, h + 4, h + 8]) for h in range(4)]
    handles = []
    datasets = []
    for i, comm in enumerate(comms):
        data = [np.full(8192, 10 * i + r, dtype=np.uint8) for r in range(3)]
        datasets.append(data)
        handles.append(comm.allgather_async(data))
    sim.drain([h.done_event for h in handles])
    for handle, data in zip(handles, datasets):
        assert handle.result().verify_allgather(data)


# --------------------------------------------------------- 3-level fat-tree


def test_fat_tree3_structure():
    topo = Topology.fat_tree3(64, n_leaf=8, n_mid=4, n_core=2, mid_group=2)
    assert topo.kind == "fat_tree3"
    assert topo.core_switches == ["core000", "core001"]
    assert len([s for s in topo.switch_names if s.startswith("leaf")]) == 8
    assert len([s for s in topo.switch_names if s.startswith("mid")]) == 4


def test_fat_tree3_cross_pod_routes_through_core():
    topo = Topology.fat_tree3(64, n_leaf=8, n_mid=4, n_core=2, mid_group=2)
    # Hosts 0 and 63 are in different pods.
    path = topo.path(0, 63)
    assert any(n.startswith("core") for n in path)
    assert path[0] == "h0" and path[-1] == "h63"


def test_fat_tree3_same_leaf_stays_local():
    topo = Topology.fat_tree3(64, n_leaf=8, n_mid=4, n_core=2, mid_group=2)
    assert topo.path(0, 1) == ["h0", "leaf000", "h1"]


def test_fat_tree3_collectives_work():
    sim = Simulator()
    fabric = Fabric(sim, Topology.fat_tree3(16, 4, 4, 2, mid_group=2),
                    link_bandwidth=gbit_per_s(56))
    comm = Communicator(fabric)
    data = [np.full(8192, r, dtype=np.uint8) for r in range(16)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)


def test_fat_tree3_mcast_tree_spans_pods():
    topo = Topology.fat_tree3(32, n_leaf=4, n_mid=4, n_core=2, mid_group=2)
    tree = topo.mcast_tree(0, list(range(32)))
    n_edges = sum(len(v) for v in tree.values()) // 2
    assert n_edges == len(tree) - 1
    assert any(n.startswith("core") for n in tree)


# -------------------------------------------------------------- switch unit


class _Sink:
    def __init__(self):
        self.got = []

    def receive(self, packet, channel):
        self.got.append(packet)


def test_switch_drops_unroutable_unicast():
    sim = Simulator()
    sw = Switch(sim, "s0")
    pkt = Packet(src=0, dst=99, kind=PacketKind.UD_SEND, payload_len=10)
    sw.receive(pkt, None)
    sim.run()
    assert sw.packets_dropped_no_route == 1


def test_switch_drops_unknown_mcast_group():
    sim = Simulator()
    sw = Switch(sim, "s0")
    pkt = Packet(src=0, dst=mcast_dst(7), kind=PacketKind.UD_SEND, payload_len=10)
    sw.receive(pkt, None)
    sim.run()
    assert sw.packets_dropped_no_route == 1


def test_switch_table_install_validates_ports():
    sim = Simulator()
    sw = Switch(sim, "s0")
    with pytest.raises(ValueError, match="no port"):
        sw.install_unicast(0, "nowhere")
    with pytest.raises(ValueError, match="no ports"):
        sw.install_mcast(0, {"nowhere"})


def test_switch_forwarding_delay_applies():
    from repro.net.link import Channel

    sim = Simulator()
    sink = _Sink()
    sw = Switch(sim, "s0", forwarding_delay=5e-6)
    ch = Channel(sim, "s0", "h0", sink, bandwidth=1e12, latency=0.0)
    sw.add_port(ch)
    sw.install_unicast(0, "h0")
    pkt = Packet(src=1, dst=0, kind=PacketKind.UD_SEND, payload_len=100, header_bytes=0)
    sw.receive(pkt, None)
    sim.run()
    assert sim.now >= 5e-6
    assert len(sink.got) == 1


def _mcast_counters(replan_after_traffic: bool):
    """A 16-host leaf-spine whose all-host multicast tree is re-planned
    around the spine it first used — after one multicast has crossed it,
    or before any traffic — then carries one more multicast from h0.
    Returns the tree change and the second multicast's per-channel and
    per-switch counters."""
    from repro.net import RecvWR, SendWR, Transport

    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(16, 4, 2))
    members = list(range(16))
    gid = fabric.create_mcast_group(members)
    qps = [fabric.nic(h).create_qp(Transport.UD) for h in members]
    wrs = []
    for h, qp in enumerate(qps):
        qp.attach_mcast(gid)
        mr = fabric.nic(h).memory.register(4096)
        wrs.append(RecvWR(wr_id=0, mr_key=mr.key, offset=0, length=4096))

    def multicast(imm):
        for qp, wr in zip(qps, wrs):
            qp.post_recv(wr)
        qps[0].post_send(SendWR(wr_id=imm, verb="send", mr_key=wrs[0].mr_key,
                                length=4096, imm=imm, mcast_gid=gid))
        sim.run()

    old = fabric.mcast_groups[gid].tree
    spine = next(n for n in old if n.startswith("spine"))
    if replan_after_traffic:
        multicast(0)
    fabric.rebuild_mcast_group(gid, members, exclude={spine})
    new = fabric.mcast_groups[gid].tree
    fabric.reset_counters()
    multicast(1)
    channels = {k: (ch.packets_sent, ch.bytes_sent, ch.packets_dropped)
                for k, ch in fabric.channels.items()}
    switches = {k: (sw.packets_forwarded, sw.packets_dropped_no_route)
                for k, sw in fabric.switches.items()}
    return spine in old and spine not in new, channels, switches


def test_replanned_tree_drops_the_compiled_egress_lists():
    """A switch compiles a group's egress channels on its first packet;
    re-planning the tree must drop them, or the next multicast still
    replicates along the old tree."""
    moved, channels, switches = _mcast_counters(replan_after_traffic=True)
    _, ref_channels, ref_switches = _mcast_counters(replan_after_traffic=False)
    assert moved
    assert channels == ref_channels
    assert switches == ref_switches
    assert sum(n for n, _ in switches.values()) > 0
