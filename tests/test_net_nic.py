"""Integration tests: NIC + fabric verbs semantics (UD/UC/RC)."""

import numpy as np
import pytest

from repro.net import Fabric, Opcode, RecvWR, SendWR, Topology, Transport
from repro.net.faults import CrashSpec
from repro.net.link import FaultSpec
from repro.sim import Simulator
from repro.units import gbit_per_s


def make_fabric(topo=None, **kw):
    sim = Simulator()
    fabric = Fabric(sim, topo or Topology.star(4), link_bandwidth=gbit_per_s(100), **kw)
    return sim, fabric


def fill(mr, value=None):
    """Fill a memory region with a deterministic pattern."""
    if value is None:
        mr.buf[:] = np.arange(mr.nbytes, dtype=np.uint64).astype(np.uint8)
    else:
        mr.buf[:] = value
    return mr


# ----------------------------------------------------------------------- UD


def test_ud_send_recv_with_imm():
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(1024))
    r_mr = receiver.memory.register(4096)

    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    rqp.post_recv(RecvWR(wr_id=1, mr_key=r_mr.key, offset=100, length=2048))
    sqp.post_send(
        SendWR(wr_id=2, verb="send", mr_key=s_mr.key, offset=0, length=1024,
               imm=0xABC, dst=1, dst_qpn=rqp.qpn)
    )
    sim.run()

    cqes = rqp.recv_cq.poll()
    assert len(cqes) == 1
    cqe = cqes[0]
    assert cqe.opcode is Opcode.RECV
    assert cqe.imm == 0xABC
    assert cqe.byte_len == 1024
    assert cqe.src == 0
    assert np.array_equal(r_mr.buf[100:1124], s_mr.buf[:1024])
    # Sender got a local completion too.
    assert [c.opcode for c in sqp.send_cq.poll()] == [Opcode.SEND]


def test_ud_rnr_drop_when_no_recv_posted():
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(512))
    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    sqp.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=512,
                         dst=1, dst_qpn=rqp.qpn))
    sim.run()
    assert rqp.rnr_drops == 1
    assert len(rqp.recv_cq) == 0
    assert fabric.total_rnr_drops() == 1


def test_ud_rnr_drop_on_buffer_too_small():
    """A posted WR shorter than the payload is a local length error: the
    datagram is consumed and dropped (counted as RNR), never truncated."""
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(2048))
    r_mr = receiver.memory.register(2048)
    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    rqp.post_recv(RecvWR(wr_id=1, mr_key=r_mr.key, offset=0, length=100))
    sqp.post_send(SendWR(wr_id=2, verb="send", mr_key=s_mr.key, length=2048,
                         dst=1, dst_qpn=rqp.qpn))
    sim.run()
    assert rqp.rnr_drops == 1
    assert receiver.rnr_drops == 1
    assert len(rqp.recv_cq) == 0
    # The short WR was consumed by the drop (verbs semantics).
    assert len(rqp.recv_queue) == 0


def test_ud_rnr_drops_count_per_datagram():
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(512))
    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    for i in range(3):
        sqp.post_send(SendWR(wr_id=i, verb="send", mr_key=s_mr.key, length=512,
                             dst=1, dst_qpn=rqp.qpn))
    sim.run()
    assert rqp.rnr_drops == 3
    assert fabric.total_rnr_drops() == 3


def test_ud_mtu_enforced():
    sim, fabric = make_fabric()
    nic = fabric.nic(0)
    mr = nic.memory.register(8192)
    qp = nic.create_qp(Transport.UD)
    with pytest.raises(ValueError, match="MTU"):
        qp.post_send(SendWR(wr_id=1, verb="send", mr_key=mr.key, length=8192,
                            dst=1, dst_qpn=1))


def test_ud_unsignaled_send_no_cqe():
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(128))
    r_mr = receiver.memory.register(128)
    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    rqp.post_recv(RecvWR(wr_id=0, mr_key=r_mr.key, offset=0, length=128))
    sqp.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=128,
                         dst=1, dst_qpn=rqp.qpn, signaled=False))
    sim.run()
    assert len(sqp.send_cq) == 0
    assert len(rqp.recv_cq) == 1


def test_ud_multicast_delivers_to_all_members_except_sender():
    sim, fabric = make_fabric()
    gid = fabric.create_mcast_group([0, 1, 2, 3])
    qps = {}
    mrs = {}
    for h in range(4):
        nic = fabric.nic(h)
        mr = nic.memory.register(4096)
        qp = nic.create_qp(Transport.UD)
        qp.attach_mcast(gid)
        qp.post_recv(RecvWR(wr_id=h, mr_key=mr.key, offset=0, length=4096))
        qps[h], mrs[h] = qp, mr
    src_mr = fill(fabric.nic(0).memory.register(1000))
    qps[0].post_send(SendWR(wr_id=9, verb="send", mr_key=src_mr.key, length=1000,
                            imm=5, mcast_gid=gid))
    sim.run()
    for h in (1, 2, 3):
        cqes = qps[h].recv_cq.poll()
        assert len(cqes) == 1 and cqes[0].imm == 5
        assert np.array_equal(mrs[h].buf[:1000], src_mr.buf[:1000])
    # The sender must not loop its own datagram back.
    assert len(qps[0].recv_cq) == 0


def test_ud_multicast_on_leaf_spine():
    topo = Topology.leaf_spine(8, n_leaf=2, n_spine=2)
    sim, fabric = make_fabric(topo)
    members = list(range(8))
    gid = fabric.create_mcast_group(members)
    qps = {}
    for h in members:
        nic = fabric.nic(h)
        mr = nic.memory.register(4096)
        qp = nic.create_qp(Transport.UD)
        qp.attach_mcast(gid)
        qp.post_recv(RecvWR(wr_id=h, mr_key=mr.key, offset=0, length=4096))
        qps[h] = qp
    src_mr = fill(fabric.nic(3).memory.register(2048))
    qps[3].post_send(SendWR(wr_id=1, verb="send", mr_key=src_mr.key, length=2048,
                            mcast_gid=gid))
    sim.run()
    for h in members:
        expected = 0 if h == 3 else 1
        assert len(qps[h].recv_cq) == expected, f"host {h}"


def test_mcast_attach_requires_membership():
    sim, fabric = make_fabric()
    gid = fabric.create_mcast_group([0, 1])
    qp = fabric.nic(2).create_qp(Transport.UD)
    with pytest.raises(ValueError):
        qp.attach_mcast(gid)


def test_rc_qp_cannot_attach_mcast():
    sim, fabric = make_fabric()
    gid = fabric.create_mcast_group([0, 1])
    qp = fabric.nic(0).create_qp(Transport.RC)
    with pytest.raises(ValueError):
        qp.attach_mcast(gid)


# ----------------------------------------------------------------------- RC


def connect_rc(fabric, a, b):
    qa = fabric.nic(a).create_qp(Transport.RC)
    qb = fabric.nic(b).create_qp(Transport.RC)
    qa.connect(b, qb.qpn)
    qb.connect(a, qa.qpn)
    return qa, qb


def test_rc_send_recv_multisegment():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(10000))
    r_mr = fabric.nic(1).memory.register(16384)
    qb.post_recv(RecvWR(wr_id=7, mr_key=r_mr.key, offset=0, length=16384))
    qa.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=10000, imm=3))
    sim.run()
    cqes = qb.recv_cq.poll()
    assert len(cqes) == 1
    assert cqes[0].byte_len == 10000
    assert cqes[0].imm == 3
    assert np.array_equal(r_mr.buf[:10000], s_mr.buf[:10000])


def test_rc_send_waits_for_late_recv_no_drop():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(256))
    r_mr = fabric.nic(1).memory.register(256)
    qa.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=256))
    sim.run()
    assert len(qb.recv_cq) == 0  # parked, not dropped
    qb.post_recv(RecvWR(wr_id=2, mr_key=r_mr.key, offset=0, length=256))
    sim.run()
    assert len(qb.recv_cq) == 1
    assert np.array_equal(r_mr.buf, s_mr.buf)


def test_rc_write_places_data_without_receiver_wr():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 2)
    s_mr = fill(fabric.nic(0).memory.register(9000))
    r_mr = fabric.nic(2).memory.register(12000)
    qa.post_send(SendWR(wr_id=1, verb="write", mr_key=s_mr.key, length=9000,
                        remote_key=r_mr.key, remote_offset=3000))
    sim.run()
    assert np.array_equal(r_mr.buf[3000:12000], s_mr.buf[:9000])
    assert [c.opcode for c in qa.send_cq.poll()] == [Opcode.RDMA_WRITE]
    assert len(qb.recv_cq) == 0  # plain write consumes nothing


def test_rc_write_with_imm_consumes_recv():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(100))
    r_mr = fabric.nic(1).memory.register(1000)
    qb.post_recv(RecvWR(wr_id=4, mr_key=r_mr.key, offset=0, length=0))
    qa.post_send(SendWR(wr_id=1, verb="write", mr_key=s_mr.key, length=100,
                        remote_key=r_mr.key, remote_offset=0, imm=42))
    sim.run()
    cqes = qb.recv_cq.poll()
    assert len(cqes) == 1
    assert cqes[0].opcode is Opcode.RECV_RDMA_WITH_IMM
    assert cqes[0].imm == 42


def test_rc_write_with_imm_rnr_retries_until_recv_posted():
    """RC write-with-imm without a posted receive: the data is placed
    immediately (hardware RNR-retry below the software horizon) and the
    completion is parked until a WR shows up — never dropped."""
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(300))
    r_mr = fabric.nic(1).memory.register(1000)
    qa.post_send(SendWR(wr_id=1, verb="write", mr_key=s_mr.key, length=300,
                        remote_key=r_mr.key, remote_offset=0, imm=9))
    sim.run()
    assert np.array_equal(r_mr.buf[:300], s_mr.buf[:300])  # data placed
    assert len(qb.recv_cq) == 0  # notification parked
    assert qb.rnr_drops == 0  # RC never drops
    qb.post_recv(RecvWR(wr_id=2, mr_key=r_mr.key, offset=0, length=0))
    sim.run()
    cqes = qb.recv_cq.poll()
    assert len(cqes) == 1
    assert cqes[0].opcode is Opcode.RECV_RDMA_WITH_IMM
    assert cqes[0].imm == 9


def test_rc_parked_imms_drain_in_order():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(100))
    r_mr = fabric.nic(1).memory.register(1000)
    for imm in (1, 2, 3):
        qa.post_send(SendWR(wr_id=imm, verb="write", mr_key=s_mr.key, length=100,
                            remote_key=r_mr.key, remote_offset=0, imm=imm))
    sim.run()
    assert len(qb.recv_cq) == 0
    for i in range(3):
        qb.post_recv(RecvWR(wr_id=10 + i, mr_key=r_mr.key, offset=0, length=0))
    sim.run()
    assert [c.imm for c in qb.recv_cq.poll()] == [1, 2, 3]


def test_rc_read_fetches_remote_data():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    remote_mr = fill(fabric.nic(1).memory.register(20000))
    local_mr = fabric.nic(0).memory.register(20000)
    qa.post_send(SendWR(wr_id=5, verb="read", mr_key=local_mr.key, offset=0,
                        length=20000, remote_key=remote_mr.key, remote_offset=0))
    sim.run()
    cqes = qa.send_cq.poll()
    assert len(cqes) == 1 and cqes[0].opcode is Opcode.RDMA_READ
    assert cqes[0].byte_len == 20000
    assert np.array_equal(local_mr.buf, remote_mr.buf)


def test_rc_read_partial_region():
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    remote_mr = fill(fabric.nic(1).memory.register(8192))
    local_mr = fabric.nic(0).memory.register(4096)
    qa.post_send(SendWR(wr_id=5, verb="read", mr_key=local_mr.key, offset=1024,
                        length=1000, remote_key=remote_mr.key, remote_offset=4096))
    sim.run()
    assert np.array_equal(local_mr.buf[1024:2024], remote_mr.buf[4096:5096])


def test_rc_immune_to_fabric_drops():
    sim, fabric = make_fabric(default_fault=FaultSpec(drop_prob=1.0))
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(5000))
    r_mr = fabric.nic(1).memory.register(5000)
    qa.post_send(SendWR(wr_id=1, verb="write", mr_key=s_mr.key, length=5000,
                        remote_key=r_mr.key, remote_offset=0))
    sim.run()
    assert np.array_equal(r_mr.buf, s_mr.buf)


def test_rc_requires_connection():
    sim, fabric = make_fabric()
    qp = fabric.nic(0).create_qp(Transport.RC)
    mr = fabric.nic(0).memory.register(100)
    with pytest.raises(ValueError, match="not connected"):
        qp.post_send(SendWR(wr_id=1, verb="send", mr_key=mr.key, length=100))


def test_ud_rejects_rdma_verbs():
    sim, fabric = make_fabric()
    qp = fabric.nic(0).create_qp(Transport.UD)
    mr = fabric.nic(0).memory.register(100)
    with pytest.raises(ValueError):
        qp.post_send(SendWR(wr_id=1, verb="write", mr_key=mr.key, length=100,
                            remote_key=1))


# ----------------------------------------------------------------------- UC


def connect_uc(fabric, a, b):
    qa = fabric.nic(a).create_qp(Transport.UC)
    qb = fabric.nic(b).create_qp(Transport.UC)
    qa.connect(b, qb.qpn)
    qb.connect(a, qa.qpn)
    return qa, qb


def test_uc_write_with_imm_multipacket():
    sim, fabric = make_fabric()
    qa, qb = connect_uc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(100000))
    r_mr = fabric.nic(1).memory.register(100000)
    qb.post_recv(RecvWR(wr_id=1, mr_key=r_mr.key, offset=0, length=0))
    qa.post_send(SendWR(wr_id=1, verb="write", mr_key=s_mr.key, length=100000,
                        remote_key=r_mr.key, remote_offset=0, imm=11))
    sim.run()
    cqes = qb.recv_cq.poll()
    assert len(cqes) == 1
    assert cqes[0].byte_len == 100000
    assert np.array_equal(r_mr.buf, s_mr.buf)


def test_uc_dropped_segment_kills_message_completion():
    sim, fabric = make_fabric()
    # Drop the 3rd unreliable packet on h0's uplink.
    fabric.set_fault("h0", "sw000", FaultSpec(drop_packet_seqs={2}))
    qa, qb = connect_uc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(20000))
    r_mr = fabric.nic(1).memory.register(20000)
    qb.post_recv(RecvWR(wr_id=1, mr_key=r_mr.key, offset=0, length=0))
    qa.post_send(SendWR(wr_id=1, verb="write", mr_key=s_mr.key, length=20000,
                        remote_key=r_mr.key, remote_offset=0, imm=11))
    sim.run()
    assert len(qb.recv_cq) == 0  # message never completes
    # ... even though some prefix bytes may have been placed.


def test_uc_read_rejected():
    sim, fabric = make_fabric()
    qa, _ = connect_uc(fabric, 0, 1)
    mr = fabric.nic(0).memory.register(100)
    with pytest.raises(ValueError, match="READ"):
        qa.post_send(SendWR(wr_id=1, verb="read", mr_key=mr.key, length=100,
                            remote_key=1))


def test_uc_multicast_write_with_symmetric_rkey():
    sim, fabric = make_fabric()
    gid = fabric.create_mcast_group([0, 1, 2])
    # Symmetric registration: same rkey on every member.
    RKEY = 777
    mrs = {}
    qps = {}
    for h in range(3):
        nic = fabric.nic(h)
        mrs[h] = nic.memory.register(8192, key=RKEY)
        qp = nic.create_qp(Transport.UC)
        qp.attach_mcast(gid)
        qp.post_recv(RecvWR(wr_id=h, mr_key=RKEY, offset=0, length=0))
        qps[h] = qp
    src = fill(fabric.nic(0).memory.register(8192))
    qps[0].post_send(SendWR(wr_id=1, verb="write", mr_key=src.key, length=8192,
                            remote_key=RKEY, remote_offset=0, imm=1, mcast_gid=gid))
    sim.run()
    for h in (1, 2):
        assert len(qps[h].recv_cq) == 1, f"host {h}"
        assert np.array_equal(mrs[h].buf, src.buf)


# ------------------------------------------------------------------ fabric


def test_switch_counters_see_traffic():
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(4096))
    r_mr = receiver.memory.register(4096)
    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    rqp.post_recv(RecvWR(wr_id=0, mr_key=r_mr.key, offset=0, length=4096))
    sqp.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=4096,
                         dst=1, dst_qpn=rqp.qpn))
    sim.run()
    assert fabric.switch_egress_bytes(payload_only=True) == 4096
    assert fabric.host_injected_bytes(payload_only=True) == 4096
    fabric.reset_counters()
    assert fabric.switch_egress_bytes() == 0


def test_loopback_send_to_self():
    sim, fabric = make_fabric()
    nic = fabric.nic(0)
    s_mr = fill(nic.memory.register(100))
    r_mr = nic.memory.register(100)
    qp = nic.create_qp(Transport.UD)
    qp.post_recv(RecvWR(wr_id=0, mr_key=r_mr.key, offset=0, length=100))
    qp.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=100,
                        dst=0, dst_qpn=qp.qpn))
    sim.run()
    assert len(qp.recv_cq) == 1
    assert np.array_equal(r_mr.buf, s_mr.buf)


def test_back_to_back_fabric():
    sim = Simulator()
    fabric = Fabric(sim, Topology.back_to_back(), link_bandwidth=gbit_per_s(200))
    a, b = fabric.nic(0), fabric.nic(1)
    s_mr = fill(a.memory.register(4096))
    r_mr = b.memory.register(4096)
    sqp = a.create_qp(Transport.UD)
    rqp = b.create_qp(Transport.UD)
    rqp.post_recv(RecvWR(wr_id=0, mr_key=r_mr.key, offset=0, length=4096))
    sqp.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=4096,
                         dst=1, dst_qpn=rqp.qpn))
    sim.run()
    assert len(rqp.recv_cq) == 1
    assert np.array_equal(r_mr.buf, s_mr.buf)


def test_cq_wait_event():
    sim, fabric = make_fabric()
    sender, receiver = fabric.nic(0), fabric.nic(1)
    s_mr = fill(sender.memory.register(64))
    r_mr = receiver.memory.register(64)
    sqp = sender.create_qp(Transport.UD)
    rqp = receiver.create_qp(Transport.UD)
    rqp.post_recv(RecvWR(wr_id=0, mr_key=r_mr.key, offset=0, length=64))

    def waiter():
        yield rqp.recv_cq.wait()
        return (sim.now, len(rqp.recv_cq))

    def sender_proc():
        yield sim.timeout(1e-3)
        sqp.post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=64,
                             dst=1, dst_qpn=rqp.qpn))

    sim.spawn(sender_proc())
    t, n = sim.run_process(waiter())
    assert t > 1e-3 and n == 1


def test_recv_queue_capacity_enforced():
    sim, fabric = make_fabric()
    nic = fabric.nic(0)
    mr = nic.memory.register(64)
    qp = nic.create_qp(Transport.UD, max_recv_wr=2)
    qp.post_recv(RecvWR(wr_id=0, mr_key=mr.key, offset=0, length=4))
    qp.post_recv(RecvWR(wr_id=1, mr_key=mr.key, offset=4, length=4))
    with pytest.raises(RuntimeError, match="full"):
        qp.post_recv(RecvWR(wr_id=2, mr_key=mr.key, offset=8, length=4))


# ---------------------------------------------------------------------- SRQ


def srq_fan_in(fabric, senders, dst=0):
    """RC QPs from every host in *senders* to *dst*, the receiving ends all
    attached to one SRQ completing into one CQ."""
    nic = fabric.nic(dst)
    srq = nic.create_srq()
    cq = nic.create_cq("fan-in")
    tx, rx = {}, {}
    for h in senders:
        qs = fabric.nic(h).create_qp(Transport.RC)
        qr = nic.create_qp(Transport.RC, recv_cq=cq, srq=srq)
        qs.connect(dst, qr.qpn)
        qr.connect(h, qs.qpn)
        tx[h], rx[h] = qs, qr
    return srq, cq, tx, rx


def test_srq_feeds_every_attached_qp():
    """Two WRs posted once serve messages arriving on two different QPs."""
    sim, fabric = make_fabric()
    srq, cq, tx, rx = srq_fan_in(fabric, [1, 2])
    r_mr = fabric.nic(0).memory.register(128)
    srq.post_recv_batch([RecvWR(wr_id=i, mr_key=r_mr.key, offset=64 * i, length=64)
                         for i in range(2)])
    for h in (1, 2):
        tx[h].post_send(SendWR(wr_id=h, verb="send", signaled=False,
                               inline_data=np.full(8, h, dtype=np.uint8)))
    sim.run()
    cqes = cq.poll()
    assert sorted(c.src for c in cqes) == [1, 2]
    assert sorted(c.qpn for c in cqes) == sorted(q.qpn for q in rx.values())
    for c in cqes:  # each message landed in the slot its WR named
        assert (r_mr.buf[64 * c.wr_id: 64 * c.wr_id + 8] == c.src).all()
    assert len(srq.recv_queue) == 0 and srq.posted == 2 and srq.parked_total == 0


def test_srq_dry_parks_across_qps_in_arrival_order():
    """Messages of *any* attached QP that find the SRQ dry complete in
    arrival order as WRs are posted — RC never drops — mixing two-sided
    sends and write-with-imm notifications."""
    sim, fabric = make_fabric()
    srq, cq, tx, rx = srq_fan_in(fabric, [1, 2, 3])
    r_mr = fabric.nic(0).memory.register(256)
    s_mr = fill(fabric.nic(2).memory.register(16))

    def staggered():
        tx[3].post_send(SendWR(wr_id=0, verb="send", signaled=False,
                               inline_data=np.full(4, 3, dtype=np.uint8)))
        yield sim.timeout(1e-6)
        tx[2].post_send(SendWR(wr_id=0, verb="write", mr_key=s_mr.key, length=16,
                               remote_key=r_mr.key, remote_offset=128, imm=22,
                               signaled=False))
        yield sim.timeout(1e-6)
        tx[1].post_send(SendWR(wr_id=0, verb="send", signaled=False,
                               inline_data=np.full(4, 1, dtype=np.uint8)))

    sim.spawn(staggered())
    sim.run()
    assert len(cq) == 0 and srq.parked_total == 3
    assert fabric.nic(0).rnr_drops == 0
    srq.post_recv(RecvWR(wr_id=10, mr_key=r_mr.key, offset=0, length=32))
    assert [(c.src, c.wr_id) for c in cq.poll()] == [(3, 10)]
    srq.post_recv_batch([RecvWR(wr_id=11 + i, mr_key=r_mr.key, offset=32 * (i + 1),
                                length=32) for i in range(3)])
    cqes = cq.poll()
    assert [(c.src, c.wr_id, c.opcode) for c in cqes] == [
        (2, 11, Opcode.RECV_RDMA_WITH_IMM), (1, 12, Opcode.RECV)]
    assert cqes[0].imm == 22
    assert len(srq.recv_queue) == 1  # the third WR stays posted
    assert not srq.parked


def test_cached_batch_post_counts_checks_capacity_and_drains_parked():
    """``post_recv_cached_batch`` is ``post_recv_cached`` for a run: the
    same overflow errors, ``posted += n``, parked RC messages completed —
    and one cached WR may fill the whole run."""
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    s_mr = fill(fabric.nic(0).memory.register(100))
    r_mr = fabric.nic(1).memory.register(1000)
    for imm in (1, 2):
        qa.post_send(SendWR(wr_id=imm, verb="write", mr_key=s_mr.key, length=100,
                            remote_key=r_mr.key, remote_offset=0, imm=imm))
    sim.run()
    assert len(qb.recv_cq) == 0 and qb.parked_total == 2
    wr = RecvWR(wr_id=7, mr_key=r_mr.key, offset=0, length=0)
    qb.post_recv_cached_batch([wr] * 5)
    assert [(c.imm, c.wr_id) for c in qb.recv_cq.poll()] == [(1, 7), (2, 7)]
    assert qb.posted == 5 and len(qb.recv_queue) == 3 and not qb.parked
    with pytest.raises(RuntimeError, match="full"):
        qb.post_recv_cached_batch([wr] * (qb.max_recv_wr - 2))
    assert qb.posted == 5 and len(qb.recv_queue) == 3  # nothing half-posted
    nic = fabric.nic(1)
    attached = nic.create_qp(Transport.RC, srq=nic.create_srq())
    with pytest.raises(ValueError, match="SRQ"):
        attached.post_recv_cached_batch([wr])


def test_post_recv_batch_still_validates_every_wr():
    """Validation is kept, it is not repeated: the validating wrapper
    rejects an unknown key and a span that leaves its MR, posting nothing."""
    sim, fabric = make_fabric()
    nic = fabric.nic(0)
    qp = nic.create_qp(Transport.UD)
    mr = nic.memory.register(256)
    good = RecvWR(wr_id=0, mr_key=mr.key, offset=0, length=64)
    with pytest.raises(KeyError):
        qp.post_recv_batch([good, RecvWR(wr_id=1, mr_key=mr.key + 999, offset=0, length=8)])
    with pytest.raises(IndexError):
        qp.post_recv_batch([good, RecvWR(wr_id=2, mr_key=mr.key, offset=200, length=64)])
    assert len(qp.recv_queue) == 0 and qp.posted == 0
    qp.post_recv_batch([good])
    assert len(qp.recv_queue) == 1 and qp.posted == 1


def test_srq_multisegment_send_lands_by_sequence():
    sim, fabric = make_fabric()
    srq, cq, tx, rx = srq_fan_in(fabric, [1])
    s_mr = fill(fabric.nic(1).memory.register(10000))
    r_mr = fabric.nic(0).memory.register(16384)
    tx[1].post_send(SendWR(wr_id=1, verb="send", mr_key=s_mr.key, length=10000, imm=3))
    sim.run()
    assert len(cq) == 0  # parked whole, segments held
    srq.post_recv(RecvWR(wr_id=7, mr_key=r_mr.key, offset=0, length=16384))
    (cqe,) = cq.poll()
    assert (cqe.byte_len, cqe.imm, cqe.wr_id) == (10000, 3, 7)
    assert np.array_equal(r_mr.buf[:10000], s_mr.buf)


def test_srq_attached_qp_has_no_receive_queue_of_its_own():
    sim, fabric = make_fabric()
    nic = fabric.nic(0)
    srq = nic.create_srq(max_wr=2)
    qp = nic.create_qp(Transport.RC, srq=srq)
    mr = nic.memory.register(64)
    wr = RecvWR(wr_id=0, mr_key=mr.key, offset=0, length=8)
    for post in (qp.post_recv, qp.post_recv_cached):
        with pytest.raises(ValueError, match="SRQ"):
            post(wr)
    with pytest.raises(ValueError, match="SRQ"):
        qp.post_recv_batch([wr])
    srq.post_recv(wr)
    srq.post_recv_cached(wr)
    with pytest.raises(RuntimeError, match="full"):
        srq.post_recv_cached(wr)
    with pytest.raises(ValueError, match="RC"):
        nic.create_qp(Transport.UD, srq=srq)
    with pytest.raises(ValueError, match="host"):
        fabric.nic(1).create_qp(Transport.RC, srq=srq)


def test_default_cqs_are_per_qp_and_built_on_demand():
    """Omitted CQs cost nothing until used, and are never shared: the
    fetch path polls ``qp.send_cq`` expecting only that QP's completions."""
    sim, fabric = make_fabric()
    qa, qb = connect_rc(fabric, 0, 1)
    assert qa.send_cq is qa.send_cq
    assert qa.send_cq is not qb.send_cq and qa.send_cq is not qa.recv_cq
    with pytest.raises(AttributeError):
        qa.no_such_attribute


# ---------------------------------------------------- look-ahead delivery
#
# Every test runs one send script twice — the receiver's QP opted in to
# look-ahead delivery or not — and compares what software can observe: the
# receive CQ as ``(wr_id, src, imm, timestamp)`` and the RNR drop count.


class _Instants:
    """A stand-in NIC track that keeps ``(name, ts)`` of every instant."""

    def __init__(self):
        self.seen = []

    def instant(self, name, ts, args=None):
        self.seen.append((name, ts))


def _mcast_run(ahead, sends, *, wrs=((0, 4096), (1, 4096), (2, 4096), (3, 4096)),
               posts=(), unicasts=(), at=(), uc=False, topo=None, gids=1):
    """Hosts 1.. multicast to host 0.

    ``sends``: ``(t, src, length, imm)`` single sends, or ``(t, src, [imm,
    ...])`` doorbell batches of full-size sends (a packet train); ``wrs``:
    ``(wr_id, length)`` posted up front; ``posts``: ``(t, wr_id, length)``
    posted later; ``unicasts``: ``(t, src)`` sends to a second, plain QP on
    host 0 (delivered by event); ``at``: ``(t, fn(fabric))`` hooks.  With
    ``gids > 1`` group *g* carries the sends whose ``imm % gids == g``.
    Returns ``(fabric, {gid: (cqes, rnr_drops, nic)})``.
    """
    topo = topo or Topology.star(5)
    sim, fabric = make_fabric(topo)
    members = list(range(topo.n_hosts))
    transport = Transport.UC if uc else Transport.UD
    rkey = 4242
    qps = {}
    for g in range(gids):
        gid = fabric.create_mcast_group(members)
        for h in members:
            nic = fabric.rail_nic(h, fabric.mcast_groups[gid].rail)
            qp = nic.create_qp(transport)
            qp.attach_mcast(gid)
            qps[gid, h] = qp
            if g == 0 and uc:
                nic.memory.register(1 << 16, key=rkey)
    out = {}
    for g in range(gids):
        rqp = qps[g, 0]
        rqp.batch_delivery = ahead
        rnic = rqp.nic
        rnic.trace = _Instants()
        sink = rnic.memory.register(1 << 16)

        def post(wr_id, length, rqp=rqp, sink=sink):
            rqp.post_recv(RecvWR(wr_id=wr_id, mr_key=sink.key,
                                 offset=(wr_id % 16) * 4096, length=length))

        for wr_id, length in wrs:
            post(wr_id, 0 if uc else length)
        for t, wr_id, length in posts:
            sim.post_at(t, post, wr_id, 0 if uc else length)
        out[g] = rqp

    def wr(src, length, imm):
        nic = qps[imm % gids, src].nic
        mr = fill(nic.memory.register(4096), src)
        if uc:
            return SendWR(wr_id=imm, verb="write", mr_key=mr.key, length=length,
                          remote_key=rkey, remote_offset=(imm % 16) * 4096,
                          imm=imm, mcast_gid=imm % gids, signaled=False)
        return SendWR(wr_id=imm, verb="send", mr_key=mr.key, length=length,
                      imm=imm, mcast_gid=imm % gids, signaled=False)

    for send in sends:
        if len(send) == 4:
            t, src, length, imm = send
            sim.post_at(t, qps[imm % gids, src].post_send, wr(src, length, imm))
        else:
            t, src, imms = send
            qp = qps[imms[0] % gids, src]
            sim.post_at(t, qp.nic.post_send_batch,
                        [(qp, wr(src, 4096, imm)) for imm in imms])
    plain = fabric.nic(0).create_qp(Transport.UD)
    pmr = fabric.nic(0).memory.register(4096)
    for i, (t, src) in enumerate(unicasts):
        plain.post_recv(RecvWR(wr_id=i, mr_key=pmr.key, offset=0, length=4096))
        sqp = fabric.nic(src).create_qp(Transport.UD)
        smr = fabric.nic(src).memory.register(4096)
        sim.post_at(t, sqp.post_send, SendWR(
            wr_id=i, verb="send", mr_key=smr.key, length=4096, dst=0,
            dst_qpn=plain.qpn, signaled=False))
    for t, fn in at:
        sim.post_at(t, fn, fabric)
    sim.run()
    return fabric, {
        g: ([(c.wr_id, c.src, c.imm, c.timestamp) for c in rqp.recv_cq.poll()],
            rqp.rnr_drops, rqp.nic)
        for g, rqp in out.items()
    }


def _same_as_per_packet(traces=True, **kw):
    """Run the script both ways; assert the observables agree and return
    the look-ahead run's ``(cqes, rnr_drops, nic)`` for group 0."""
    _, ahead = _mcast_run(True, **kw)
    _, ref = _mcast_run(False, **kw)
    for g in ref:
        cq_a, rnr_a, nic_a = ahead[g]
        cq_r, rnr_r, nic_r = ref[g]
        assert cq_a == cq_r
        assert rnr_a == rnr_r
        assert nic_a.packets_received == nic_r.packets_received
        assert nic_a.bytes_received == nic_r.bytes_received
        assert nic_r.stamped_cqes == 0
        # Trace instants carry the arrival stamp, not the hand-over time.
        assert not traces or sorted(nic_a.trace.seen) == sorted(nic_r.trace.seen)
    return ahead[0]


#: four sources, one full-size packet each, all at once: the downlink into
#: host 0 serializes them, so all but the first are a wire backlog
_BURST = [(0.0, src, 4096, 10 + src) for src in (1, 2, 3, 4)]


@pytest.mark.parametrize("uc", [False, True])
def test_lookahead_stamps_a_cross_source_backlog(uc):
    cqes, rnr, nic = _same_as_per_packet(sends=_BURST, uc=uc)
    assert len(cqes) == 4 and rnr == 0
    assert nic.stamped_cqes == 4
    stamps = [c[3] for c in cqes]
    assert stamps == sorted(stamps) and len(set(stamps)) == 4
    assert [c[1] for c in cqes] == [1, 2, 3, 4]  # CQ order == wire order


def test_lookahead_waits_behind_an_arrival_still_in_flight():
    # A unicast (not eligible: delivered by event) is on the downlink when
    # the multicast burst is handed over; nothing may overtake it into the
    # CQ, and look-ahead resumes once it has arrived.
    sends = [(0.2e-6, src, 4096, imm) for _, src, _, imm in _BURST]
    sends.append((20e-6, 2, 4096, 30))
    cqes, _, nic = _same_as_per_packet(sends=sends, unicasts=[(0.0, 1)],
                                       wrs=[(i, 4096) for i in range(5)])
    assert len(cqes) == 5
    assert nic.stamped_cqes == 1


def test_lookahead_hands_a_train_over_in_order_and_singles_wait_behind_it():
    sends = [(0.0, 1, [10, 11, 12]), (0.1e-6, 2, 4096, 20), (30e-6, 3, 4096, 30)]
    cqes, rnr, nic = _same_as_per_packet(
        sends=sends, wrs=[(i, 4096) for i in range(5)])
    assert [c[2] for c in cqes] == [10, 11, 12, 20, 30] and rnr == 0
    # The train is stamped by its own event; the single right behind it
    # arrives by event; the late one finds the channel quiet again.
    assert nic.stamped_cqes == 4


def test_lookahead_dry_queue_falls_back_to_the_arrival_event():
    # Two WRs for four packets.  A WR posted before the third arrival
    # rescues it (the queue was dry at hand-over, not at arrival); the
    # fourth finds nothing and is an RNR drop — at its arrival instant.
    _, ref = _mcast_run(False, sends=_BURST)
    stamps = [c[3] for c in ref[0][0]]
    cqes, rnr, nic = _same_as_per_packet(
        sends=_BURST, wrs=[(0, 4096), (1, 4096)],
        posts=[((stamps[1] + stamps[2]) / 2, 7, 4096)])
    assert [c[0] for c in cqes] == [0, 1, 7] and rnr == 1
    assert nic.stamped_cqes == 2


def test_lookahead_short_wr_is_a_length_error_at_arrival():
    cqes, rnr, nic = _same_as_per_packet(
        sends=_BURST, wrs=[(0, 4096), (1, 1024), (2, 4096), (3, 4096)])
    assert [c[0] for c in cqes] == [0, 2, 3] and rnr == 1
    # Packets behind the failed one wait for its arrival event.
    assert nic.stamped_cqes < 3


def _arm(fault):
    return lambda fabric: fabric.set_fault("sw000", "h0", fault)


@pytest.mark.parametrize("gate", [
    _arm(FaultSpec(reorder_jitter=1e-9)),
    _arm(FaultSpec(flap_windows=[(1.0, 2.0)])),
    _arm(FaultSpec(bandwidth_windows=[(1.0, 2.0, 0.5)])),
    _arm(FaultSpec(drop_packet_seqs={99})),
    lambda fabric: fabric.schedule_crash(CrashSpec(at=1.0, link=("h3", "sw000"))),
], ids=["jitter", "flap", "bandwidth", "loss", "pending-crash"])
def test_lookahead_is_off_while_a_fault_or_crash_is_armed(gate):
    cqes, rnr, nic = _same_as_per_packet(sends=_BURST, at=[(0.0, gate)])
    assert len(cqes) == 4 and rnr == 0
    assert nic.stamped_cqes == 0


def test_lookahead_after_handover_fault_leaves_stamped_packets_alone():
    # The drop decision is made at transmit time on both paths: a fault
    # installed while stamped packets are "in flight" cannot touch them.
    kill = _arm(FaultSpec(drop_prob=1.0))
    cqes, _, nic = _same_as_per_packet(sends=_BURST, at=[(2.0e-6, kill)])
    assert len(cqes) == 4 and nic.stamped_cqes == 4


def test_lookahead_crash_after_handover_takes_back_unarrived_packets():
    _, ref = _mcast_run(False, sends=_BURST)
    stamps = [c[3] for c in ref[0][0]]
    mid = (stamps[1] + stamps[2]) / 2
    handed_over = 2.0e-6  # all four are on the downlink, none has arrived
    assert handed_over < stamps[0]
    for when, crash in (
            (mid, lambda fabric: fabric.crash_host(0)),
            (handed_over, lambda fabric: fabric.schedule_crash(
                CrashSpec(at=mid, host=0)))):
        # (A trace is append-only: it keeps the instants of what the crash
        # took back, so it is the one observable not compared here.)
        cqes, rnr, nic = _same_as_per_packet(sends=_BURST, at=[(when, crash)],
                                             traces=False)
        # Host 0 died between the second and third arrival.
        assert [c[3] for c in cqes] == stamps[:2] and rnr == 0
        assert nic.packets_received == 2 and nic.stamped_cqes == 4


def test_lookahead_dead_or_down_elements_never_stamp():
    cqes, _, nic = _same_as_per_packet(
        sends=_BURST, at=[(0.0, lambda fabric: fabric.crash_host(0))])
    assert cqes == [] and nic.stamped_cqes == 0
    cqes, _, nic = _same_as_per_packet(
        sends=_BURST, at=[(0.0, lambda fabric: fabric.crash_link("sw000", "h0"))])
    assert cqes == [] and nic.stamped_cqes == 0


def test_lookahead_follows_attachment_changes_after_traffic():
    """The NIC caches each group's single attached QP; attaching a second
    QP, detaching one, or opting out takes effect on the next packet."""
    sim, fabric = make_fabric(Topology.star(2))
    gid = fabric.create_mcast_group([0, 1])
    tx = fabric.nic(0).create_qp(Transport.UD)
    smr = fill(fabric.nic(0).memory.register(64))
    nic = fabric.nic(1)
    mr = nic.memory.register(1 << 12)

    def receiver():
        qp = nic.create_qp(Transport.UD)
        qp.attach_mcast(gid)
        qp.batch_delivery = True
        for i in range(4):
            qp.post_recv(RecvWR(wr_id=i, mr_key=mr.key, offset=64 * i, length=64))
        return qp

    def send(imm):
        tx.post_send(SendWR(wr_id=imm, verb="send", mr_key=smr.key, length=64,
                            imm=imm, mcast_gid=gid, signaled=False))
        sim.run()
        return nic.stamped_cqes, len(a.recv_cq), len(b.recv_cq) if b else 0

    a, b = receiver(), None
    assert send(0) == (1, 1, 0)
    b = receiver()  # two attached: both get it, by the arrival event
    assert send(1) == (1, 2, 1)
    a.detach_mcast(gid)  # one attached again: stamped into it
    assert send(2) == (2, 2, 2)
    b.batch_delivery = False
    assert send(3) == (2, 2, 3)


def test_lookahead_multi_rail_stamps_on_the_groups_own_rail():
    topo = Topology.multi_rail(Topology.star(5), 2)
    sends = [(0.0, src, 4096, 10 + 2 * src + g) for src in (1, 2, 3, 4)
             for g in (0, 1)]
    fabric, ahead = _mcast_run(True, sends=sends, topo=topo, gids=2)
    _, ref = _mcast_run(False, sends=sends, topo=topo, gids=2)
    for g in (0, 1):
        assert ahead[g][0] == ref[g][0] and len(ahead[g][0]) == 4
        nic = ahead[g][2]
        assert nic is fabric.rail_nic(0, g) and nic.stamped_cqes == 4
    # Each plane keeps its own horizon: one per downlink channel.
    assert fabric.rail_nic(0, 0) is not fabric.rail_nic(0, 1)
