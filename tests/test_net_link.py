"""Unit tests for channels: serialization, latency, drops, reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import GilbertElliott, StragglerSpec, Window
from repro.net.link import Channel, DropTape, FaultSpec
from repro.net.packet import Packet, PacketKind, mcast_dst
from repro.sim import RandomStreams, Simulator


class SinkNode:
    """Collects (time, packet) deliveries."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive(self, packet, channel):
        self.received.append((self.sim.now, packet))


def make_channel(sim, sink, bandwidth=1e9, latency=1e-6, fault=None, seed=0):
    rng = RandomStreams(seed=seed).stream("test-chan")
    return Channel(sim, "a", "b", sink, bandwidth, latency, fault=fault, rng=rng)


def pkt(n=1000, kind=PacketKind.UD_SEND, header=64, **kw):
    return Packet(src=0, dst=1, kind=kind, payload_len=n, header_bytes=header, **kw)


def test_serialization_plus_latency():
    sim = Simulator()
    sink = SinkNode(sim)
    ch = make_channel(sim, sink, bandwidth=1e9, latency=5e-6)
    ch.transmit(pkt(n=1000, header=0))  # 1000 B at 1 GB/s = 1 µs
    sim.run()
    assert len(sink.received) == 1
    assert sink.received[0][0] == pytest.approx(1e-6 + 5e-6)


def test_back_to_back_packets_queue_on_wire():
    sim = Simulator()
    sink = SinkNode(sim)
    ch = make_channel(sim, sink, bandwidth=1e9, latency=0.0)
    ch.transmit(pkt(n=1000, header=0))
    ch.transmit(pkt(n=1000, header=0))
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == [pytest.approx(1e-6), pytest.approx(2e-6)]


def test_header_bytes_count_on_wire():
    sim = Simulator()
    sink = SinkNode(sim)
    ch = make_channel(sim, sink, bandwidth=1e9, latency=0.0)
    ch.transmit(pkt(n=1000, header=64))
    sim.run()
    assert ch.bytes_sent == 1064
    assert ch.payload_bytes_sent == 1000


def test_transmit_returns_finish_time():
    sim = Simulator()
    sink = SinkNode(sim)
    ch = make_channel(sim, sink, bandwidth=1e9, latency=1.0)
    finish = ch.transmit(pkt(n=1000, header=0))
    assert finish == pytest.approx(1e-6)  # latency excluded


def test_counters_accumulate():
    sim = Simulator()
    sink = SinkNode(sim)
    ch = make_channel(sim, sink)
    for _ in range(5):
        ch.transmit(pkt(n=100))
    sim.run()
    assert ch.packets_sent == 5
    assert ch.bytes_sent == 5 * (100 + 64)
    ch.reset_counters()
    assert ch.packets_sent == 0


def test_deterministic_seq_drop():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(drop_packet_seqs={1, 3})
    ch = make_channel(sim, sink, fault=fault)
    for _ in range(5):
        ch.transmit(pkt())
    sim.run()
    assert len(sink.received) == 3
    assert ch.packets_dropped == 2


def test_drop_predicate():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(drop_predicate=lambda p, seq: p.imm == 7)
    ch = make_channel(sim, sink, fault=fault)
    ch.transmit(pkt(imm=7))
    ch.transmit(pkt(imm=8))
    sim.run()
    assert [p.imm for _, p in sink.received] == [8]


def test_bernoulli_drops_reproducible():
    def run(seed):
        sim = Simulator()
        sink = SinkNode(sim)
        ch = make_channel(sim, sink, fault=FaultSpec(drop_prob=0.3), seed=seed)
        for _ in range(100):
            ch.transmit(pkt())
        sim.run()
        return len(sink.received)

    assert run(1) == run(1)
    assert 40 <= run(1) <= 95  # roughly 70% delivery


def test_reliable_kinds_immune_to_drops():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(drop_prob=1.0)
    ch = make_channel(sim, sink, fault=fault)
    ch.transmit(pkt(kind=PacketKind.RC_SEND))
    ch.transmit(pkt(kind=PacketKind.RC_WRITE))
    ch.transmit(pkt(kind=PacketKind.UD_SEND))  # this one drops
    sim.run()
    kinds = {p.kind for _, p in sink.received}
    assert kinds == {PacketKind.RC_SEND, PacketKind.RC_WRITE}


def test_unprotected_fault_hits_reliable_kinds():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(drop_prob=1.0, protect_reliable=False)
    ch = make_channel(sim, sink, fault=fault)
    ch.transmit(pkt(kind=PacketKind.RC_SEND))
    sim.run()
    assert sink.received == []


def test_dropped_packet_still_occupies_wire():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(drop_packet_seqs={0})
    ch = make_channel(sim, sink, bandwidth=1e9, latency=0.0, fault=fault)
    ch.transmit(pkt(n=1000, header=0))  # dropped, but occupies 1 µs
    ch.transmit(pkt(n=1000, header=0))
    sim.run()
    assert sink.received[0][0] == pytest.approx(2e-6)


def test_reorder_jitter_causes_out_of_order():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(reorder_jitter=50e-6)
    ch = make_channel(sim, sink, bandwidth=1e12, latency=0.0, fault=fault, seed=3)
    for i in range(50):
        ch.transmit(pkt(imm=i))
    sim.run()
    order = [p.imm for _, p in sink.received]
    assert sorted(order) == list(range(50))
    assert order != list(range(50))  # actually reordered


def test_multicast_flag_encoding():
    p = Packet(src=0, dst=mcast_dst(5), kind=PacketKind.UD_SEND, payload_len=10)
    assert p.is_multicast and p.mcast_gid == 5
    q = pkt()
    assert not q.is_multicast
    with pytest.raises(ValueError):
        _ = q.mcast_gid


def test_leaf_fan_out_hands_every_port_the_packet_itself():
    """A switch replicates a multicast packet by reference: every egress
    port but the ingress one carries the very object that came in."""
    from repro.net.switch import Switch

    sim = Simulator()
    sinks = {h: SinkNode(sim) for h in ("h0", "h1", "h2", "h3")}
    sw = Switch(sim, "leaf")
    for h, sink in sinks.items():
        sw.add_port(Channel(sim, "leaf", h, sink, bandwidth=1e9, latency=1e-6))
    sw.install_mcast(0, set(sinks))
    up = Channel(sim, "h0", "leaf", sw, bandwidth=1e9, latency=1e-6)
    p = Packet(src=0, dst=mcast_dst(0), kind=PacketKind.UD_SEND,
               payload=np.arange(10, dtype=np.uint8))
    up.transmit(p)
    sim.run()
    assert sinks["h0"].received == []
    for h in ("h1", "h2", "h3"):
        (_, got), = sinks[h].received
        assert got is p
    assert sw.packets_forwarded == 3


def test_invalid_channel_params():
    sim = Simulator()
    sink = SinkNode(sim)
    with pytest.raises(ValueError):
        Channel(sim, "a", "b", sink, bandwidth=0, latency=0)
    with pytest.raises(ValueError):
        Channel(sim, "a", "b", sink, bandwidth=1e9, latency=-1)


# ----------------------------------------------------- FaultSpec validation


def test_faultspec_rejects_bad_drop_prob():
    with pytest.raises(ValueError, match="drop_prob"):
        FaultSpec(drop_prob=-0.1)
    with pytest.raises(ValueError, match="drop_prob"):
        FaultSpec(drop_prob=1.5)


def test_faultspec_rejects_negative_jitter():
    with pytest.raises(ValueError, match="reorder_jitter"):
        FaultSpec(reorder_jitter=-1e-6)


def test_faultspec_rejects_negative_seq():
    with pytest.raises(ValueError, match="drop_packet_seqs"):
        FaultSpec(drop_packet_seqs={-1, 3})


def test_faultspec_normalizes_window_tuples():
    spec = FaultSpec(flap_windows=[(1.0, 2.0)], bandwidth_windows=[(0.0, 1.0, 0.5)])
    assert all(isinstance(w, Window) for w in spec.flap_windows)
    assert spec.in_flap(1.5) and not spec.in_flap(2.0)  # half-open
    assert spec.bandwidth_factor(0.5) == 0.5
    assert spec.bandwidth_factor(1.0) == 1.0


def test_window_validation():
    with pytest.raises(ValueError):
        Window(start=-1.0, end=2.0)
    with pytest.raises(ValueError):
        Window(start=2.0, end=1.0)
    with pytest.raises(ValueError):
        Window(start=0.0, end=1.0, factor=0.0)


def test_gilbert_elliott_validation_and_stationary_rate():
    with pytest.raises(ValueError, match="p_good_bad"):
        GilbertElliott(p_good_bad=1.2, p_bad_good=0.5)
    ge = GilbertElliott(p_good_bad=0.01, p_bad_good=0.19, drop_bad=1.0)
    assert ge.mean_burst_packets == pytest.approx(1 / 0.19)
    assert ge.expected_loss_rate() == pytest.approx(0.05)


def test_faultspec_clone_is_independent():
    spec = FaultSpec(drop_packet_seqs={1, 2})
    copy = spec.clone()
    copy.drop_packet_seqs.add(9)
    assert 9 not in spec.drop_packet_seqs


# --------------------------------------------------- time-varying schedules


def test_gilbert_elliott_losses_are_bursty():
    """Same stationary loss rate, but GE losses cluster into runs."""
    sim = Simulator()
    sink = SinkNode(sim)
    ge = GilbertElliott(p_good_bad=0.02, p_bad_good=0.2, drop_bad=1.0)
    ch = make_channel(sim, sink, bandwidth=1e12, fault=FaultSpec(gilbert_elliott=ge),
                      seed=7)
    n = 4000
    for i in range(n):
        ch.transmit(pkt(imm=i))
    sim.run()
    got = {p.imm for _, p in sink.received}
    lost = [i for i in range(n) if i not in got]
    assert 0 < len(lost) < n
    # Loss rate near the stationary expectation...
    assert len(lost) / n == pytest.approx(ge.expected_loss_rate(), rel=0.5)
    # ...and clustered: mean run length well above the ~1.02 of Bernoulli.
    runs, cur = [], 1
    for a, b in zip(lost, lost[1:]):
        if b == a + 1:
            cur += 1
        else:
            runs.append(cur)
            cur = 1
    runs.append(cur)
    assert sum(runs) / len(runs) > 2.0


def test_flap_window_drops_everything_inside_only():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(flap_windows=[(2e-6, 4e-6)])
    ch = make_channel(sim, sink, bandwidth=1e9, latency=0.0, fault=fault)
    # 1000 B at 1 GB/s = 1 µs serialization each, queued back to back; the
    # drop decision is taken at transmit-queue time.
    for i in range(6):
        sim.call_at(i * 1e-6, ch.transmit, pkt(n=1000, header=0, imm=i))
    sim.run()
    delivered = sorted(p.imm for _, p in sink.received)
    assert delivered == [0, 1, 4, 5]
    assert ch.packets_dropped == 2


def test_flap_respects_protect_reliable():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(flap_windows=[(0.0, 1.0)])
    ch = make_channel(sim, sink, fault=fault)
    ch.transmit(pkt(kind=PacketKind.RC_SEND))
    ch.transmit(pkt(kind=PacketKind.UD_SEND))
    sim.run()
    assert [p.kind for _, p in sink.received] == [PacketKind.RC_SEND]


def test_bandwidth_window_slows_serialization():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(bandwidth_windows=[(0.0, 1.0, 0.25)])
    ch = make_channel(sim, sink, bandwidth=1e9, latency=0.0, fault=fault)
    finish = ch.transmit(pkt(n=1000, header=0))
    assert finish == pytest.approx(4e-6)  # 1 µs nominal / 0.25
    sim.run()
    # Outside the window the nominal rate is restored.
    sim2 = Simulator()
    sink2 = SinkNode(sim2)
    ch2 = make_channel(sim2, sink2, bandwidth=1e9, latency=0.0,
                       fault=FaultSpec(bandwidth_windows=[(10.0, 11.0, 0.25)]))
    assert ch2.transmit(pkt(n=1000, header=0)) == pytest.approx(1e-6)


def test_bandwidth_window_applies_to_reliable_traffic_too():
    sim = Simulator()
    sink = SinkNode(sim)
    fault = FaultSpec(bandwidth_windows=[(0.0, 1.0, 0.5)])
    ch = make_channel(sim, sink, bandwidth=1e9, latency=0.0, fault=fault)
    finish = ch.transmit(pkt(n=1000, header=0, kind=PacketKind.RC_WRITE))
    assert finish == pytest.approx(2e-6)


def test_straggler_spec_delay_windows():
    spec = StragglerSpec(windows=[(1.0, 2.0)], extra_poll_delay=5e-6)
    assert spec.delay_at(0.5) == 0.0
    assert spec.delay_at(1.5) == 5e-6
    assert spec.delay_at(2.0) == 0.0
    with pytest.raises(ValueError):
        StragglerSpec(windows=[], extra_poll_delay=-1.0)


# ------------------------------------------------- hand-over at transmit time


class ArriveNode(SinkNode):
    """A node that takes the hand-over: it is told at transmit time when
    the packet (or train) reaches it."""

    def __init__(self, sim):
        super().__init__(sim)
        self.handed = []

    def arrive(self, packet, channel, at):
        self.handed.append((self.sim.now, at))

    def arrive_train(self, train, channel):
        self.handed.append((self.sim.now, list(train.arrivals)))


def test_arrival_instant_is_handed_over_at_transmit_time():
    sim = Simulator()
    node, sink = ArriveNode(sim), SinkNode(sim)
    ch = make_channel(sim, node, bandwidth=1e9, latency=5e-6)
    ref = make_channel(sim, sink, bandwidth=1e9, latency=5e-6)
    for c in (ch, ref):
        c.transmit(pkt(n=1000, header=0))
        c.transmit(pkt(n=1000, header=0))  # queues behind the first
    assert [now for now, _ in node.handed] == [0.0, 0.0]
    sim.run()
    # The stamps are the instants a plain node's ``receive`` event fires.
    assert [at for _, at in node.handed] == [t for t, _ in sink.received]
    assert node.received == []  # nothing was scheduled on its behalf


def test_train_is_handed_over_with_every_arrival_instant():
    sim = Simulator()
    node = ArriveNode(sim)
    ch = make_channel(sim, node, bandwidth=1e9, latency=5e-6)
    ch.transmit_train([pkt(n=1000, header=0) for _ in range(3)])
    (now, arrivals), = node.handed
    assert now == 0.0 and arrivals == pytest.approx([6e-6, 7e-6, 8e-6])
    # A run gutted down to one survivor is handed over as a packet.
    lossy = make_channel(sim, node, bandwidth=1e9, latency=5e-6,
                         fault=FaultSpec(drop_packet_seqs={0}))
    lossy.transmit_train([pkt(n=1000, header=0) for _ in range(2)])
    assert node.handed[-1] == (0.0, pytest.approx(7e-6))


def _transmit_at(calls, payloads, busy=0.0):
    """Hand one packet per ``(instant, payload)`` to a clean 7 GB/s
    channel starting from ``busy_until`` *busy*; returns the channel, the
    finishes ``transmit`` returned and ``busy_until`` after each call."""
    sim = Simulator()
    ch = make_channel(sim, SinkNode(sim), bandwidth=7e9, latency=1e-6)
    ch.busy_until = busy
    finishes, busys = [], []

    def send(n):
        finishes.append(ch.transmit(pkt(n=n)))
        busys.append(ch.busy_until)

    for t, n in zip(calls, payloads):
        sim.post_at(t, send, n)
    sim.run()
    return ch, finishes, busys


def test_serialize_matches_transmit_on_a_backlogged_burst():
    from repro.net.link import serialize

    # Mixed wire sizes behind a 3 µs backlog, then a gap the queue drains in.
    calls = [0.5e-6, 0.5e-6, 1e-6, 1e-6, 9e-6, 9e-6]
    payloads = [1000, 4096, 136, 2048, 1000, 333]
    ch, finishes, busys = _transmit_at(calls, payloads, busy=3e-6)
    wires = [n + 64 for n in payloads]
    assert serialize(calls, wires, ch.bandwidth, 3e-6,
                     ch.ctrl_bypass_bytes) == finishes
    assert busys[-1] == finishes[-1] and finishes[4] > 9e-6


def test_serialize_bypass_packet_leaves_the_bulk_queue_alone():
    from repro.net.link import serialize

    calls = [0.0, 1e-7, 2e-7]
    payloads = [1000, 64, 1000]  # the middle one is 128 B on the wire
    ch, finishes, busys = _transmit_at(calls, payloads)
    assert 64 + 64 <= ch.ctrl_bypass_bytes
    assert serialize(calls, [n + 64 for n in payloads], ch.bandwidth, 0.0,
                     ch.ctrl_bypass_bytes) == finishes
    assert busys[1] == busys[0] == finishes[0]  # no bulk-lane advance
    assert finishes[1] == 1e-7 + 128 / ch.bandwidth


def test_switch_hop_is_one_event_at_the_per_packet_instant():
    from repro.net.switch import Switch

    def hop(direct):
        sim = Simulator()
        sink = SinkNode(sim)
        sw = Switch(sim, "s0", forwarding_delay=0.1e-6)
        sw.add_port(Channel(sim, "s0", "b", sink, bandwidth=1e9, latency=1e-6))
        sw.route_row = [None, sw.ports["b"]]
        up = make_channel(sim, sw, bandwidth=1e9, latency=1.3e-6)
        p = pkt(n=1000, header=0)
        if direct:
            # Reference: the packet is injected at its arrival instant and
            # the switch adds its delay then (``now + delay``).
            sim.post_at(up.latency + 1e-6, sw.receive, p, up)
        else:
            up.transmit(p)
        sim.run()
        return sim.events_processed, sink.received[0][0], up.horizon

    events, t, horizon = hop(direct=False)
    events_ref, t_ref, _ = hop(direct=True)
    assert t == t_ref
    assert events == 2 and events_ref == 3  # forward + sink, no arrival event
    assert horizon == float("-inf")  # only a NIC keeps one


# ------------------------------------------ RNG streams are bound at fault install


def _ud_pair(seed):
    """A 2-host star with a UD pair h0 -> h1; returns what the tests drive."""
    from repro.net import Fabric, RecvWR, SendWR, Topology, Transport

    sim = Simulator()
    fabric = Fabric(sim, Topology.star(2), streams=RandomStreams(seed))
    tx = fabric.nic(0).create_qp(Transport.UD)
    rx = fabric.nic(1).create_qp(Transport.UD)
    s_mr = fabric.nic(0).memory.register(64)
    r_mr = fabric.nic(1).memory.register(64)
    wr = RecvWR(wr_id=0, mr_key=r_mr.key, offset=0, length=64)

    def burst(first_imm, n):
        rx.post_recv_cached_batch([wr] * n)
        for imm in range(first_imm, first_imm + n):
            tx.post_send(SendWR(wr_id=imm, verb="send", mr_key=s_mr.key, length=64,
                                imm=imm, dst=1, dst_qpn=rx.qpn))

    return sim, fabric, rx, burst


def test_clean_fabric_creates_no_stream_and_a_late_fault_draws_from_its_named_one():
    """A channel gets its RNG with its first fault.  Streams are seeded by
    name, so a fault installed from a callback mid-run draws exactly what
    a fresh ``RandomStreams(seed).stream("chan:src->dst")`` yields, and
    clearing then re-arming continues that sequence."""
    sim, fabric, rx, burst = _ud_pair(seed=9)
    ch = fabric.channel("h0", "sw000")
    assert fabric.streams.count == 0 and ch.rng is None
    burst(0, 4)  # clean: no draw, no stream
    sim.post_at(50e-6, fabric.set_fault, "h0", "sw000", FaultSpec(drop_prob=0.5))
    sim.post_at(60e-6, burst, 100, 32)
    sim.post_at(200e-6, fabric.set_fault, "h0", "sw000", None)
    sim.post_at(210e-6, burst, 200, 4)  # cleared: delivered, no draw
    sim.post_at(300e-6, fabric.set_fault, "h0", "sw000", FaultSpec(drop_prob=0.5))
    sim.post_at(310e-6, burst, 300, 32)
    sim.run()
    assert fabric.streams.count == 1  # the one armed channel, nothing else
    assert ch.rng is fabric.streams.stream("chan:h0->sw000")
    draws = RandomStreams(9).stream("chan:h0->sw000").random(64)
    expected = (list(range(4))
                + [100 + i for i in range(32) if draws[i] >= 0.5]
                + list(range(200, 204))
                + [300 + i for i in range(32) if draws[32 + i] >= 0.5])
    assert [c.imm for c in rx.recv_cq.poll()] == expected
    assert 0 < ch.packets_dropped < 64


# ------------------------------------------------------------ block draws


@st.composite
def drop_specs(draw):
    """Bernoulli, Gilbert-Elliott (a state may never lose), forced seqs and
    their mixes."""
    ge = None
    if draw(st.booleans()):
        ge = GilbertElliott(
            p_good_bad=draw(st.sampled_from([0.0, 0.05, 0.3])),
            p_bad_good=draw(st.sampled_from([0.1, 0.5, 1.0])),
            drop_good=draw(st.sampled_from([0.0, 0.01])),
            drop_bad=draw(st.sampled_from([0.0, 0.3, 1.0])),
            start_bad=draw(st.booleans()))
    return FaultSpec(drop_prob=draw(st.sampled_from([0.0, 0.02, 0.5])),
                     drop_packet_seqs=set(draw(st.lists(st.integers(0, 40),
                                                        max_size=5))),
                     gilbert_elliott=ge)


@settings(max_examples=200, deadline=None)
@given(spec=drop_specs(), seed=st.integers(0, 3), before=st.integers(0, 8),
       k=st.integers(0, 30), extra=st.integers(0, 30))
def test_block_draw_is_k_sequential_drop_decisions(spec, seed, before, k, extra):
    # The data fold's one drop model: a block of k decisions leaves the
    # mask, droppable index, Gilbert-Elliott state and RNG exactly where k
    # calls of the per-packet path leave them on a twin channel.
    sim = Simulator()
    block, twin, taped = (make_channel(sim, SinkNode(sim), fault=spec.clone(),
                                       seed=seed) for _ in range(3))

    def one(ch):
        seq = ch._droppable_seq
        ch._droppable_seq = seq + 1
        return ch._should_drop(pkt(), seq)

    for ch in (block, twin, taped):  # some packets before the block
        [one(ch) for _ in range(before)]
    mask = block.draw_drops(k)
    want = [one(twin) for _ in range(k)]
    assert mask.tolist() == want
    # a tape may draw further ahead than the packets it ends up serving
    tape = DropTape(taped)
    assert tape.take(0, k).tolist() == want
    tape.take(k, k + extra)
    tape.commit(k)
    for ch in (block, taped):
        assert ch._droppable_seq == twin._droppable_seq
        assert ch._ge_bad == twin._ge_bad
    nxt = twin.rng.random()
    assert block.rng.random() == nxt and taped.rng.random() == nxt
