"""Property-based tests (hypothesis) on core data structures & protocol.

These check *invariants*: bitmap vs a reference set model, chunk plans
partitioning buffers exactly, immediate-value round-trips, schedule
permutations, tree spanning properties, FIFO-queue conformance, routing
validity, and end-to-end collective correctness under randomized fault
injection.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Bitmap, BroadcastSequencer, ChunkPlan, ImmLayout, SubgroupPlan
from repro.core.baselines.bcast import knomial_tree
from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.costmodel import HostCostModel
from repro.core.request import CollectiveRequest
from repro.net import Fabric, Topology
from repro.net.link import FaultSpec
from repro.sim import RandomStreams, Simulator, Store
from repro.sim.events import Timeout
from repro.units import gbit_per_s

FAST = settings(max_examples=50, deadline=None)
SLOW = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -------------------------------------------------------------------- Bitmap


@FAST
@given(
    n_bits=st.integers(1, 500),
    ops=st.lists(st.integers(0, 499), max_size=100),
)
def test_bitmap_matches_set_model(n_bits, ops):
    bm = Bitmap(n_bits)
    model = set()
    for i in ops:
        i %= n_bits
        newly = bm.set(i)
        assert newly == (i not in model)
        model.add(i)
    assert bm.count == len(model)
    assert bm.missing() == sorted(set(range(n_bits)) - model)
    assert bm.all_set() == (len(model) == n_bits)


@FAST
@given(
    n_bits=st.integers(1, 500),
    ranges=st.lists(
        st.tuples(st.integers(0, 499), st.integers(0, 160)), max_size=20
    ),
)
def test_bitmap_set_range_matches_set_model(n_bits, ranges):
    bm = Bitmap(n_bits)
    model = set()
    for start, count in ranges:
        start %= n_bits
        count = min(count, n_bits - start)
        newly = bm.set_range(start, count)
        added = set(range(start, start + count)) - model
        assert newly == len(added)
        model |= added
    assert bm.count == len(model)
    assert bm.missing() == sorted(set(range(n_bits)) - model)
    # Word-granular paths (partial first/last word, full middle words) must
    # agree with bit-at-a-time setting.
    reference = Bitmap(n_bits)
    for i in sorted(model):
        reference.set(i)
    assert bm.missing_runs() == reference.missing_runs()


@FAST
@given(
    n_bits=st.integers(1, 400),
    bits=st.lists(st.integers(0, 399), max_size=120),
    prefix=st.one_of(st.none(), st.integers(0, 400)),
)
def test_bitmap_missing_runs_match_pure_python_reference(n_bits, bits, prefix):
    bm = Bitmap(n_bits)
    for i in bits:
        bm.set(i % n_bits)
    if prefix is not None:
        prefix = min(prefix, n_bits)
    assert bm.missing_runs(prefix) == bm.missing_runs_ref(prefix)
    # The all-set early-out must agree with the reference as well.
    bm.set_range(0, n_bits)
    assert bm.missing_runs(prefix) == bm.missing_runs_ref(prefix) == []


@FAST
@given(n_bits=st.integers(1, 300), seed=st.integers(0, 1000))
def test_bitmap_missing_runs_reconstruct_missing(n_bits, seed):
    rng = np.random.default_rng(seed)
    bm = Bitmap(n_bits)
    for i in rng.choice(n_bits, size=min(n_bits, 50), replace=False):
        bm.set(int(i))
    reconstructed = [i for start, count in bm.missing_runs()
                     for i in range(start, start + count)]
    assert reconstructed == bm.missing()


# ----------------------------------------------------------------- ChunkPlan


@FAST
@given(buffer_len=st.integers(0, 1 << 20), chunk=st.integers(1, 1 << 16))
def test_chunk_plan_partitions_exactly(buffer_len, chunk):
    plan = ChunkPlan(buffer_len, chunk)
    offsets = []
    total = 0
    for psn, off, ln in plan:
        assert 0 < ln <= chunk
        assert off == total
        total += ln
        offsets.append(psn)
    assert total == buffer_len
    assert offsets == list(range(plan.n_chunks))


# ----------------------------------------------------------------- ImmLayout


@FAST
@given(psn_bits=st.integers(1, 31), data=st.data())
def test_imm_layout_roundtrip_property(psn_bits, data):
    layout = ImmLayout(psn_bits)
    psn = data.draw(st.integers(0, layout.max_psns - 1))
    cid = data.draw(st.integers(0, layout.max_collectives - 1))
    imm = layout.encode(psn, cid)
    assert 0 <= imm < (1 << 32)
    assert layout.decode(imm) == (psn, cid)


# ----------------------------------------------------------------- Sequencer


@FAST
@given(chains=st.integers(1, 8), chain_len=st.integers(1, 16))
def test_sequencer_schedule_is_permutation(chains, chain_len):
    p = chains * chain_len
    seq = BroadcastSequencer(p, chains)
    roots = [r for group in seq.schedule() for r in group]
    assert sorted(roots) == list(range(p))
    # Every step activates exactly M roots, one per chain.
    for step, group in enumerate(seq.schedule()):
        assert len(group) == chains
        assert len({seq.chain_of(r) for r in group}) == chains
        assert all(seq.step_of(r) == step for r in group)


@FAST
@given(chains=st.integers(1, 8), chain_len=st.integers(1, 16))
def test_sequencer_activation_links_consistent(chains, chain_len):
    p = chains * chain_len
    seq = BroadcastSequencer(p, chains)
    for r in range(p):
        succ = seq.successor(r)
        if succ is not None:
            assert seq.predecessor(succ) == r
            assert seq.chain_of(succ) == seq.chain_of(r)


# ----------------------------------------------------------------- Subgroups


@FAST
@given(n_chunks=st.integers(0, 2000), n_subgroups=st.integers(1, 16))
def test_subgroups_partition_chunks(n_chunks, n_subgroups):
    plan = SubgroupPlan(n_chunks, n_subgroups)
    seen = []
    for sg in range(n_subgroups):
        lo, hi = plan.chunk_range(sg)
        seen.extend(range(lo, hi))
        for psn in range(lo, hi):
            assert plan.subgroup_of(psn) == sg
    assert seen == list(range(n_chunks))


# -------------------------------------------------------------- knomial tree


@FAST
@given(p=st.integers(1, 256), radix=st.integers(2, 8))
def test_knomial_tree_spans_all_ranks(p, radix):
    parent, children = knomial_tree(p, radix)
    assert parent[0] is None
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for c in children[node]:
            assert parent[c] == node
            assert c not in seen
            seen.add(c)
            stack.append(c)
    assert len(seen) == p


# --------------------------------------------------------------------- Store


@FAST
@given(ops=st.lists(st.one_of(st.integers(0, 100), st.none()), max_size=60))
def test_store_is_fifo(ops):
    sim = Simulator()
    store = Store(sim)
    model = []
    got = []
    for op in ops:
        if op is None:
            ok, item = store.try_get()
            if model:
                assert ok and item == model.pop(0)
            else:
                assert not ok
        else:
            store.try_put(op)
            model.append(op)
    sim.run()


# ------------------------------------------------------------------- Routing


@FAST
@given(
    n_hosts=st.integers(2, 64),
    pair=st.tuples(st.integers(0, 63), st.integers(0, 63)),
)
def test_leaf_spine_routes_are_valid_paths(n_hosts, pair):
    src, dst = pair[0] % n_hosts, pair[1] % n_hosts
    if src == dst:
        return
    topo = Topology.leaf_spine(n_hosts, n_leaf=max(2, n_hosts // 8), n_spine=2)
    path = topo.path(src, dst)
    assert path[0] == f"h{src}" and path[-1] == f"h{dst}"
    # Each consecutive pair must be an edge; no node repeats (simple path).
    for a, b in zip(path, path[1:]):
        assert b in topo.neighbors(a)
    assert len(set(path)) == len(path)
    assert len(path) - 1 <= 4  # ≤ 2 levels up + down


@FAST
@given(n_hosts=st.integers(2, 48), gid=st.integers(0, 7), seed=st.integers(0, 99))
def test_mcast_tree_spans_members(n_hosts, gid, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, n_hosts + 1))
    members = sorted(rng.choice(n_hosts, size=size, replace=False).tolist())
    topo = Topology.leaf_spine(n_hosts, n_leaf=max(2, n_hosts // 8), n_spine=2)
    tree = topo.mcast_tree(gid, members)
    # Tree invariant: edges = nodes - 1, all members included.
    n_nodes = len(tree)
    n_edges = sum(len(v) for v in tree.values()) // 2
    assert n_edges == n_nodes - 1
    for m in members:
        assert f"h{m}" in tree


# ----------------------------------------------- end-to-end under faults


@SLOW
@given(
    seed=st.integers(0, 10_000),
    drop_prob=st.floats(0.0, 0.15),
    jitter_us=st.floats(0.0, 30.0),
)
def test_broadcast_correct_under_random_faults(seed, drop_prob, jitter_us):
    sim = Simulator()
    fabric = Fabric(sim, Topology.star(4), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed))
    fabric.set_fault_all(
        lambda s, d: FaultSpec(drop_prob=drop_prob, reorder_jitter=jitter_us * 1e-6)
    )
    comm = Communicator(fabric)
    data = np.random.default_rng(seed).integers(0, 256, 32 * 1024, dtype=np.uint8)
    result = comm.broadcast(0, data)
    assert result.verify_broadcast(data)


@SLOW
@given(seed=st.integers(0, 10_000), drop_prob=st.floats(0.0, 0.08))
def test_allgather_correct_under_random_faults(seed, drop_prob):
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(4, 2, 2), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed))
    fabric.set_fault_all(lambda s, d: FaultSpec(drop_prob=drop_prob))
    comm = Communicator(fabric)
    data = [np.random.default_rng(seed + r).integers(0, 256, 8192, dtype=np.uint8)
            for r in range(4)]
    result = comm.allgather(data)
    assert result.verify_allgather(data)


@SLOW
@given(seed=st.integers(0, 1000))
def test_simulation_is_deterministic(seed):
    """Same seed → identical completion time and traffic counters."""

    def run():
        sim = Simulator()
        fabric = Fabric(sim, Topology.star(4), link_bandwidth=gbit_per_s(56),
                        streams=RandomStreams(seed))
        fabric.set_fault_all(lambda s, d: FaultSpec(drop_prob=0.05))
        comm = Communicator(fabric)
        data = np.random.default_rng(seed).integers(0, 256, 16384, dtype=np.uint8)
        res = comm.broadcast(0, data)
        return res.duration, fabric.switch_egress_bytes(), fabric.total_drops()

    assert run() == run()


# ------------------------------------------------- control-plane fold (§6i)


def _family(name: str, p: int) -> Topology:
    if name == "star":
        return Topology.star(p)
    if name == "leaf_spine":
        return Topology.leaf_spine(p, max(1, p // 6), 2)
    if name == "torus":
        side = max(2, int(np.ceil(np.sqrt(p))))
        return Topology.torus((side, side))
    return Topology.dragonfly(max(2, -(-p // 6)), 3, 2)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["star", "leaf_spine", "torus", "dragonfly"]),
    p=st.integers(2, 64),
    latency=st.sampled_from([0.0, 0.25e-6, 1e-6, 3e-6]),
    forwarding=st.sampled_from([0.0, 0.1e-6, 0.8e-6]),
    ctrl_cost=st.sampled_from([0.0, 0.5e-6, 4e-6]),
    root=st.integers(0, 63),
)
def test_control_fold_is_bit_exact_or_declines_with_a_reason(
        family, p, latency, forwarding, ctrl_cost, root):
    def run(reference):
        fabric = Fabric(Simulator(), _family(family, p),
                        link_bandwidth=gbit_per_s(56), link_latency=latency,
                        switch_delay=forwarding, streams=RandomStreams(seed=3),
                        reference=reference)
        comm = Communicator(fabric, hosts=range(p), config=CollectiveConfig(
            transport="uc",
            cost=replace(HostCostModel(), ctrl_message=ctrl_cost)))
        data = np.arange(20_000, dtype=np.uint8)
        res = comm.broadcast(root % p, data)
        assert res.verify_broadcast(data)
        return res, [(e.ctrl.messages_sent, e.ctrl.messages_received,
                      e.ctrl.last_heard) for e in comm.engines]

    (res, messages), (ref, ref_messages) = run(False), run(True)
    assert [r.phases for r in res.ranks] == [r.phases for r in ref.ranks]
    assert res.duration == ref.duration and res.traffic == ref.traffic
    assert messages == ref_messages
    eng = res.engine
    assert eng["ctrl_folds"] + sum(eng["ctrl_fold_misses"].values()) == 2


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["star", "leaf_spine", "torus", "dragonfly"]),
    p=st.integers(2, 40),
    ctrl_cost=st.sampled_from([0.0, 0.35e-6, 2e-6]),
    first=st.sampled_from(["broadcast", "allgather"]),
    delay=st.floats(0.0, 40e-6),
    root=st.integers(0, 39),
)
def test_a_collective_admitted_at_any_instant_leaves_the_oracles_state(
        family, p, ctrl_cost, first, delay, root):
    # Whatever the first collective has folded when the second is submitted
    # — nothing yet, a barrier half served, a handshake — both finish as
    # they do on the reference engine (ControlFold.unfold hands the rest
    # back).
    def run(reference):
        fabric = Fabric(Simulator(), _family(family, p),
                        link_bandwidth=gbit_per_s(56), streams=RandomStreams(seed=3),
                        reference=reference)
        comm = Communicator(fabric, hosts=range(p), config=CollectiveConfig(
            transport="uc",
            cost=replace(HostCostModel(), ctrl_message=ctrl_cost)))
        data = np.arange(4096, dtype=np.uint8)
        handles = []

        def driver():
            handles.append(comm.submit(
                CollectiveRequest(kind="broadcast", data=data, root=0)
                if first == "broadcast"
                else CollectiveRequest(kind="allgather", data=[data[:512]] * p)))
            yield Timeout(comm.sim, delay)
            handles.append(comm.submit(CollectiveRequest(
                kind="broadcast", data=data, root=root % p)))

        comm.sim.drain([comm.sim.spawn(driver())])
        comm.run(*handles)
        return ([[op.phases for op in h.ops] for h in handles],
                {key: (ch.bytes_sent, ch.packets_sent)
                 for key, ch in fabric.channels.items()},
                [(e.ctrl.messages_sent, e.ctrl.messages_received,
                  e.ctrl.last_heard) for e in comm.engines])

    assert run(False) == run(True)
