"""The unified collective submission API (``Communicator.submit``).

Covers the four contracts of the submission redesign:

* **Request validation** — :class:`CollectiveRequest` rejects illegal
  kind/root/dtype combinations eagerly, with typed errors, before any
  simulator state exists.
* **Handle uniformity** — all six kinds return handles satisfying one
  :class:`CollectiveHandle` protocol (``done()``/``wait()``/``result()``)
  and results exposing uniform ``.kind`` / ``.phases`` / ``.trace``.
* **Composed-collective identity** — a ``submit()``-composed allreduce is
  bit-identical in virtual time and payload bytes to manually chaining
  ``reduce_scatter`` then ``allgather``; the FSDP optimal pair of
  ``workloads.fsdp`` matches submitting the same pair by hand exactly.
* **Crash semantics** — a fail-stop during the reduce-scatter phase
  aborts the composed collective with a typed error; one during the
  allgather phase completes degraded with validity masks; baseline-backed
  kinds are rejected at submit time once ranks are known dead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import (
    CollectiveConfig,
    Communicator,
    ComposedHandle,
    FailurePolicy,
)
from repro.core.reliability import CollectiveAbortedError
from repro.core.request import (
    CollectiveHandle,
    CollectiveKind,
    CollectiveRequest,
    CollectiveRequestError,
)
from repro.models.speedup import time_composed_allreduce
from repro.net.fabric import Fabric
from repro.net.faults import CrashSpec
from repro.net.topology import Topology
from repro.obs import TraceConfig
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s

P = 16


def make_comm(n_hosts=P, seed=0, config=None, topo=None, trace=None,
              link_gbit=56.0, reference=False):
    sim = Simulator()
    fabric = Fabric(
        sim,
        topo or Topology.leaf_spine(n_hosts, 2, 2),
        link_bandwidth=gbit_per_s(link_gbit),
        streams=RandomStreams(seed),
        reference=reference,
    )
    return Communicator(fabric, config=config, trace=trace)


def _u8(nbytes: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, nbytes, dtype=np.uint8)


def _f32(elems: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=elems).astype(np.float32)


# ------------------------------------------------------- request validation


def test_request_rejects_unknown_kind():
    with pytest.raises(CollectiveRequestError, match="unknown collective"):
        CollectiveRequest(kind="scan", data=[_u8(64)])


def test_rooted_kinds_require_root():
    for kind in ("broadcast", "reduce"):
        with pytest.raises(CollectiveRequestError, match="requires a root"):
            data = _u8(64) if kind == "broadcast" else [_f32(16)]
            CollectiveRequest(kind=kind, data=data)
    with pytest.raises(CollectiveRequestError, match="non-negative"):
        CollectiveRequest(kind="broadcast", data=_u8(64), root=-1)


def test_rootless_kinds_reject_root():
    for kind in ("allgather", "reduce_scatter", "allreduce", "alltoall"):
        with pytest.raises(CollectiveRequestError, match="rootless"):
            CollectiveRequest(kind=kind, data=[_f32(16)], root=0)


def test_reduction_op_validation():
    # Every reducing kind sums float32: a request has no reduction-op field.
    with pytest.raises(TypeError):
        CollectiveRequest(kind="allreduce", data=[_f32(16)], op="sum")


def test_reducing_kinds_reject_unreducible_dtypes():
    complex_data = [np.ones(16, dtype=np.complex64)]
    for kind in ("reduce_scatter", "allreduce"):
        with pytest.raises(CollectiveRequestError, match="dtype"):
            CollectiveRequest(kind=kind, data=complex_data)
    with pytest.raises(CollectiveRequestError, match="dtype"):
        CollectiveRequest(kind="reduce", data=complex_data, root=0)
    # Integer contributions are castable and accepted.
    CollectiveRequest(kind="allreduce", data=[np.arange(16, dtype=np.int32)])


def test_substrate_knobs_are_kind_scoped():
    with pytest.raises(CollectiveRequestError, match="fixed substrate"):
        CollectiveRequest(kind="broadcast", data=_u8(64), root=0,
                          algorithm="inc")
    with pytest.raises(CollectiveRequestError, match="chunk_bytes"):
        CollectiveRequest(kind="allgather", data=[_u8(64)], chunk_bytes=32)
    CollectiveRequest(kind="allreduce", data=[_f32(16)], algorithm="ring")
    CollectiveRequest(kind="alltoall", data=[_u8(64)], chunk_bytes=32)


def test_payload_shape_validation():
    with pytest.raises(CollectiveRequestError, match="single ndarray"):
        CollectiveRequest(kind="broadcast", data=[_u8(64)], root=0)
    with pytest.raises(CollectiveRequestError, match="sequence"):
        CollectiveRequest(kind="allgather", data=_u8(64))
    with pytest.raises(CollectiveRequestError, match="at least one"):
        CollectiveRequest(kind="allgather", data=[])


def test_submit_rejects_wrong_rank_count_and_bad_root():
    comm = make_comm(4, topo=Topology.star(4))
    with pytest.raises(ValueError):
        comm.submit(CollectiveRequest(
            kind="allgather", data=[_u8(4 * KiB) for _ in range(3)]))
    with pytest.raises(ValueError):
        comm.submit(CollectiveRequest(kind="broadcast", data=_u8(4 * KiB),
                                      root=9))
    with pytest.raises(CollectiveRequestError, match="takes a CollectiveRequest"):
        comm.submit({"kind": "allgather"})


# -------------------------------------------------------- handle uniformity


def _submit_one(comm: Communicator, kind: str):
    p = comm.size
    if kind == "broadcast":
        data = _u8(64 * KiB)
        req = CollectiveRequest(kind=kind, data=data, root=0)
    elif kind in ("allgather", "alltoall"):
        data = [_u8(16 * KiB, seed=r) for r in range(p)]
        req = CollectiveRequest(kind=kind, data=data)
    elif kind == "reduce":
        data = [_f32(4096, seed=r) for r in range(p)]
        req = CollectiveRequest(kind=kind, data=data, root=2)
    else:  # reduce_scatter / allreduce
        data = [_f32(p * 1024, seed=r) for r in range(p)]
        req = CollectiveRequest(kind=kind, data=data)
    return comm.submit(req), data


@pytest.mark.parametrize("kind", [k.value for k in CollectiveKind])
def test_handle_protocol_uniform(kind: str):
    comm = make_comm(trace=TraceConfig())
    handle, data = _submit_one(comm, kind)
    assert isinstance(handle, CollectiveHandle)
    assert handle.kind is CollectiveKind(kind)
    assert handle.handle_id >= 0
    assert not handle.done()
    handle.wait()
    assert handle.done()
    res = handle.result()
    assert res.kind == kind  # str-enum equality with the plain string
    # Uniform phase records: named, ordered, covering the result window.
    assert res.phases, f"{kind} reported no phases"
    assert res.phases[0].t_begin == res.t_begin
    assert res.phases[-1].t_end == res.t_end
    for ph in res.phases:
        assert ph.t_begin <= ph.t_end
        assert ph.duration >= 0.0
    if kind == "allreduce":
        assert [ph.name for ph in res.phases] == ["reduce_scatter", "allgather"]
    # Uniform trace exposure: every kind carries a clipped TraceView with
    # its own comm.submit instant.
    assert res.trace is not None
    submits = list(res.trace.select(name="comm.submit"))
    assert submits and submits[0].args["kind"] == kind
    comm.release(handle)


def test_rooted_results_carry_root():
    comm = make_comm(4, topo=Topology.star(4))
    res = comm.broadcast(1, _u8(16 * KiB))
    assert res.root == 1
    comm2 = make_comm(4, topo=Topology.star(4))
    res2 = comm2.reduce([_f32(1024, seed=r) for r in range(4)], root=3)
    assert res2.root == 3
    comm3 = make_comm(4, topo=Topology.star(4))
    res3 = comm3.allgather([_u8(4 * KiB, seed=r) for r in range(4)])
    assert res3.root is None


def test_no_negative_coll_id_convention():
    comm = make_comm(4, topo=Topology.star(4))
    handle = comm.submit(CollectiveRequest(
        kind="reduce_scatter", data=[_f32(1024, seed=r) for r in range(4)], algorithm="inc"))
    assert handle.coll_id is None
    assert handle.handle_id >= 0
    handle.wait()
    assert handle.result().verify_reduce_scatter(
        [_f32(1024, seed=r) for r in range(4)])


@pytest.mark.parametrize("kind", [k.value for k in CollectiveKind])
def test_handle_phases_stop_at_completion(kind: str):
    """A handle's phases end where each phase ended, not at ``sim.now``:
    once the collective completes they equal its result's, and still do
    after a later collective has moved the clock on."""
    comm = make_comm(8)
    handle, _ = _submit_one(comm, kind)
    handle.wait()
    res = handle.result()
    assert handle.phases == res.phases
    comm.broadcast(0, _u8(64 * KiB))
    assert comm.sim.now > res.t_end
    assert handle.phases == res.phases


def test_baseline_kinds_release_their_memory():
    """Releasing a reduce-scatter, reduce, alltoall or allreduce frees every
    region and QP it registered on every NIC (the blocking calls
    release), so region and QP counts return to where they started."""
    comm = make_comm(8)
    nics = [comm.fabric.nic(h) for h in range(comm.fabric.n_hosts)]
    data = [_f32(8 * 1024, seed=r) for r in range(8)]
    comm.allreduce(data)  # builds the communicator's lazy control pairs

    def held():
        return [(len(nic.memory), len(nic.qps)) for nic in nics]

    start = held()
    comm.reduce_scatter(data)
    comm.reduce_scatter(data, algorithm="ring")
    comm.reduce(data, root=2)
    comm.alltoall(data)
    comm.allreduce(data, algorithm="ring")
    handle = comm.submit(CollectiveRequest(kind="allreduce", data=data))
    handle.wait()
    assert held() != start
    comm.release(handle)
    assert held() == start


def test_allreduce_hands_reduced_shards_on_by_reference():
    """The allgather phase takes the reduce-scatter's shards region to
    region: no reduce-scatter or allgather region materialises, and the
    payload still verifies."""
    comm = make_comm(8)
    data = [_f32(8 * 1024, seed=r) for r in range(8)]
    handle = comm.submit(CollectiveRequest(kind="allreduce", data=data))
    handle.wait()
    res = handle.result()
    shards = handle._subs[0].buffers.regions  # the reduce-scatter's
    assert sum(mr.materialized for mr in shards) == 0
    assert res.engine["payload_regions_materialized"] == 0
    assert res.verify_allreduce(data)
    assert sum(mr.materialized for mr in shards) == 0


# ------------------------------------------------------------- correctness


def test_reduce_root_holds_full_sum():
    comm = make_comm(8)
    data = [_f32(4096, seed=r) for r in range(8)]
    res = comm.reduce(data, root=5)
    assert res.verify_reduce(data)
    total = np.sum(np.stack(data), axis=0)
    assert np.allclose(res.buffers[5], total, rtol=1e-3, atol=1e-3)
    assert all(res.buffers[r].size == 0 for r in range(8) if r != 5)


def test_alltoall_personalized_exchange():
    comm = make_comm(8)
    data = [_u8(8 * KiB, seed=r) for r in range(8)]
    res = comm.alltoall(data)
    assert res.verify_alltoall(data)
    block = data[0].nbytes // 8
    for r in range(8):
        for src in range(8):
            np.testing.assert_array_equal(
                res.buffers[r][src * block:(src + 1) * block],
                data[src][r * block:(r + 1) * block])


def test_allreduce_all_ranks_hold_sum():
    comm = make_comm()
    data = [_f32(P * 1024, seed=r) for r in range(P)]
    res = comm.allreduce(data)
    assert res.verify_allreduce(data)
    total = np.sum(np.stack(data), axis=0)
    for buf in res.buffers:
        assert np.allclose(buf, total, rtol=1e-3, atol=1e-3)


# --------------------------------------------- composed-collective identity


def _allreduce_payload(p: int, elems_per_rank: int):
    return [_f32(elems_per_rank, seed=100 + r) for r in range(p)]


@pytest.mark.parametrize("seed", [0, 7])
def test_allreduce_bit_identical_to_manual_chain(seed: int):
    """The tentpole identity: one composed submission finishes at the
    *exact* virtual instant (and with byte-identical payloads) as a caller
    manually running reduce_scatter then allgather on a twin fabric."""
    data = _allreduce_payload(P, P * 1024)

    comm_c = make_comm(seed=seed)
    res_c = comm_c.allreduce(data, algorithm="inc")

    comm_m = make_comm(seed=seed)
    rs = comm_m.reduce_scatter(data, algorithm="inc")
    ag = comm_m.allgather(rs.buffers)

    assert res_c.t_end == ag.t_end
    assert res_c.phases[0].t_end == rs.t_end
    assert comm_c.sim.now == comm_m.sim.now
    for bc, bm in zip(res_c.buffers, ag.buffers):
        np.testing.assert_array_equal(bc.view(np.uint8), bm.view(np.uint8))


def test_fsdp_submit_pair_matches_async_composition():
    """workloads.fsdp optimal mode must be bit-identical in virtual time to
    the same pair submitted by hand and run together."""
    from repro.bench import make_fabric
    from repro.workloads.fsdp import _ag_data, _rs_data, run_concurrent_pair

    cfg = CollectiveConfig(n_chains=P)
    res = run_concurrent_pair(make_fabric(P), "optimal", 64 * KiB, config=cfg)
    assert res.correct

    fabric = make_fabric(P)
    comm = Communicator(fabric, config=cfg)
    ag = comm.submit(CollectiveRequest(kind="allgather", data=_ag_data(P, 64 * KiB)))
    rs = comm.submit(CollectiveRequest(
        kind="reduce_scatter", data=_rs_data(P, 64 * KiB * P), algorithm="inc"))
    comm.run(ag, rs)
    makespan = max(ag.result().t_end, rs.result().t_end)
    assert res.makespan == makespan
    assert res.ag_duration == ag.result().duration
    assert res.rs_duration == rs.result().duration


def test_allreduce_fold_is_bit_identical():
    """A solo composed allreduce folds its allgather phase — and stays
    bit-identical to the reference engine."""
    data = _allreduce_payload(P, P * 1024)

    def run(reference: bool):
        cfg = CollectiveConfig(chunk_size=4096)
        comm = make_comm(config=cfg, reference=reference)
        res = comm.allreduce(data, algorithm="inc")
        assert res.verify_allreduce(data)
        return res

    res_ff, res_off = run(False), run(True)
    assert res_ff.t_end == res_off.t_end
    assert res_ff.duration == res_off.duration
    for bf, bo in zip(res_ff.buffers, res_off.buffers):
        np.testing.assert_array_equal(bf, bo)
    assert res_ff.engine["ff_phases"] > 0 == res_off.engine["ff_phases"]


# --------------------------------------------------- the Appendix B bound


@pytest.mark.perf
def test_allreduce_188_hosts_tracks_analytic_bound():
    """Acceptance point: the 188-host composed allreduce, run in the
    bandwidth-bound regime, completes within 10% of the analytic
    ``2·N/B`` chain bound (the Appendix B accounting: the composed chain
    serializes the bytes the concurrent pair overlaps, so bandwidth
    optimality of each phase is exactly what the bound checks)."""
    p, shard = 188, 4096
    nbytes = shard * p
    comm = make_comm(p, topo=Topology.testbed_188(), link_gbit=10.0,
                     config=CollectiveConfig(n_chains=p))
    data = [_f32(nbytes // 4, seed=r) for r in range(p)]
    res = comm.allreduce(data, algorithm="inc", segment_bytes=4096)
    assert res.verify_allreduce(data)
    bound = time_composed_allreduce(nbytes, p, gbit_per_s(10.0))
    ratio = res.duration / bound
    assert 1.0 <= ratio <= 1.10, (
        f"188-host allreduce {res.duration * 1e6:.1f}us vs analytic bound "
        f"{bound * 1e6:.1f}us (ratio {ratio:.3f}, want <= 1.10)")


# ---------------------------------------------------------- crash semantics


def _crash_cfg():
    return CollectiveConfig(chunk_size=4096,
                            failure_policy=FailurePolicy.DEGRADE)


def test_allreduce_rs_phase_crash_aborts_typed():
    """A fail-stop while the INC reduce-scatter is in flight poisons the
    reduction — the composed collective aborts with a typed error naming
    the phase and the dead rank."""
    comm = make_comm(config=_crash_cfg(), seed=41)
    comm.fabric.schedule_crash(CrashSpec(at=5e-6, host=9))
    data = _allreduce_payload(P, P * 1024)
    handle = comm.submit(CollectiveRequest(kind="allreduce", data=data, algorithm="inc"))
    assert isinstance(handle, ComposedHandle)
    with pytest.raises(CollectiveAbortedError) as exc:
        comm.run(handle)
    err = exc.value
    assert err.kind == "allreduce"
    assert err.phase == "reduce_scatter"
    assert list(err.dead_ranks) == [9]


def test_allreduce_ag_phase_crash_degrades():
    """A fail-stop after the reduction, inside the allgather window,
    rides the engine's liveness/DEGRADE machinery: survivors complete
    with the dead rank's shard masked invalid and every other shard
    byte-correct (mask-aware verify_allreduce)."""
    data = _allreduce_payload(P, P * 1024)
    clean = make_comm(config=_crash_cfg(), seed=42)
    res_clean = clean.allreduce(data, algorithm="inc")
    rs_end = res_clean.phases[0].t_end
    ag_end = res_clean.phases[1].t_end
    assert rs_end < ag_end

    comm = make_comm(config=_crash_cfg(), seed=42)
    comm.fabric.schedule_crash(
        CrashSpec(at=rs_end + 0.25 * (ag_end - rs_end), host=11))
    res = comm.allreduce(data, algorithm="inc")
    assert res.degraded and res.dead_ranks == [11]
    assert res.validity is not None
    assert res.verify_allreduce(data)
    assert [ph.name for ph in res.phases] == ["reduce_scatter", "allgather"]


def test_submit_rejects_baseline_kinds_on_dead_membership():
    """Once a rank is known dead, reductions and the unicast exchange are
    rejected at submit time (no degraded story exists for them) while the
    engine kinds still run degraded."""
    comm = make_comm(config=_crash_cfg(), seed=43)
    comm.fabric.schedule_crash(CrashSpec(at=10e-6, host=3))
    bcast = comm.broadcast(0, _u8(128 * KiB))
    assert bcast.degraded and comm.dead_ranks == {3}

    for kind in ("reduce_scatter", "reduce", "allreduce", "alltoall"):
        req = (CollectiveRequest(kind=kind, data=[_f32(P * 256)] * P, root=0)
               if kind == "reduce"
               else CollectiveRequest(kind=kind, data=[_f32(P * 256)] * P))
        with pytest.raises(CollectiveAbortedError) as exc:
            comm.submit(req)
        assert exc.value.phase == "submit"

    # The engine kinds still degrade instead of refusing.
    res = comm.allgather([_u8(16 * KiB, seed=r) for r in range(P)])
    assert res.degraded and res.dead_ranks == [3]


def _two_overlapping_broadcasts(reference: bool):
    """Hosts 0-11 and 4-15 of one fabric each submit a 64 KiB broadcast,
    both registered before either runs; returns their end instants."""
    fabric = Fabric(Simulator(), Topology.leaf_spine(16, 2, 2),
                    link_bandwidth=gbit_per_s(56), reference=reference)
    comms = (Communicator(fabric, hosts=range(0, 12)),
             Communicator(fabric, hosts=range(4, 16)))
    data = [_u8(64 * KiB, seed=1), _u8(64 * KiB, seed=2)]
    handles = [comm.submit(CollectiveRequest(kind="broadcast", data=d, root=0))
               for comm, d in zip(comms, data)]
    for comm, handle in zip(comms, handles):
        comm.run(handle)
    results = [h.result() for h in handles]
    assert all(res.verify_broadcast(d) for res, d in zip(results, data))
    return [res.t_end for res in results]


@pytest.mark.parametrize("reference", [False, True], ids=["production", "reference"])
def test_two_communicators_sharing_hosts_submit_together(reference):
    """Every collective takes its own symmetric memory key, so two
    communicators whose members overlap can both have a collective
    registered on a shared host at once."""
    _two_overlapping_broadcasts(reference)


def test_two_communicators_sharing_hosts_match_the_reference():
    """The folds' exclusivity test is fabric-wide: neither communicator
    folds its broadcast while the other's is in flight."""
    assert _two_overlapping_broadcasts(False) == _two_overlapping_broadcasts(True)
