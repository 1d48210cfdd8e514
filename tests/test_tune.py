"""The autotuning subsystem: key determinism, search-space validity,
store round-trips, cache-hit semantics, API/CLI resolution, and the
188-node acceptance point (tuned never loses to the untuned default).
"""

import dataclasses
import functools
import json
import os

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.tune import scenario as scenario_module
from repro.tune import (
    ProfileStore,
    Scenario,
    SearchSpace,
    TuningProfile,
    autotune,
    config_from_knobs,
    evaluate,
    predict_time,
    prune,
    resolve_config,
    size_bucket,
)
from repro.units import KiB

TINY = Scenario(collective="allgather", n_hosts=8, topo="star",
                msg_bytes=64 * KiB, seed=0)


# ------------------------------------------------------------------ scenario


def test_size_bucket_power_of_two_ceiling():
    assert size_bucket(1) == 1
    assert size_bucket(4096) == 4096
    assert size_bucket(4097) == 8192
    assert size_bucket(100_000) == 128 * 1024
    with pytest.raises(ValueError):
        size_bucket(0)


def test_cache_key_deterministic_and_seed_independent():
    a = Scenario(collective="allgather", n_hosts=16, msg_bytes=60_000, seed=0)
    b = Scenario(collective="allgather", n_hosts=16, msg_bytes=64 * KiB, seed=7)
    # Same bucket, different seed/exact size -> same key.
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() == a.cache_key()
    for other in (
        dataclasses.replace(a, transport="uc"),
        dataclasses.replace(a, fault_profile="burst"),
        dataclasses.replace(a, msg_bytes=128 * KiB),
        dataclasses.replace(a, n_hosts=32),
        dataclasses.replace(a, collective="broadcast"),
    ):
        assert other.cache_key() != a.cache_key()


def test_scenario_rejects_unknown_members():
    with pytest.raises(ValueError):
        Scenario(collective="scan")
    with pytest.raises(ValueError):
        Scenario(transport="rc")
    with pytest.raises(ValueError):
        Scenario(fault_profile="apocalypse")


def test_resolved_topo_mirrors_bench_auto():
    assert Scenario(n_hosts=188).resolved_topo == "testbed_188"
    assert Scenario(n_hosts=4).resolved_topo == "star"
    assert Scenario(n_hosts=32).resolved_topo == "leaf_spine"


# --------------------------------------------------------------------- space


def test_candidates_are_valid_configs():
    space = SearchSpace.default(TINY)
    cands = space.candidates()
    assert cands, "empty search space"
    fabric = Fabric(Simulator(), Topology.back_to_back(), mtu=64 * KiB)
    for knobs in cands:
        cfg = config_from_knobs(knobs)
        cfg.validate(fabric)  # raises on an invalid candidate
        # Structural constraints the Communicator relies on.
        assert TINY.bucket % cfg.chunk_size == 0
        assert cfg.n_subgroups <= max(TINY.bucket // cfg.chunk_size, 1)
        assert knobs["transport"] == TINY.transport


def test_space_trims_chains_for_broadcast_and_small_groups():
    bc = SearchSpace.default(dataclasses.replace(TINY, collective="broadcast"))
    assert bc.domains["n_chains"].values == (1,)
    tiny = SearchSpace.default(dataclasses.replace(TINY, n_hosts=2))
    assert max(tiny.domains["n_chains"].values) <= 2


def test_lossy_scenarios_search_the_cutoff_family():
    lossy = SearchSpace.default(
        dataclasses.replace(TINY, fault_profile="bernoulli"))
    assert "cutoff_alpha" in lossy.domains
    assert "adaptive_cutoff" in lossy.domains
    assert "cutoff_alpha" not in SearchSpace.default(TINY).domains


def test_baseline_knobs_equal_stock_config():
    knobs = SearchSpace.default(TINY).baseline_knobs()
    cfg = config_from_knobs(knobs)
    stock = CollectiveConfig()
    assert cfg.chunk_size == stock.chunk_size
    assert cfg.n_chains == stock.n_chains
    assert cfg.batch_size == stock.batch_size
    assert cfg.cost == stock.cost  # chunk 4096 -> scale factor 1


# ---------------------------------------------------------------- cost model


def test_predict_time_positive_and_deterministic():
    space = SearchSpace.default(TINY)
    for knobs in space.candidates()[:10]:
        est = predict_time(TINY, knobs)
        assert est.total > 0
        assert est.total == predict_time(TINY, knobs).total
        assert est.total >= max(est.wire, est.software)


def test_prune_deterministic_and_diverse():
    space = SearchSpace.default(TINY)
    cands = space.candidates()
    ranked = prune(TINY, cands, keep=5)
    assert len(ranked) == 5
    totals = [est.total for _, est in ranked]
    assert totals == sorted(totals)
    assert len(set(totals)) == 5, "pruner kept model-indistinguishable points"
    again = prune(TINY, cands, keep=5)
    assert [k for k, _ in ranked] == [k for k, _ in again]


def test_lossy_prediction_adds_recovery_cost():
    clean = predict_time(TINY, SearchSpace.default(TINY).baseline_knobs())
    lossy_scn = dataclasses.replace(TINY, fault_profile="burst")
    lossy = predict_time(lossy_scn, SearchSpace.default(lossy_scn).baseline_knobs())
    assert clean.recovery == 0.0
    assert lossy.recovery > 0.0


# ----------------------------------------------------------------- evaluator


def test_evaluate_measures_and_verifies():
    m = evaluate(TINY, SearchSpace.default(TINY).baseline_knobs())
    assert m.verified
    assert m.duration > 0 and m.sim_events > 0
    assert 0.0 < m.link_util_peak <= 1.0
    assert 0.0 <= m.staging_peak_frac <= 1.0
    # Bit-reproducible: same scenario + knobs -> identical measurement.
    assert evaluate(TINY, SearchSpace.default(TINY).baseline_knobs()) == m


def test_evaluate_without_trace_same_virtual_time():
    knobs = SearchSpace.default(TINY).baseline_knobs()
    traced = evaluate(TINY, knobs, trace=True)
    untraced = evaluate(TINY, knobs, trace=False)
    assert untraced.duration == traced.duration
    assert untraced.link_util_peak == 0.0  # metrics need the tracer


#: the committed torus profile's shape: 16 ranks in 8 concurrent chains
TORUS_CHAINED = (Scenario(collective="allgather", n_hosts=16, topo="torus",
                          msg_bytes=64 * KiB, seed=0,
                          topo_params='{"dims": [4, 4], "hosts_per_node": 1}'),
                 {"n_chains": 8, "staging_slots": 128, "batch_size": 8,
                  "max_outstanding_batches": 2})


@pytest.mark.parametrize("case", ["tiny", "torus_chained"])
def test_folded_staging_peak_matches_the_packet_path(case, monkeypatch):
    # A folded phase holds no staging slot at packet level; the session
    # traces each lane's peak instead (a slot is held from the worker's
    # CQE poll until its copy completes), so the tuner reads the same
    # staging headroom from the fold and from the per-CQE reference.
    scenario, extra = (TINY, {}) if case == "tiny" else TORUS_CHAINED
    knobs = {**SearchSpace.default(scenario).baseline_knobs(), **extra}
    folded = evaluate(scenario, knobs)
    monkeypatch.setattr(scenario_module, "Fabric",
                        functools.partial(Fabric, reference=True))
    ref = evaluate(scenario, knobs)
    assert folded.duration == ref.duration
    assert 0.0 < folded.staging_peak_frac == ref.staging_peak_frac
    assert folded.sim_events < ref.sim_events


TINY_AR = Scenario(collective="allreduce", n_hosts=8, topo="star",
                   msg_bytes=64 * KiB, seed=0)
TINY_A2A = Scenario(collective="alltoall", n_hosts=8, topo="star",
                    msg_bytes=64 * KiB, seed=0)


def test_new_kinds_key_cleanly_and_evaluate():
    """allreduce/alltoall are first-class tuning keys: distinct digests,
    collective-named slugs, and evaluations that run (and verify) through
    the unified submission surface."""
    for scn in (TINY_AR, TINY_A2A):
        assert scn.cache_key() != TINY.cache_key()
        assert scn.collective in scn.slug()
        m = evaluate(scn, SearchSpace.default(scn).baseline_knobs())
        assert m.verified
        assert m.duration > 0 and m.sim_events > 0
        # Bit-reproducible like the engine kinds.
        assert evaluate(scn, SearchSpace.default(scn).baseline_knobs()) == m


def test_allreduce_space_is_shard_aligned():
    """Candidate chunks must keep the allgather-over-shards phase
    chunk-aligned: every enumerated point satisfies the same eager check
    Communicator._launch_allreduce applies."""
    space = SearchSpace.default(TINY_AR)
    cands = space.candidates()
    assert cands
    shard = (TINY_AR.bucket // 4 // TINY_AR.n_hosts) * 4
    for knobs in cands:
        chunk = int(knobs["chunk_size"])
        assert shard % min(chunk, shard) == 0
    # Chains search the allgather phase of the composed collective...
    assert any(int(k["n_chains"]) > 1 for k in cands)
    # ...while alltoall has no chain machinery to search.
    assert all(int(k["n_chains"]) == 1
               for k in SearchSpace.default(TINY_A2A).candidates())


def test_autotune_allreduce_key_roundtrip(tmp_path):
    """The CI tune-smoke contract for the new kind: search once, then a
    byte-identical pure cache hit on the same allreduce key."""
    store = ProfileStore(str(tmp_path))
    first = autotune(TINY_AR, store=store, max_evals=2)
    assert not first.cache_hit
    assert first.profile.key["collective"] == "allreduce"
    second = autotune(TINY_AR, store=store, max_evals=2)
    assert second.cache_hit
    assert second.evaluations == 0 and second.sim_events == 0
    assert second.profile.to_json() == first.profile.to_json()


# ------------------------------------------------------------ search + store


def test_autotune_search_then_pure_cache_hit(tmp_path):
    store = ProfileStore(str(tmp_path))
    first = autotune(TINY, store=store, max_evals=3)
    assert not first.cache_hit
    assert first.evaluations == 4  # budget + the baseline riding along
    assert first.sim_events > 0
    assert os.path.isfile(first.store_path)
    blob = open(first.store_path).read()

    second = autotune(TINY, store=store, max_evals=3)
    assert second.cache_hit
    assert second.evaluations == 0 and second.sim_events == 0
    assert second.profile.to_json() == first.profile.to_json()
    assert open(second.store_path).read() == blob

    # A fresh store instance (new process, same directory) also hits.
    third = autotune(TINY, store=ProfileStore(str(tmp_path)), max_evals=3)
    assert third.cache_hit
    assert third.profile.to_json() == first.profile.to_json()


def test_autotune_never_loses_to_default(tmp_path):
    result = autotune(TINY, store=ProfileStore(str(tmp_path)), max_evals=3)
    profile = result.profile
    assert profile.best["duration"] <= profile.baseline["duration"]
    assert profile.improvement >= 1.0
    assert profile.best["verified"] and profile.baseline["verified"]


def test_profile_roundtrip_byte_stable(tmp_path):
    result = autotune(TINY, store=ProfileStore(str(tmp_path)), max_evals=2)
    text = result.profile.to_json()
    reloaded = TuningProfile.from_json(text)
    assert reloaded.to_json() == text
    reloaded.validate()


def test_profile_schema_rejections():
    with pytest.raises(ValueError, match="schema"):
        TuningProfile.from_json(json.dumps({"schema": 999}))
    with pytest.raises(ValueError, match="unknown profile fields"):
        TuningProfile.from_json(json.dumps({
            "schema": 1, "key": {}, "cache_key": "x", "slug": "s",
            "scenario": {}, "knobs": {}, "baseline": {}, "best": {},
            "search": {}, "bogus": 1}))


# ------------------------------------------------------- committed profiles


def committed_store():
    store = ProfileStore.default()
    profiles = store.profiles()
    assert profiles, "no committed tuning profiles"
    return store, profiles


def test_committed_profiles_roundtrip_and_validate():
    store, profiles = committed_store()
    for profile in profiles:
        profile.validate()
        path = store.path_for(profile)
        blob = open(path).read()
        assert TuningProfile.from_json(blob).to_json() == blob, (
            f"{profile.slug} is not byte-stable")
        # The stored knobs materialize into a validating config.
        cfg = profile.config()
        mtu = cfg.chunk_size if cfg.transport == "ud" else 4096
        cfg.validate(Fabric(Simulator(), Topology.back_to_back(), mtu=mtu))


def test_committed_profiles_cover_the_188_node_points():
    _, profiles = committed_store()
    keys = {(p.key["collective"], p.key["n_hosts"], p.key["topology"])
            for p in profiles}
    assert ("allgather", 188, "testbed_188") in keys
    assert ("broadcast", 188, "testbed_188") in keys


def test_committed_profile_lookup_is_cache_hit():
    store, profiles = committed_store()
    for profile in profiles:
        scn = Scenario(
            collective=profile.key["collective"],
            n_hosts=profile.key["n_hosts"],
            topo=profile.key["topology"],
            link_gbit=profile.key["link_gbit"],
            transport=profile.key["transport"],
            msg_bytes=profile.key["bucket"],
            fault_profile=profile.key["fault_profile"],
            # Zoo profiles carry their build params in the key; the
            # spec normalizer must round-trip them to the same digest.
            topo_params=profile.key.get("topo_params", ""),
        )
        assert scn.cache_key() == profile.cache_key
        result = autotune(scn, store=store)
        assert result.cache_hit and result.sim_events == 0


# ---------------------------------------------------------------- resolution


def test_resolve_config_falls_back_to_default(tmp_path):
    fabric = Fabric(Simulator(), Topology.star(8))
    cfg = resolve_config(fabric, store=ProfileStore(str(tmp_path / "empty")))
    assert cfg == CollectiveConfig()
    # Custom topologies never resolve (no key to look up).
    custom = Fabric(Simulator(), Topology(2, [("h0", "s"), ("h1", "s")]))
    assert resolve_config(custom) == CollectiveConfig()


def test_resolve_config_uses_store_and_clamps_chunk(tmp_path):
    store = ProfileStore(str(tmp_path))
    autotune(TINY, store=store, max_evals=3)
    fabric = Fabric(Simulator(), Topology.star(8), mtu=64 * KiB)
    cfg = resolve_config(fabric, msg_bytes=64 * KiB, store=store)
    tuned = store.profiles()[0]
    assert cfg.chunk_size == tuned.knobs["chunk_size"]
    assert cfg.n_chains == tuned.knobs["n_chains"]
    # A 4 KiB-MTU fabric clamps a wider tuned UD chunk down.
    small = Fabric(Simulator(), Topology.star(8), mtu=4096)
    clamped = resolve_config(small, msg_bytes=64 * KiB, store=store)
    assert clamped.chunk_size <= 4096
    clamped.validate(small)


def test_communicator_config_auto_runs(tmp_path, monkeypatch):
    import repro.tune.store as store_mod

    store = ProfileStore(str(tmp_path))
    autotune(TINY, store=store, max_evals=3)
    monkeypatch.setattr(store_mod, "DEFAULT_PROFILE_DIR", str(tmp_path))
    fabric = Fabric(Simulator(), Topology.star(8), mtu=64 * KiB)
    comm = Communicator(fabric, config="auto")
    tuned = store.profiles()[0]
    assert comm.config.n_chains == tuned.knobs["n_chains"]
    data = [np.full(64 * KiB, r % 251, dtype=np.uint8) for r in range(8)]
    res = comm.allgather(data)
    assert res.verify_allgather(data)


def test_resolve_config_matches_committed_testbed_profile():
    """Topology.testbed_188() reports kind 'leaf_spine'; resolution must
    still find the profiles keyed under 'testbed_188'."""
    store, _ = committed_store()
    profile = store.lookup(Scenario(collective="allgather", n_hosts=188,
                                    msg_bytes=16 * KiB))
    fabric = Fabric(Simulator(), Topology.testbed_188(),
                    mtu=profile.knobs["chunk_size"])
    cfg = resolve_config(fabric, msg_bytes=16 * KiB, store=store)
    assert cfg.chunk_size == profile.knobs["chunk_size"]
    assert cfg.n_chains == profile.knobs["n_chains"]


def test_communicator_rejects_unknown_preset():
    fabric = Fabric(Simulator(), Topology.star(4))
    with pytest.raises(ValueError, match="preset"):
        Communicator(fabric, config="fastest")


# --------------------------------------------------- 188-node acceptance


def test_tuned_beats_default_on_fig11_allgather_188():
    """Acceptance: on the fig11-style 188-node allgather point, the
    committed profile's simulated completion time is <= the stock
    default's, measured through the same evaluator plumbing."""
    store, _ = committed_store()
    scn = Scenario(collective="allgather", n_hosts=188, msg_bytes=16 * KiB)
    profile = store.lookup(scn)
    assert profile is not None, "missing committed 188-node allgather profile"
    space = SearchSpace.default(scn)
    default = evaluate(scn, space.baseline_knobs(), trace=False)
    tuned = evaluate(scn, profile.knobs, trace=False)
    assert default.verified and tuned.verified
    assert tuned.duration <= default.duration
    # The committed measurement is reproducible on this machine too.
    assert tuned.duration == pytest.approx(profile.best["duration"], rel=1e-9)
