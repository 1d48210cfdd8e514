#!/usr/bin/env python3
"""Re-run the search behind every committed tuning profile.

Each profile in ``src/repro/tune/profiles/`` records its scenario key, its
evaluation payload and seed, and the search budget it was found with.
This script rebuilds that scenario and searches it again with the same
budget (traced, as ``python -m repro tune`` does), overwriting the file.
The cache key, and so the file name, stays the same; only what the
search finds can change.  Run it after a change to the simulator or the
tuner's search space moves what the committed profiles measure:

    PYTHONPATH=src python tools/retune_profiles.py            # every profile
    PYTHONPATH=src python tools/retune_profiles.py allgather  # slug prefix
"""

from __future__ import annotations

import sys
import time

from repro.tune import ProfileStore, Scenario, autotune


def scenario_of(profile) -> Scenario:
    key = profile.key
    return Scenario(
        collective=key["collective"],
        n_hosts=key["n_hosts"],
        topo=key["topology"],
        link_gbit=key["link_gbit"],
        transport=key["transport"],
        msg_bytes=profile.scenario["msg_bytes"],
        fault_profile=key["fault_profile"],
        crash_profile=key.get("crash_profile", "none"),
        topo_params=key.get("topo_params", ""),
        seed=profile.scenario["seed"],
    )


def main(argv) -> int:
    store = ProfileStore.default()
    prefixes = argv or [""]
    for profile in store.profiles():
        if not any(profile.slug.startswith(p) for p in prefixes):
            continue
        scenario = scenario_of(profile)
        if scenario.cache_key() != profile.cache_key:
            raise SystemExit(f"{profile.slug}: scenario does not reproduce its key")
        t0 = time.perf_counter()
        result = autotune(scenario, store=store,
                          max_evals=profile.search["max_evals"], force=True)
        tuned = result.profile
        print(f"{tuned.slug}: {tuned.knobs} default "
              f"{tuned.baseline['duration'] * 1e6:.1f} µs -> tuned "
              f"{tuned.best['duration'] * 1e6:.1f} µs ({tuned.improvement:.2f}x), "
              f"{result.evaluations} runs, {result.sim_events:,} events, "
              f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
