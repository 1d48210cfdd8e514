"""Knob domains and validity constraints of the tuning search space.

The space is declared per scenario: domains are trimmed to what the
deployment point can express (chunks no larger than the message, chains
no longer than the communicator, subgroup counts that still leave every
subgroup at least one chunk), then every enumerated candidate is checked
against the real :meth:`~repro.core.communicator.CollectiveConfig.validate`
on a 4 KiB-MTU fabric — the tuner can never propose a config the
Communicator would reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.core.communicator import CollectiveConfig
from repro.models.footprint import BF3_MAX_RECV_QUEUE
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.tune.scenario import Scenario

__all__ = ["KnobDomain", "SearchSpace"]

#: the fabric MTU: a UD datagram carries exactly one chunk of it
BASE_CHUNK = 4096
#: the UC chunk sweep, up to fig 15's 64 KiB ceiling
UC_CHUNKS = (4096, 8192, 16384, 32768, 65536)


@dataclass(frozen=True)
class KnobDomain:
    """One knob's finite candidate set."""

    name: str
    values: Tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"empty domain for knob {self.name!r}")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"duplicate values in domain {self.name!r}")


@dataclass
class SearchSpace:
    """A finite grid over :class:`CollectiveConfig` knobs.

    ``domains`` maps knob name → :class:`KnobDomain`; every name must be
    a ``CollectiveConfig`` field.  :meth:`candidates` enumerates the
    cartesian product, drops structurally impossible combinations, and
    validates the survivors through ``CollectiveConfig.validate``.
    """

    scenario: Scenario
    domains: Dict[str, KnobDomain] = field(default_factory=dict)

    # ------------------------------------------------------------- factory

    @classmethod
    def default(cls, scenario: Scenario) -> "SearchSpace":
        """The stock grid for a scenario (a few hundred points at most).

        A UD chunk is one datagram, so its domain is the MTU alone; a UC
        chunk is one CQE over many wire packets (§V-B), so UC sweeps
        powers of two from the MTU up to the message bucket.  Parallelism
        knobs stop at the paper's §IV-C operating points (4 subgroups /
        4 chains); batching and staging cover the §V-A and §III-D regimes.
        Lossy fault profiles add the cutoff slack (§III-C) — on a clean
        fabric the cutoff never fires, so searching it would waste
        evaluations.  ``adaptive_cutoff`` is not searched: an evaluation
        is one collective on a fresh communicator, which arms the static
        slack either way.
        """
        n = scenario.bucket
        chunks = (min(BASE_CHUNK, n),)
        if scenario.transport == "uc":
            chunks = tuple(c for c in UC_CHUNKS if c <= n and n % c == 0) or chunks
        max_par = max(1, n // max(chunks))
        sub_pool = (1, 2, 4)
        chain_pool = (1, 2, 4)
        if scenario.resolved_topo == "multi_rail":
            # Rail striping rides on subgroups (stripe g → plane g mod
            # rails): the domain must offer multiples of the rail count
            # or the planner can never spread load across planes.
            rails = int(scenario._params().get("n_rails", 2))
            sub_pool = tuple(sorted({*sub_pool, rails, 2 * rails}))
        if scenario.resolved_topo in ("torus", "dragonfly", "multi_rail"):
            # The zoo shapes have more root diversity than a 2-spine
            # fat-tree; let the chain schedule go wider.
            chain_pool = (1, 2, 4, 8)
        subgroups = tuple(s for s in sub_pool if s <= max_par)
        # Chain count matters wherever the multicast allgather engine runs:
        # plain allgather and the allgather phase of the composed allreduce.
        chains = (
            tuple(m for m in chain_pool if m <= scenario.n_hosts)
            if scenario.collective in ("allgather", "allreduce") else (1,)
        )
        domains = {
            "chunk_size": KnobDomain("chunk_size", chunks),
            "n_subgroups": KnobDomain("n_subgroups", subgroups),
            "n_chains": KnobDomain("n_chains", chains),
            "batch_size": KnobDomain("batch_size", (8, 32, 64)),
            "staging_slots": KnobDomain(
                "staging_slots",
                tuple(s for s in (128, 256, 512) if s <= BF3_MAX_RECV_QUEUE)),
        }
        if scenario.fault_profile != "clean":
            domains["cutoff_alpha"] = KnobDomain(
                "cutoff_alpha", (100e-6, 200e-6, 400e-6))
        return cls(scenario=scenario, domains=domains)

    # --------------------------------------------------------- enumeration

    @property
    def n_points(self) -> int:
        total = 1
        for d in self.domains.values():
            total *= len(d.values)
        return total

    def _grid(self) -> Iterator[Dict[str, object]]:
        names = sorted(self.domains)
        for combo in itertools.product(*(self.domains[k].values for k in names)):
            yield dict(zip(names, combo))

    def _structurally_valid(self, knobs: Dict[str, object]) -> bool:
        scn = self.scenario
        chunk = int(knobs.get("chunk_size", BASE_CHUNK))
        if scn.collective == "allgather" and scn.bucket % chunk != 0:
            return False
        if scn.collective == "allreduce":
            # The allgather phase runs over the reduced N/P shards, so
            # its chunk alignment (and the per-subgroup minimum) is
            # against the shard, not the full contribution — mirror the
            # eager check in Communicator._launch_allreduce.
            shard = max(scn.bucket // 4 // scn.n_hosts, 1) * 4
            eff = min(chunk, shard)
            if shard % eff != 0:
                return False
            block = shard
        else:
            block = scn.bucket
        # Every subgroup must carry at least one chunk of a sender's block.
        chunks_per_rank = max(block // min(chunk, block), 1)
        if int(knobs.get("n_subgroups", 1)) > chunks_per_rank:
            return False
        if int(knobs.get("n_chains", 1)) > scn.n_hosts:
            return False
        return True

    def candidates(self) -> List[Dict[str, object]]:
        """Every valid knob assignment, in deterministic order.

        Each entry is a plain dict of ``CollectiveConfig`` overrides
        (the profile-store exchange format); materialize one with
        :func:`repro.tune.store.config_from_knobs`.
        """
        from repro.tune.store import config_from_knobs

        # validate() needs a real fabric only for its MTU; a 2-host one
        # is enough and keeps enumeration at 188 hosts instant.
        fabric = Fabric(Simulator(), Topology.back_to_back())
        out: List[Dict[str, object]] = []
        for knobs in self._grid():
            if not self._structurally_valid(knobs):
                continue
            knobs = dict(knobs, transport=self.scenario.transport)
            try:
                config_from_knobs(knobs).validate(fabric)
            except ValueError:
                continue
            out.append(knobs)
        return out

    def baseline_knobs(self) -> Dict[str, object]:
        """The knob dict equivalent to a stock :class:`CollectiveConfig`
        (the untuned reference every search must measure and may never
        lose to)."""
        default = CollectiveConfig()
        return {
            "chunk_size": min(default.chunk_size, self.scenario.bucket),
            "n_subgroups": default.n_subgroups,
            "n_chains": default.n_chains,
            "batch_size": default.batch_size,
            "staging_slots": default.staging_slots,
            "transport": self.scenario.transport,
        }
