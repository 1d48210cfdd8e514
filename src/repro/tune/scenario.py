"""The tuning key and its deterministic execution context.

A :class:`Scenario` names one deployment point: which collective, on
which topology, over which transport, at which message-size bucket,
under which fault profile.  Two scenarios with the same
:meth:`Scenario.cache_key` are interchangeable for tuning purposes —
the profile store indexes on exactly that digest.

The scenario also *builds* its execution context (fabric, payloads) from
a seed, so the evaluator's measurements are bit-reproducible and a
repeated search returns byte-identical profiles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.net.fabric import Fabric
from repro.net.faults import CrashSpec, GilbertElliott
from repro.net.link import FaultSpec
from repro.net.topology import Topology, TopologySpec, auto_spec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

__all__ = ["CRASH_PROFILES", "FAULT_PROFILES", "Scenario",
           "TUNABLE_COLLECTIVES", "size_bucket"]

#: collectives the tuner can key a profile on.  ``allreduce`` runs the
#: composed RS→AG submission; ``alltoall`` runs the rotation-scheduled
#: unicast exchange — both through ``Communicator.submit``.
TUNABLE_COLLECTIVES = ("broadcast", "allgather", "allreduce", "alltoall")

#: bump when the key layout changes — old cache entries then miss cleanly
KEY_SCHEMA_VERSION = 1

#: named fault profiles a scenario can be keyed on; each maps a
#: ``(src, dst)`` channel to a :class:`~repro.net.link.FaultSpec` (or
#: ``None`` for a clean fabric).  Extend by registering a new name here.
FAULT_PROFILES: Dict[str, Optional[Callable[[str, str], Optional[FaultSpec]]]] = {
    "clean": None,
    # Light fabric BER: one packet in a thousand, every channel.
    "bernoulli": lambda s, d: FaultSpec(drop_prob=1e-3),
    # Bursty Gilbert-Elliott loss (the chaos harness's default regime).
    "burst": lambda s, d: FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_good=0.002, drop_bad=0.15)),
}

#: named fail-stop crash profiles a scenario can additionally be keyed
#: on; each maps a scenario to the :class:`CrashSpec` list to arm on its
#: fabric.  The default ``"none"`` is key-invisible (see
#: :meth:`Scenario.key`), so every profile tuned before crash awareness
#: existed keeps its committed digest.
CRASH_PROFILES: Dict[str, Optional[Callable[["Scenario"], List[CrashSpec]]]] = {
    "none": None,
    # The highest rank fail-stops mid-collective (a host death a DEGRADE
    # policy completes around).
    "host_mid": lambda sc: [CrashSpec(at=200e-6, host=sc.n_hosts - 1)],
    # A spine hard-down mid-collective; the SM reroutes via the survivors.
    "spine_down": lambda sc: [CrashSpec(at=200e-6, switch="spine000")],
}


def size_bucket(nbytes: int) -> int:
    """Power-of-two message-size bucket (ceiling).

    Profiles are keyed per bucket, not per exact byte count, so nearby
    sizes share one tuned config — the granularity at which the paper's
    own evaluation varies its knobs (Figs 11/14/15 step in powers of two).
    """
    if nbytes < 1:
        raise ValueError("nbytes must be >= 1")
    return 1 << (nbytes - 1).bit_length()


@dataclass(frozen=True)
class Scenario:
    """One deployment point of the collective stack.

    ``collective``/``n_hosts``/``topo``/``link_gbit``/``transport``/
    ``fault_profile`` plus the bucket of ``msg_bytes`` form the cache
    key; ``seed`` only seeds the evaluation (profiles apply across
    seeds) and ``msg_bytes`` itself is the representative payload the
    evaluator runs.
    """

    collective: str = "allgather"  #: one of :data:`TUNABLE_COLLECTIVES`
    n_hosts: int = 16
    topo: str = "auto"  #: a make_fabric topology name ('auto' resolves)
    link_gbit: float = 56.0
    transport: str = "ud"
    #: per-rank payload (allgather: shard size; broadcast: buffer size)
    msg_bytes: int = 64 * 1024
    fault_profile: str = "clean"
    #: fail-stop crash schedule name (:data:`CRASH_PROFILES`); "none"
    #: stays out of the cache key for digest stability
    crash_profile: str = "none"
    #: :class:`~repro.net.topology.TopologySpec` build parameters for the
    #: zoo kinds (torus dims, dragonfly shape, multi-rail base).  Accepts
    #: a dict; stored as its canonical JSON string so the dataclass stays
    #: hashable.  Empty ("") is key-invisible — pre-zoo digests hold.
    topo_params: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.topo_params, dict):
            object.__setattr__(
                self, "topo_params",
                json.dumps(self.topo_params, sort_keys=True,
                           separators=(",", ":")))
        if self.topo_params:
            json.loads(self.topo_params)  # malformed params fail here
        if self.collective not in TUNABLE_COLLECTIVES:
            raise ValueError(f"unknown collective {self.collective!r}")
        if self.transport not in ("ud", "uc"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.fault_profile not in FAULT_PROFILES:
            raise ValueError(
                f"unknown fault profile {self.fault_profile!r} "
                f"(have {sorted(FAULT_PROFILES)})"
            )
        if self.crash_profile not in CRASH_PROFILES:
            raise ValueError(
                f"unknown crash profile {self.crash_profile!r} "
                f"(have {sorted(CRASH_PROFILES)})"
            )
        if self.n_hosts < 2:
            raise ValueError("need n_hosts >= 2")
        if self.msg_bytes < 1:
            raise ValueError("msg_bytes must be >= 1")

    # ------------------------------------------------------------------ key

    @property
    def bucket(self) -> int:
        return size_bucket(self.msg_bytes)

    @property
    def resolved_topo(self) -> str:
        """The concrete topology name: 'auto' resolves through
        :func:`~repro.net.topology.auto_spec`, as in ``make_fabric``."""
        return auto_spec(self.n_hosts).kind if self.topo == "auto" else self.topo

    def key(self) -> Dict[str, object]:
        """The canonical (JSON-safe, order-independent) tuning key.

        ``crash_profile`` joins the key **only** when set: the default
        "none" must hash exactly as scenarios did before crash awareness
        existed, keeping every committed profile digest stable.
        """
        key: Dict[str, object] = {
            "schema": KEY_SCHEMA_VERSION,
            "collective": self.collective,
            "topology": self.resolved_topo,
            "n_hosts": self.n_hosts,
            "link_gbit": self.link_gbit,
            "transport": self.transport,
            "bucket": self.bucket,
            "fault_profile": self.fault_profile,
        }
        if self.crash_profile != "none":
            key["crash_profile"] = self.crash_profile
        if self.topo_params:
            # Round-trip kind/params through the TopologySpec normalizer so
            # equivalent spellings ({"dims": [4, 4]} vs ((4, 4))) share one
            # digest — and malformed params fail at key time, not run time.
            key["topo_params"] = TopologySpec(
                self.resolved_topo, self.n_hosts, self._params()
            ).key()["params"]
        return key

    def cache_key(self) -> str:
        """Deterministic digest of :meth:`key` — the store's index."""
        blob = json.dumps(self.key(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def slug(self) -> str:
        """Human-readable profile filename stem (digest-suffixed)."""
        kib = self.bucket // 1024
        size = f"{kib}KiB" if kib else f"{self.bucket}B"
        crash = "" if self.crash_profile == "none" else f"-{self.crash_profile}"
        return (
            f"{self.collective}-{self.resolved_topo}-p{self.n_hosts}"
            f"-{self.transport}-{size}-{self.fault_profile}{crash}"
            f"-{self.cache_key()[:8]}"
        )

    # ------------------------------------------------------------ execution

    def _params(self) -> Dict[str, object]:
        return json.loads(self.topo_params) if self.topo_params else {}

    def _topology(self) -> Topology:
        return TopologySpec(self.resolved_topo, self.n_hosts,
                            self._params()).build()

    def build_fabric(self) -> Fabric:
        """A fresh seeded fabric for one evaluation, at the 4 KiB MTU."""
        fabric = Fabric(
            Simulator(),
            self._topology(),
            link_bandwidth=gbit_per_s(self.link_gbit),
            streams=RandomStreams(self.seed),
        )
        factory = FAULT_PROFILES[self.fault_profile]
        if factory is not None:
            fabric.set_fault_all(factory)
        for spec in self.crash_specs():
            fabric.schedule_crash(spec)
        return fabric

    def crash_specs(self) -> List[CrashSpec]:
        """The fail-stop schedule this scenario's crash profile arms."""
        factory = CRASH_PROFILES[self.crash_profile]
        return [] if factory is None else factory(self)

    def make_payload(self) -> List[np.ndarray]:
        """Seeded per-rank payloads.

        broadcast: one buffer (element 0); allgather: P uint8 shards;
        allreduce: P float32 contributions, element count rounded down to
        a multiple of P so the reduce-scatter shards evenly; alltoall:
        P per-rank buffers of P equal blocks, total rounded down to a
        multiple of P.  ``msg_bytes`` stays the *nominal* per-rank size —
        the bucket key is unaffected by the divisibility rounding.
        """
        rng = np.random.default_rng(self.seed)
        p = self.n_hosts
        if self.collective == "allreduce":
            elems = max(self.msg_bytes // 4 // p, 1) * p
            return [rng.normal(size=elems).astype(np.float32)
                    for _ in range(p)]
        if self.collective == "alltoall":
            nbytes = max(self.msg_bytes // p, 1) * p
            return [rng.integers(0, 256, nbytes, dtype=np.uint8)
                    for _ in range(p)]
        count = p if self.collective == "allgather" else 1
        return [rng.integers(0, 256, self.msg_bytes, dtype=np.uint8)
                for _ in range(count)]

    def with_bucket_payload(self) -> "Scenario":
        """The scenario normalized to its bucket's representative size."""
        if self.msg_bytes == self.bucket:
            return self
        return replace(self, msg_bytes=self.bucket)
