"""The persistent tuning-profile store.

Profiles are versioned JSON documents, one file per (topology,
transport, message-size bucket, fault profile) key, indexed by the
scenario's deterministic :meth:`~repro.tune.scenario.Scenario.cache_key`.
Serialization is **byte-stable**: keys are sorted, floats use Python's
shortest-roundtrip repr, and a trailing newline is fixed — loading a
profile and re-serializing it reproduces the committed bytes exactly,
which is what lets CI verify the committed 188-node profiles without
re-running any search.

The default store is the in-package ``tune/profiles/`` directory (the
committed profiles for the paper's 188-node fat-tree points live there);
point :class:`ProfileStore` at any other directory for scratch searches.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.communicator import CollectiveConfig
from repro.tune.scenario import Scenario

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "ProfileStore",
    "TuningProfile",
    "config_from_knobs",
]

#: bump on incompatible profile layout changes; loaders reject mismatches
PROFILE_SCHEMA_VERSION = 1

#: the in-repo directory holding committed profiles
DEFAULT_PROFILE_DIR = os.path.join(os.path.dirname(__file__), "profiles")


def config_from_knobs(knobs: Dict[str, object]) -> CollectiveConfig:
    """Materialize a :class:`CollectiveConfig` from a profile knob dict
    (every key is a ``CollectiveConfig`` field)."""
    return CollectiveConfig(**knobs)


def _jsonable(value):
    """Coerce numpy scalars etc. to canonical JSON-native types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    raise TypeError(f"non-serializable profile value {value!r}")


@dataclass
class TuningProfile:
    """One tuned operating point, as persisted in the store."""

    schema: int  #: :data:`PROFILE_SCHEMA_VERSION` at write time
    key: Dict[str, object]  #: the canonical scenario key (see Scenario.key)
    cache_key: str  #: sha256 digest of the key — the store index
    slug: str  #: human-readable file stem
    scenario: Dict[str, object]  #: non-key evaluation context (msg/seed)
    knobs: Dict[str, object]  #: the winning CollectiveConfig overrides
    baseline: Dict[str, object]  #: untuned default's measurement summary
    best: Dict[str, object]  #: winning candidate's measurement summary
    search: Dict[str, object] = field(default_factory=dict)  #: search stats

    # ------------------------------------------------------------ accessors

    @property
    def improvement(self) -> float:
        """baseline/best completion-time ratio (≥ 1 by construction:
        the untuned default is always in the evaluated set)."""
        best = float(self.best.get("duration", 0.0))
        base = float(self.baseline.get("duration", 0.0))
        return base / best if best > 0 else float("inf")

    def config(self) -> CollectiveConfig:
        return config_from_knobs(self.knobs)

    # -------------------------------------------------------- serialization

    def to_json(self) -> str:
        """Canonical byte-stable serialization (sorted keys, 2-space
        indent, trailing newline)."""
        doc = _jsonable(dataclasses.asdict(self))
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TuningProfile":
        doc = json.loads(text)
        schema = doc.get("schema")
        if schema != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"profile schema {schema!r} != {PROFILE_SCHEMA_VERSION} "
                "(regenerate with `python -m repro tune --force`)"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(f"unknown profile fields {sorted(unknown)}")
        return cls(**{name: doc[name] for name in fields})

    def validate(self) -> None:
        """Structural sanity beyond the schema version."""
        if not self.cache_key or not self.slug:
            raise ValueError("profile missing cache_key/slug")
        if not self.knobs:
            raise ValueError("profile has no knobs")
        for part in ("baseline", "best"):
            meas = getattr(self, part)
            if float(meas.get("duration", 0.0)) <= 0.0:
                raise ValueError(f"profile {part} has no positive duration")
            if not meas.get("verified", False):
                raise ValueError(f"profile {part} run did not verify payloads")
        if float(self.best["duration"]) > float(self.baseline["duration"]):
            raise ValueError("tuned profile is slower than the untuned default")
        self.config()  # knobs must materialize


class ProfileStore:
    """A directory of :class:`TuningProfile` JSON files."""

    def __init__(self, root: str = DEFAULT_PROFILE_DIR) -> None:
        self.root = root
        self._cache: Optional[Dict[str, TuningProfile]] = None

    @classmethod
    def default(cls) -> "ProfileStore":
        """The committed in-package store."""
        return cls(DEFAULT_PROFILE_DIR)

    # --------------------------------------------------------------- access

    def _load_all(self) -> Dict[str, TuningProfile]:
        if self._cache is None:
            self._cache = {}
            if os.path.isdir(self.root):
                for name in sorted(os.listdir(self.root)):
                    if not name.endswith(".json"):
                        continue
                    with open(os.path.join(self.root, name)) as fh:
                        profile = TuningProfile.from_json(fh.read())
                    self._cache[profile.cache_key] = profile
        return self._cache

    def profiles(self) -> List[TuningProfile]:
        """Every stored profile, ordered by slug (deterministic)."""
        return sorted(self._load_all().values(), key=lambda p: p.slug)

    def lookup(self, scenario: Scenario) -> Optional[TuningProfile]:
        """The profile for this scenario's cache key, or ``None``."""
        return self._load_all().get(scenario.cache_key())

    def get(self, ref: str) -> Optional[TuningProfile]:
        """Find a profile by cache-key or slug prefix (CLI ``--show``)."""
        for profile in self.profiles():
            if profile.cache_key.startswith(ref) or profile.slug.startswith(ref):
                return profile
        return None

    def path_for(self, profile: TuningProfile) -> str:
        return os.path.join(self.root, f"{profile.slug}.json")

    def put(self, profile: TuningProfile) -> str:
        """Persist (and index) a profile; returns its file path."""
        profile.validate()
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(profile)
        with open(path, "w") as fh:
            fh.write(profile.to_json())
        self._load_all()[profile.cache_key] = profile
        return path
