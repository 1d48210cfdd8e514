"""Deterministic, named random streams.

Every stochastic component of the simulation (per-link fault injection,
adaptive-routing reordering, workload generators, ...) pulls randomness from
its *own* named stream so that adding a new random consumer never perturbs
the draws seen by existing components.  Streams are derived from a single
root seed with :class:`numpy.random.SeedSequence` spawning keyed by the
stream name, so ``RandomStreams(seed=7).stream("link:0->1")`` yields the
same sequence in every run and on every platform.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of reproducible per-component :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Root seed.  Two ``RandomStreams`` with the same seed produce
        identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            # Key the child seed on a stable hash of the name; zlib.crc32 is
            # deterministic across processes (unlike built-in hash()).
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    @property
    def count(self) -> int:
        """Streams created so far (a clean fabric creates none)."""
        return len(self._streams)

    def fork(self, salt: int) -> "RandomStreams":
        """A new independent family of streams (e.g., per benchmark repeat)."""
        return RandomStreams(seed=(self.seed * 0x9E3779B1 + salt) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={self.count})"
