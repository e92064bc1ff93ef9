"""Deterministic random number streams.

Every generator is derived from (seed, spawn key) through numpy's
SeedSequence, so any replica or block of replicas can be reproduced in
isolation and results do not depend on how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A named position in the seed tree: seed plus a tuple spawn key."""

    seed: int
    key: tuple[int, ...] = (0,)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.default_rng(ss)

    def child(self, index: int) -> "RngStream":
        """Stream for sub-task ``index``; children of distinct indices never overlap."""
        return RngStream(seed=self.seed, key=self.key + (index,))

    def substream(self, index: int) -> np.random.Generator:
        """A new generator for replica or block ``index``: ``child(index).generator()``."""
        return self.child(index).generator()


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng
