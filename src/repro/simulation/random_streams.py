"""Named, independently seeded RNG streams for simulation actors.

Each actor (load generator, every server replica, the workload generator)
pulls its own stream, so adding an actor or reordering events never
perturbs another actor's randomness — the property that keeps experiment
results stable across refactorings.

A stream that only ever draws lognormals can be wrapped in a
:class:`LognormalSource`, which draws its standard normals in blocks and
returns exactly the values scalar ``Generator.lognormal`` calls would.
Once wrapped, a stream must be drawn only through its wrapper: the block
already holds the stream's next draws.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np


class LognormalSource:
    """Scalar lognormal draws from one stream, drawn in blocks.

    ``lognormal(mean, sigma)`` returns the same double as
    ``rng.lognormal(mean, sigma)`` would at the same point of the stream:
    numpy computes ``exp(mean + sigma * z)`` from one standard normal
    ``z``, and ``standard_normal(n)`` yields the same ``z`` sequence as
    ``n`` scalar draws. Any ``sigma`` (including 0) consumes one draw.
    """

    __slots__ = ("rng", "_block")

    #: Standard normals drawn per refill.
    BLOCK_SIZE = 256

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        #: Pending standard normals, next draw last (``pop()`` order).
        self._block: List[float] = []

    def _refill(self) -> List[float]:
        block = self.rng.standard_normal(self.BLOCK_SIZE).tolist()
        block.reverse()
        self._block = block
        return block

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        block = self._block or self._refill()
        return math.exp(mean + sigma * block.pop())


class RandomStreams:
    """A family of ``np.random.Generator`` streams derived from one seed."""

    def __init__(self, seed: int = 1234):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """The stream for ``name`` (created on first use, then stable)."""
        if name not in self._streams:
            # crc32 is stable across processes (unlike str.__hash__, which
            # is salted per interpreter run).
            child_seed = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def fork(self, salt: int) -> "RandomStreams":
        """A derived family (e.g. per experiment repetition)."""
        return RandomStreams(self._seed * 1_000_003 + salt)
