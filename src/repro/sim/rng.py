"""Seeded random-variate helpers.

All stochastic choices in the simulator and workload generators flow
through :class:`SimRng` so that a single integer seed reproduces an entire
experiment bit-for-bit.  Child generators are derived with
``numpy.random.SeedSequence.spawn`` so that adding a new consumer does not
perturb the draws of existing ones.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Sequence

import numpy as np


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalized Zipf weights over ranks ``1..n``.

    ``skew == 0`` degenerates to the uniform distribution; larger skews
    concentrate mass on low ranks.  This matches how the paper's synthetic
    generator models *key distribution skew* and *endorser distribution
    skew* (Table 2).
    """
    if n <= 0:
        raise ValueError(f"need at least one rank, got {n}")
    if skew < 0:
        raise ValueError(f"negative skew {skew!r}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-skew
    return weights / weights.sum()


class WeightedSampler:
    """Repeated weighted index draws from one generator, CDF precomputed.

    Draw-stream compatible with ``generator.choice(n, p=weights)``: numpy's
    weighted scalar ``choice`` consumes exactly one ``generator.random()``
    and resolves it with a right-biased ``searchsorted`` over the
    normalized cumulative weights.  This class builds that float64 CDF
    once, as a Python list, and ``bisect_right`` finds the same index (the
    first CDF value above the draw) with no numpy call per draw.  Weights
    must be finite and non-negative with a positive total, as for
    ``choice``.  Equivalence is pinned by ``tests/test_sim_rng.py`` and,
    end to end, by the golden-file tests.
    """

    __slots__ = ("_generator", "_cdf")

    def __init__(self, generator: np.random.Generator, weights: Sequence[float]) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        cdf = weights.cumsum()
        if cdf.size == 0:
            raise ValueError("need at least one weight")
        if (weights < 0).any() or not 0 < cdf[-1] < np.inf:
            raise ValueError(f"need finite weights >= 0 with a sum > 0, got {weights.tolist()}")
        cdf /= cdf[-1]
        self._generator = generator
        self._cdf: list[float] = cdf.tolist()

    def draw(self) -> int:
        """One weighted index in ``0..len(weights)-1``."""
        return bisect_right(self._cdf, self._generator.random())


class SimRng:
    """A seeded random source with named, stable substreams."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        Streams are keyed by name, not creation order, so consumers stay
        decoupled: drawing more from one stream never shifts another.
        """
        if name not in self._streams:
            # zlib.crc32 is stable across processes, unlike str.__hash__.
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(zlib.crc32(name.encode()),)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]
