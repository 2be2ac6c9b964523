"""Percentile estimation: exact (small runs) and log-histogram digest.

Long load tests record hundreds of thousands of latencies; keeping them all
is fine for one run but wasteful across a four-hundred-run study. The
:class:`LatencyDigest` buckets observations into log-spaced bins covering
10 microseconds to 1000 seconds, supporting constant-memory percentile
queries and merging across runs/replicas.

Resolution: a percentile query returns the *upper edge* of the matched bin
(clamped into the observed ``[min, max]`` envelope), so the answer sits at
most one bin width above the true order statistic. At the default 50 bins
per decade that is a factor of ``10 ** (1/50)``, i.e. ~4.7% relative error,
one-sided (never an underestimate).

Binning: the bin of a latency is defined by the log formula in
:func:`log_bin_index`, but recording never evaluates it. Each resolution
has a table of exact bin edges (:func:`bin_edges`), the smallest double
the formula puts in each bin, and a sample is placed with one binary
search over that table: the same bin as the formula for every double, at
a fraction of the cost of a ``log10`` per sample.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

MIN_LATENCY = 1e-5
MAX_LATENCY = 1e3


def num_bins(bins_per_decade: int) -> int:
    """Bins of a digest at ``bins_per_decade`` (both clamp bins included)."""
    return int(math.log10(MAX_LATENCY / MIN_LATENCY) * bins_per_decade) + 2


def log_bin_index(latency: float, bins_per_decade: int, bins: int) -> int:
    """The defining bin formula: log-spaced position above ``MIN_LATENCY``.

    Latencies are clamped into ``[MIN_LATENCY, MAX_LATENCY]``; index 0 is
    never produced, the last index holds everything at the upper clamp.
    """
    clamped = min(max(latency, MIN_LATENCY), MAX_LATENCY)
    position = math.log10(clamped / MIN_LATENCY) * bins_per_decade
    return min(int(position) + 1, bins - 1)


@lru_cache(maxsize=None)
def bin_edges(bins_per_decade: int) -> Tuple[float, ...]:
    """Exact lower edges of bins ``2 .. num_bins - 1``, built once per resolution.

    Edge ``k`` is the smallest double whose :func:`log_bin_index` is at
    least ``k``, found by stepping ulps from the nominal edge
    ``MIN_LATENCY * 10 ** ((k - 1) / bins_per_decade)`` (under 30 ulps
    off at 10, 50 and 100 bins per decade). Because the formula is
    monotone, ``1 + bisect_right(edges, latency)`` is then its index for
    every non-negative double.
    """
    bins = num_bins(bins_per_decade)
    found: List[float] = []
    for k in range(2, bins):
        x = min(MIN_LATENCY * 10 ** ((k - 1) / bins_per_decade), MAX_LATENCY)
        if log_bin_index(x, bins_per_decade, bins) >= k:
            below = math.nextafter(x, 0.0)
            while log_bin_index(below, bins_per_decade, bins) >= k:
                x, below = below, math.nextafter(below, 0.0)
        else:
            # Stops by MAX_LATENCY at the latest: the formula puts it in
            # the last bin (``num_bins`` evaluates the same expression).
            while log_bin_index(x, bins_per_decade, bins) < k:
                x = math.nextafter(x, math.inf)
        found.append(x)
    return tuple(found)


def exact_percentile(latencies: Sequence[float], q: float) -> float:
    """Exact percentile (q in [0, 100]) of a latency list."""
    if len(latencies) == 0:
        raise ValueError("no latencies recorded")
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


class LatencyDigest:
    """Log-spaced latency histogram with percentile queries and merging."""

    def __init__(self, bins_per_decade: int = 50):
        self.bins_per_decade = bins_per_decade
        self._num_bins = num_bins(bins_per_decade)
        self._edges = bin_edges(bins_per_decade)
        self._counts: List[int] = [0] * self._num_bins
        self._total = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- recording ------------------------------------------------------------

    def record(self, latency_s: float) -> None:
        if not 0.0 <= latency_s < math.inf:
            raise ValueError(
                f"latency must be finite and non-negative, got {latency_s!r}"
            )
        self._counts[bisect_right(self._edges, latency_s) + 1] += 1
        self._total += 1
        self._sum += latency_s
        if latency_s < self._min:
            self._min = latency_s
        if latency_s > self._max:
            self._max = latency_s

    def record_many(self, latencies: Iterable[float]) -> None:
        for latency in latencies:
            self.record(latency)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    @property
    def count(self) -> int:
        return self._total

    def mean(self) -> float:
        if self._total == 0:
            raise ValueError("empty digest")
        return self._sum / self._total

    def min(self) -> float:
        if self._total == 0:
            raise ValueError("empty digest")
        return self._min

    def max(self) -> float:
        if self._total == 0:
            raise ValueError("empty digest")
        return self._max

    def percentile(self, q: float) -> float:
        """Latency at percentile ``q``.

        Returns the upper edge of the matched histogram bin, clamped into
        the observed ``[min, max]`` envelope; ``q=0`` is the tracked exact
        minimum (symmetric to ``q=100`` clamping to the tracked maximum).
        """
        if self._total == 0:
            raise ValueError("empty digest")
        if not 0 <= q <= 100:
            raise ValueError("q must be within [0, 100]")
        if q == 0:
            return self._min
        target = q / 100.0 * self._total
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, max(target, 1), side="left"))
        # Upper bin edge back in seconds, clamped to the observed envelope.
        exponent = index / self.bins_per_decade
        edge = MIN_LATENCY * 10**exponent
        return min(max(edge, self._min), self._max)

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        if other.bins_per_decade != self.bins_per_decade:
            raise ValueError("cannot merge digests with different resolutions")
        merged = LatencyDigest(self.bins_per_decade)
        merged._counts = [a + b for a, b in zip(self._counts, other._counts)]
        merged._total = self._total + other._total
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    @classmethod
    def merge_all(cls, digests: Iterable["LatencyDigest"]) -> "LatencyDigest":
        """Fold default-resolution ``digests`` with :meth:`merge`.

        Counts, total, min and max merge exactly, so every percentile of
        the fold equals the percentile of one digest fed every sample. No
        digests give an empty digest.
        """
        merged = cls()
        for digest in digests:
            merged = merged.merge(digest)
        return merged
