"""Collecting per-response measurements during a load test.

The collector buckets responses by the (virtual) second in which their
request was *sent*, which is what the paper's ramp-up plots need: the x-axis
of Figure 2 / Figure 4 is the offered load at send time, the y-axis the
latency distribution of requests sent in that window.

Units (see ``docs/observability.md`` for the repo-wide conventions):
every timestamp (``sent_at``, ``completed_at``) and every stored duration
(``latency_s``, ``inference_s``, the :class:`LatencyDigest` contents) is in
**virtual-time seconds** read from the simulator clock — never wall time.
Milliseconds appear only at the reporting edge: methods with an ``_ms``
suffix (``percentile_ms``, ``p90_ms``) multiply by 1000 on the way out.
Throughput numbers are responses per virtual second.

Recording: each OK latency is recorded once, into the digest *cell* of
its (send second, degraded, cache hit) combination. The per-second
digest and the run-wide splits (``overall``, ``full_overall``,
``degraded_overall``, ``hit_overall``, ``miss_overall``) are merges of
cells, built when read; a merge is exact for everything a percentile
depends on, so they answer exactly as digests fed every sample would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.percentile import LatencyDigest
from repro.serving.request import RecommendationResponse


@dataclass
class SecondBucket:
    """Aggregates for requests sent within one one-second tick."""

    second: int
    sent: int = 0
    ok: int = 0
    errors: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    #: OK latencies by ``(degraded, cache_hit)``; each response sits in one.
    cells: Dict[Tuple[bool, bool], LatencyDigest] = field(default_factory=dict)

    @property
    def digest(self) -> LatencyDigest:
        """Every OK latency sent in this second (a merge of the cells)."""
        return LatencyDigest.merge_all(self.cells.values())

    @property
    def error_rate(self) -> float:
        total = self.ok + self.errors
        return self.errors / total if total else 0.0

    def p90_ms(self) -> Optional[float]:
        digest = self.digest
        if len(digest) == 0:
            return None
        return digest.percentile(90) * 1000.0


class MetricsCollector:
    """Accumulates responses during one benchmark run."""

    def __init__(self):
        self._buckets: Dict[int, SecondBucket] = {}
        #: Inference durations in arrival order (its mean is reported).
        self.inference = LatencyDigest()
        self.ok = 0
        self.errors = 0
        #: Quality split of the OK responses: full-quality model answers vs
        #: degraded fallback answers (``response.degraded``). ``ok`` is the
        #: sum of both; without a fallback tier ``degraded`` stays 0 and
        #: ``full_overall`` mirrors ``overall``.
        self.degraded = 0
        #: Cache split of the OK responses (``response.cache_hit``):
        #: answers served from the result cache (tier hits + coalesced
        #: followers) vs answers that ran an inference. Without a cache
        #: ``cache_hits`` stays 0 and ``miss_overall`` mirrors ``overall``.
        self.cache_hits = 0
        self.first_sent_at: Optional[float] = None
        self.last_completed_at: float = 0.0
        self.last_ok_completed_at: float = 0.0

    def _bucket(self, second: int) -> SecondBucket:
        bucket = self._buckets.get(second)
        if bucket is None:
            bucket = self._buckets[second] = SecondBucket(second=second)
        return bucket

    def note_sent(self, sent_at: float) -> None:
        if self.first_sent_at is None:
            self.first_sent_at = sent_at
        self._bucket(int(sent_at)).sent += 1

    def record(self, sent_at: float, response: RecommendationResponse) -> None:
        bucket = self._bucket(int(sent_at))
        completed_at = response.completed_at
        if completed_at > self.last_completed_at:
            self.last_completed_at = completed_at
        if response.ok:
            bucket.ok += 1
            if completed_at > self.last_ok_completed_at:
                self.last_ok_completed_at = completed_at
            flags = (response.degraded, response.cache_hit)
            cell = bucket.cells.get(flags)
            if cell is None:
                cell = bucket.cells[flags] = LatencyDigest()
            cell.record(response.latency_s)
            bucket.batch_sizes.append(response.batch_size)
            self.ok += 1
            if response.degraded:
                self.degraded += 1
            if response.cache_hit:
                self.cache_hits += 1
            if response.inference_s > 0:
                self.inference.record(response.inference_s)
        else:
            bucket.errors += 1
            self.errors += 1

    # -- summaries -----------------------------------------------------------

    def _merged(self, keep: Callable[[bool, bool], bool]) -> LatencyDigest:
        """Merge of every cell whose ``(degraded, cache_hit)`` passes ``keep``."""
        return LatencyDigest.merge_all(
            cell
            for bucket in self._buckets.values()
            for (degraded, cache_hit), cell in bucket.cells.items()
            if keep(degraded, cache_hit)
        )

    @property
    def overall(self) -> LatencyDigest:
        """Every OK latency."""
        return self._merged(lambda degraded, cache_hit: True)

    @property
    def full_overall(self) -> LatencyDigest:
        """OK latencies of full-quality answers."""
        return self._merged(lambda degraded, cache_hit: not degraded)

    @property
    def degraded_overall(self) -> LatencyDigest:
        """OK latencies of degraded fallback answers."""
        return self._merged(lambda degraded, cache_hit: degraded)

    @property
    def hit_overall(self) -> LatencyDigest:
        """OK latencies of cache-answered requests."""
        return self._merged(lambda degraded, cache_hit: cache_hit)

    @property
    def miss_overall(self) -> LatencyDigest:
        """OK latencies of requests that ran an inference."""
        return self._merged(lambda degraded, cache_hit: not cache_hit)

    def buckets(self) -> List[SecondBucket]:
        return [self._buckets[key] for key in sorted(self._buckets)]

    @property
    def total(self) -> int:
        return self.ok + self.errors

    def percentile_ms(self, q: float) -> float:
        return self.overall.percentile(q) * 1000.0

    @property
    def degraded_fraction(self) -> float:
        """Share of OK responses answered by the degraded fallback tier."""
        return self.degraded / self.ok if self.ok else 0.0

    def percentile_full_ms(self, q: float) -> Optional[float]:
        """Latency percentile of full-quality 200s (None if there were none)."""
        if len(self.full_overall) == 0:
            return None
        return self.full_overall.percentile(q) * 1000.0

    def percentile_degraded_ms(self, q: float) -> Optional[float]:
        """Latency percentile of degraded 200s (None if there were none)."""
        if len(self.degraded_overall) == 0:
            return None
        return self.degraded_overall.percentile(q) * 1000.0

    @property
    def cache_hit_fraction(self) -> float:
        """Share of OK responses answered by the result cache."""
        return self.cache_hits / self.ok if self.ok else 0.0

    def percentile_hit_ms(self, q: float) -> Optional[float]:
        """Latency percentile of cache-served 200s (None if there were none)."""
        if len(self.hit_overall) == 0:
            return None
        return self.hit_overall.percentile(q) * 1000.0

    def percentile_miss_ms(self, q: float) -> Optional[float]:
        """Latency percentile of inference-served 200s (None if none)."""
        if len(self.miss_overall) == 0:
            return None
        return self.miss_overall.percentile(q) * 1000.0

    def achieved_throughput(self) -> float:
        """Successful responses per second over the *successful* window.

        The window ends at the last **ok** completion, not the last
        completion overall: a trailing burst of errors (e.g. timeouts
        firing after the last success) used to stretch the denominator and
        deflate the reported rate. Error-only runs report 0 — use
        :meth:`total_response_rate` for the rate including errors.
        """
        if self.first_sent_at is None or self.ok == 0:
            return 0.0
        window = max(self.last_ok_completed_at - self.first_sent_at, 1e-9)
        return self.ok / window

    def total_response_rate(self) -> float:
        """All responses (ok + errors) per second over the full window.

        Unlike :meth:`achieved_throughput` this stays meaningful on
        error-only runs, where it shows how fast the deployment was
        answering even though every answer was an error.
        """
        if self.first_sent_at is None or self.total == 0:
            return 0.0
        window = max(self.last_completed_at - self.first_sent_at, 1e-9)
        return self.total / window
