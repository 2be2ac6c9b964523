"""Percentile digests, the collector, and result containers."""

import numpy as np
import pytest

from repro.metrics import (
    LatencyDigest,
    LatencySeries,
    MetricsCollector,
    RunResult,
    exact_percentile,
)
from repro.serving.request import HTTP_OK, HTTP_SERVICE_UNAVAILABLE, RecommendationResponse


class TestExactPercentile:
    def test_matches_numpy(self):
        values = list(np.random.default_rng(0).random(1000))
        assert exact_percentile(values, 90) == pytest.approx(
            float(np.percentile(values, 90))
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_percentile([], 50)


class TestLatencyDigest:
    def test_percentiles_within_bin_resolution(self):
        digest = LatencyDigest()
        rng = np.random.default_rng(1)
        samples = rng.lognormal(mean=np.log(0.010), sigma=0.5, size=50_000)
        for sample in samples:
            digest.record(sample)
        for q in (50, 90, 99):
            exact = float(np.percentile(samples, q))
            estimate = digest.percentile(q)
            assert estimate == pytest.approx(exact, rel=0.06), q

    def test_mean_and_max_exact(self):
        digest = LatencyDigest()
        digest.record_many([0.001, 0.002, 0.003])
        assert digest.mean() == pytest.approx(0.002)
        assert digest.max() == pytest.approx(0.003)
        assert digest.count == 3

    def test_merge(self):
        a, b = LatencyDigest(), LatencyDigest()
        a.record_many([0.001] * 50)
        b.record_many([0.1] * 50)
        merged = a.merge(b)
        assert merged.count == 100
        assert merged.percentile(25) == pytest.approx(0.001, rel=0.05)
        assert merged.percentile(75) == pytest.approx(0.1, rel=0.05)

    def test_merge_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatencyDigest(50).merge(LatencyDigest(10))

    def test_empty_digest_queries_raise(self):
        with pytest.raises(ValueError):
            LatencyDigest().percentile(50)
        with pytest.raises(ValueError):
            LatencyDigest().mean()
        # Regression: max() used to answer 0.0 while min() raised.
        with pytest.raises(ValueError, match="empty digest"):
            LatencyDigest().max()

    def test_out_of_range_clamped(self):
        digest = LatencyDigest()
        digest.record(1e-9)
        digest.record(1e6)
        assert digest.count == 2


def ok_response(request_id, sent_at, latency, batch=1):
    return RecommendationResponse(
        request_id=request_id,
        status=HTTP_OK,
        completed_at=sent_at + latency,
        latency_s=latency,
        inference_s=latency / 2,
        batch_size=batch,
    )


class TestCollector:
    def test_buckets_by_send_second(self):
        collector = MetricsCollector()
        collector.note_sent(0.5)
        collector.record(0.5, ok_response(0, 0.5, 0.010))
        collector.note_sent(2.2)
        collector.record(2.2, ok_response(1, 2.2, 0.020))
        buckets = collector.buckets()
        assert [b.second for b in buckets] == [0, 2]
        assert buckets[0].ok == 1 and buckets[1].ok == 1

    def test_error_accounting(self):
        collector = MetricsCollector()
        collector.note_sent(1.0)
        collector.record(
            1.0,
            RecommendationResponse(
                request_id=0, status=HTTP_SERVICE_UNAVAILABLE,
                completed_at=1.1, latency_s=0.1,
            ),
        )
        assert collector.errors == 1
        assert collector.buckets()[0].error_rate == 1.0

    def test_achieved_throughput(self):
        collector = MetricsCollector()
        for index in range(100):
            sent = index * 0.01
            collector.note_sent(sent)
            collector.record(sent, ok_response(index, sent, 0.005))
        assert collector.achieved_throughput() == pytest.approx(100.0, rel=0.05)


class TestLatencySeries:
    def _collector(self):
        collector = MetricsCollector()
        for second in range(10):
            for index in range(second + 1):  # growing offered load
                sent = second + index / (second + 1)
                collector.note_sent(sent)
                collector.record(sent, ok_response(0, sent, 0.010 + second * 0.001))
        return collector

    def test_from_collector(self):
        series = LatencySeries.from_collector(self._collector())
        assert series.offered_rps == list(range(1, 11))
        assert all(p90 is not None for p90 in series.p90_ms)

    def test_p90_at_load(self):
        series = LatencySeries.from_collector(self._collector())
        value = series.p90_at_load(10)
        assert value is not None and value > 15.0  # ~19ms at the last second

    def test_p90_at_unreached_load_is_none(self):
        series = LatencySeries.from_collector(self._collector())
        assert series.p90_at_load(500) is None


class TestRunResult:
    def _result(self, p90_at_target=30.0, errors=0):
        return RunResult(
            model="stamp", instance_type="CPU", replicas=1, catalog_size=1000,
            target_rps=100, duration_s=60.0, execution_mode="jit",
            total_requests=1000, ok_requests=1000 - errors, error_requests=errors,
            achieved_rps=95.0, p50_ms=10.0, p90_ms=25.0, p99_ms=60.0,
            p90_at_target_ms=p90_at_target,
        )

    def test_meets_slo(self):
        assert self._result(30.0).meets_slo(50.0)
        assert not self._result(55.0).meets_slo(50.0)
        assert not self._result(None).meets_slo(50.0)
        assert not self._result(30.0, errors=100).meets_slo(50.0)

    def test_json_roundtrip(self):
        original = self._result()
        restored = RunResult.from_json(original.to_json())
        assert restored.model == "stamp"
        assert restored.p90_at_target_ms == pytest.approx(30.0)
        assert restored.error_rate == 0.0
