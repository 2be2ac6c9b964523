"""The collector's derived digests answer exactly like per-record digests.

``MetricsCollector`` records each OK latency once, into a cell per
(send second, degraded, cache hit), and merges cells when a digest is
read. The reference below is the straightforward collector that records
every latency into every digest it belongs to; on any stream of
responses the two must agree bit for bit.
"""

from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyDigest, MetricsCollector
from repro.serving.request import (
    HTTP_GATEWAY_TIMEOUT,
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)

QUANTILES = (0, 50, 90, 99, 100)
SPLITS = ("overall", "full_overall", "degraded_overall", "hit_overall", "miss_overall")


class ReferenceCollector:
    """One ``record`` into each digest a response belongs to."""

    def __init__(self):
        self.buckets: Dict[int, LatencyDigest] = {}
        self.overall = LatencyDigest()
        self.full_overall = LatencyDigest()
        self.degraded_overall = LatencyDigest()
        self.hit_overall = LatencyDigest()
        self.miss_overall = LatencyDigest()
        self.inference = LatencyDigest()

    def record(self, sent_at: float, response: RecommendationResponse) -> None:
        if not response.ok:
            return
        latency = response.latency_s
        self.buckets.setdefault(int(sent_at), LatencyDigest()).record(latency)
        self.overall.record(latency)
        quality = self.degraded_overall if response.degraded else self.full_overall
        quality.record(latency)
        cache = self.hit_overall if response.cache_hit else self.miss_overall
        cache.record(latency)
        if response.inference_s > 0:
            self.inference.record(response.inference_s)


def percentiles(digest: LatencyDigest) -> Optional[list]:
    if len(digest) == 0:
        return None
    return [digest.percentile(q) for q in QUANTILES]


latencies = st.one_of(
    st.floats(min_value=0.0, max_value=2e3, allow_nan=False),
    st.sampled_from([0.0, 1e-5, 0.0105, 0.05, 1e3]),
)

responses = st.tuples(
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),  # sent_at
    st.sampled_from(
        [HTTP_OK, HTTP_OK, HTTP_OK, HTTP_SERVICE_UNAVAILABLE, HTTP_GATEWAY_TIMEOUT]
    ),
    latencies,
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    st.booleans(),  # degraded
    st.booleans(),  # cache_hit
)


@settings(max_examples=150, deadline=None)
@given(st.lists(responses, min_size=1, max_size=120))
def test_derived_digests_match_per_record_digests(stream):
    collector, reference = MetricsCollector(), ReferenceCollector()
    for index, (sent_at, status, latency, inference, degraded, hit) in enumerate(stream):
        response = RecommendationResponse(
            request_id=index,
            status=status,
            completed_at=sent_at + latency,
            latency_s=latency,
            inference_s=inference,
            degraded=degraded,
            cache_hit=hit,
        )
        collector.note_sent(sent_at)
        collector.record(sent_at, response)
        reference.record(sent_at, response)

    for bucket in collector.buckets():
        expected = reference.buckets.get(bucket.second)
        if expected is None:
            assert bucket.p90_ms() is None
        else:
            assert bucket.p90_ms() == expected.percentile(90) * 1000.0
    assert {b.second for b in collector.buckets() if b.ok} == set(reference.buckets)
    for name in SPLITS:
        derived, expected = getattr(collector, name), getattr(reference, name)
        assert derived.count == expected.count, name
        assert percentiles(derived) == percentiles(expected), name
    assert collector.inference.count == reference.inference.count
    if reference.inference.count:
        assert collector.inference.mean() == reference.inference.mean()


def test_each_ok_response_is_recorded_once(monkeypatch):
    records = []
    original = LatencyDigest.record

    def counting(self, latency_s):
        records.append(latency_s)
        original(self, latency_s)

    monkeypatch.setattr(LatencyDigest, "record", counting)
    collector = MetricsCollector()
    flags = [(False, False), (True, False), (False, True)]
    for index, (degraded, hit) in enumerate(flags):
        collector.record(
            float(index),
            RecommendationResponse(
                request_id=index, status=HTTP_OK, completed_at=index + 0.01,
                latency_s=0.01, inference_s=0.0, degraded=degraded, cache_hit=hit,
            ),
        )
    assert len(records) == 3
    assert collector.overall.count == 3
    assert collector.degraded_overall.count == 1 and collector.hit_overall.count == 1
