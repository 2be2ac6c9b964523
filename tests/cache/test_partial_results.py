"""Partial / degraded results must never poison the cache tiers.

Two regressions guarded here (docs/availability.md):

1. Cross-shard poisoning via the shared remote tier: every shard of a
   deployment shares one ``RemoteCacheTier``, so without shard-scoped
   cache versions, shard A's slice result answers shard B's leg for the
   same session prefix — a spurious "full coverage" hit built from the
   wrong catalog slice.
2. Degraded payloads (fallback answers, scatter-gather merges with
   ``coverage < 1.0``) must never be written into either tier, or a
   TTL-lived entry keeps serving the degraded result long after the
   outage that caused it has cleared.
"""

import numpy as np
import pytest

from repro.cache.policy import MISSING
from repro.cache.tier import CacheConfig, RecommendationCache, RemoteCacheTier
from repro.hardware import CPU_E2
from repro.serving import ActixProfile, EtudeInferenceServer
from repro.serving.actix import cacheable_result, shard_scoped_version
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from repro.simulation import Simulator
from tests.replay import make_profile, make_request


class FakeShardScorer:
    """Stands in for ``repro.sharding.merge.ShardScorer``: same duck type
    (``shard_index`` / ``shards`` / ``recommend_with_scores``), but returns a
    fixed slice so the test can tell which shard actually answered."""

    def __init__(self, shard_index, shards):
        self.shard_index = shard_index
        self.shards = shards

    def recommend_with_scores(self, session_items):
        base = 100 * self.shard_index
        items = np.arange(base, base + 3, dtype=np.int64)
        scores = np.array([3.0, 2.0, 1.0])
        return items, scores

    def recommend(self, session_items):
        return self.recommend_with_scores(session_items)[0]


def make_shard_server(sim, shard_index, shards, remote, config, seed=0):
    return EtudeInferenceServer(
        sim,
        CPU_E2.device,
        make_profile(),
        np.random.default_rng(seed),
        profile=ActixProfile(cache=config),
        model=FakeShardScorer(shard_index, shards),
        name=f"shard{shard_index}",
        artifact_version="models/v1.pt",
        remote_cache=remote,
    )


class TestShardScopedVersions:
    def test_plain_model_keeps_the_artifact_version(self):
        assert shard_scoped_version("v1", object()) == "v1"
        assert shard_scoped_version("v1", None) == "v1"

    def test_shard_scorers_get_disjoint_versions(self):
        versions = {
            shard_scoped_version("v1", FakeShardScorer(index, 4))
            for index in range(4)
        }
        assert len(versions) == 4
        assert all(v.startswith("v1#shard") for v in versions)

    def test_remote_tier_never_crosses_shards(self):
        """The poisoning regression, at the cache layer: one shared remote
        tier, same session prefix, two shard-scoped caches — shard 1 must
        MISS on shard 0's fill."""
        config = CacheConfig(capacity=8, remote_capacity=64)
        remote = RemoteCacheTier(config)
        cache_a = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(0, 2)),
            remote=remote,
        )
        cache_b = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(1, 2)),
            remote=remote,
        )
        session = [1, 2, 3]
        cache_a.fill(cache_a.key_for(session), "slice-0", 0.0)
        assert cache_b.lookup_remote(cache_b.key_for(session), 0.0) is MISSING

    def test_shard_replicas_still_share_within_a_shard(self):
        """Scoping is per shard, not per pod: two replicas of the same
        shard must keep backfilling each other through the remote tier."""
        config = CacheConfig(capacity=8, remote_capacity=64)
        remote = RemoteCacheTier(config)
        replica_a = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(1, 2)),
            remote=remote,
        )
        replica_b = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(1, 2)),
            remote=remote,
        )
        session = [1, 2, 3]
        replica_a.fill(replica_a.key_for(session), "slice-1", 0.0)
        assert replica_b.lookup_remote(replica_b.key_for(session), 0.0) == "slice-1"

    def test_end_to_end_each_shard_serves_its_own_slice(self):
        """Same session through both shard servers sharing one remote
        tier: each must answer from its own catalog slice. Without
        shard-scoped versions, shard 1 hits shard 0's remote entry and
        returns items 0..2 instead of 100..102."""
        sim = Simulator()
        config = CacheConfig(capacity=8, remote_capacity=64, window=4)
        remote = RemoteCacheTier(config)
        server_a = make_shard_server(sim, 0, 2, remote, config)
        server_b = make_shard_server(sim, 1, 2, remote, config, seed=1)
        responses = {}

        def sender():
            server_a.submit(make_request(0, sim.now), lambda r: responses.__setitem__("a", r))
            yield 0.5
            server_b.submit(make_request(1, sim.now), lambda r: responses.__setitem__("b", r))

        sim.spawn(sender())
        sim.run()
        assert responses["a"].status == HTTP_OK
        assert responses["b"].status == HTTP_OK
        assert list(responses["a"].items) == [0, 1, 2]
        assert list(responses["b"].items) == [100, 101, 102]
        # And the second shard really executed (no spurious remote hit).
        assert not responses["b"].cache_hit


class TestDegradedResultsNeverFill:
    @pytest.mark.parametrize(
        "payload",
        [np.arange(3), (np.arange(3), np.ones(3)), None],
    )
    def test_raw_payloads_are_full_quality(self, payload):
        """Fresh model output (and the latency-only ``None``) always
        caches; only response-shaped payloads carry quality flags."""
        assert cacheable_result(payload)

    def test_full_quality_response_is_cacheable(self):
        response = RecommendationResponse(
            request_id=0, status=HTTP_OK, completed_at=0.0, latency_s=0.0,
            items=np.arange(3),
        )
        assert cacheable_result(response)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"degraded": True},
            {"coverage": 0.5},
            {"status": HTTP_SERVICE_UNAVAILABLE},
        ],
    )
    def test_degraded_responses_are_not(self, overrides):
        base = dict(
            request_id=0, status=HTTP_OK, completed_at=0.0, latency_s=0.0,
            items=np.arange(3), coverage=1.0,
        )
        response = RecommendationResponse(**{**base, **overrides})
        assert not cacheable_result(response)

    def test_server_refuses_to_fill_a_partial_result(self):
        """Drive the fill path directly with a partial-coverage response:
        the flight settles, followers are answered, but neither tier is
        written and the rejection is tallied."""
        sim = Simulator()
        config = CacheConfig(capacity=8, remote_capacity=64, window=4)
        remote = RemoteCacheTier(config)
        server = make_shard_server(sim, 0, 2, remote, config)
        request = make_request(7)
        key = server.cache.key_for(request.session_items)
        server.cache.begin_flight(key)
        server._flight_keys[request.request_id] = key
        partial = RecommendationResponse(
            request_id=7, status=HTTP_OK, completed_at=0.0, latency_s=0.0,
            items=np.arange(3), coverage=0.5,
        )
        server._resolve_flight_ok(request, partial)
        assert server.cache_fill_rejected == 1
        assert server.cache.fills == 0
        assert server.cache.lookup_local(key, 0.0) is MISSING
        assert server.cache.lookup_remote(key, 0.0) is MISSING
