"""Cross-tenant cache isolation: two tenants serving the *same* model
and the *same* session prefix must never share a cache entry — on the
local tier, on the shared remote tier, and across a rolling version
bump (which must invalidate exactly one tenant's keyspace)."""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cache import MISSING
from repro.cache.tier import RecommendationCache, RemoteCacheTier
from repro.tenancy import TenantConfig, TenantServing
from repro.tenancy.fleet import ARM_CANARY, ARM_STABLE
from tests.replay import make_profile


PREFIX = np.asarray([11, 12, 13], dtype=np.int64)


def serving(name, version="art-v0", canary=None):
    return TenantServing(
        config=TenantConfig(
            name=name,
            model="stamp",
            weight=1.0,
            canary_fraction=0.1 if canary else 0.0,
        ),
        service_profile=None,
        artifact_version=version,
        canary_version=canary,
    )


def make_cache(remote=None):
    config = CacheConfig(
        capacity=64, window=4, remote_capacity=256 if remote else 0
    )
    return RecommendationCache(config, version="art-v0", remote=remote)


class TestKeyspaceScoping:
    def test_same_artifact_same_prefix_distinct_keys(self):
        cache = make_cache()
        key_a = cache.key_for(PREFIX, version=serving("a").cache_version())
        key_b = cache.key_for(PREFIX, version=serving("b").cache_version())
        assert key_a != key_b
        # Same prefix, same tenant: stable key.
        assert key_a == cache.key_for(
            PREFIX, version=serving("a").cache_version()
        )

    def test_canary_arm_has_its_own_keyspace(self):
        tenant = serving("a", canary="art-v1")
        cache = make_cache()
        stable = cache.key_for(PREFIX, version=tenant.cache_version(ARM_STABLE))
        canary = cache.key_for(PREFIX, version=tenant.cache_version(ARM_CANARY))
        assert stable != canary

    def test_local_tier_never_crosses_tenants(self):
        cache = make_cache()
        key_a = cache.key_for(PREFIX, version=serving("a").cache_version())
        key_b = cache.key_for(PREFIX, version=serving("b").cache_version())
        cache.fill_local(key_a, "answer-for-a", now=0.0)
        assert cache.lookup_local(key_a, now=1.0) == "answer-for-a"
        assert cache.lookup_local(key_b, now=1.0) is MISSING

    def test_remote_tier_never_crosses_tenants(self):
        # The remote tier is one store shared by every pod — isolation
        # must hold there too, purely through the key.
        config = CacheConfig(capacity=64, window=4, remote_capacity=256)
        remote = RemoteCacheTier(config)
        cache = make_cache(remote=remote)
        key_a = cache.key_for(PREFIX, version=serving("a").cache_version())
        key_b = cache.key_for(PREFIX, version=serving("b").cache_version())
        cache.fill(key_a, "answer-for-a", now=0.0)  # local + remote
        assert cache.lookup_remote(key_a, now=1.0) == "answer-for-a"
        assert cache.lookup_remote(key_b, now=1.0) is MISSING


class TestRolloutInvalidation:
    def test_version_bump_invalidates_exactly_one_tenant(self):
        cache = make_cache()
        tenant_a = serving("a")
        tenant_b = serving("b")
        key_a = cache.key_for(PREFIX, version=tenant_a.cache_version())
        key_b = cache.key_for(PREFIX, version=tenant_b.cache_version())
        cache.fill_local(key_a, "a-old", now=0.0)
        cache.fill_local(key_b, "b-old", now=0.0)

        # The rollout bumps tenant a's artifact version on this pod.
        tenant_a.artifact_version = "art-v1"
        new_key_a = cache.key_for(PREFIX, version=tenant_a.cache_version())
        assert new_key_a != key_a
        # a's stale entry is unreachable under the new version...
        assert cache.lookup_local(new_key_a, now=1.0) is MISSING
        # ...while b's entry survives untouched.
        assert (
            cache.lookup_local(
                cache.key_for(PREFIX, version=tenant_b.cache_version()),
                now=1.0,
            )
            == "b-old"
        )

    def test_server_set_tenant_version_rescopes_cache_keys(self):
        from repro.hardware import CPU_E2
        from repro.serving import EtudeInferenceServer
        from repro.serving.profiles import ActixProfile
        from repro.serving.request import RecommendationRequest
        from repro.simulation import Simulator

        profile = make_profile()
        tenants = {"a": serving("a"), "b": serving("b")}
        for tenant in tenants.values():
            tenant.service_profile = profile
        server = EtudeInferenceServer(
            Simulator(), CPU_E2.device, profile,
            np.random.default_rng(0),
            profile=ActixProfile(cache=CacheConfig(capacity=64, window=4)),
            tenants=tenants,
        )
        request_a = RecommendationRequest(
            request_id=1, session_id=1, session_items=PREFIX,
            sent_at=0.0, tenant="a", arm="stable",
        )
        request_b = RecommendationRequest(
            request_id=2, session_id=2, session_items=PREFIX,
            sent_at=0.0, tenant="b", arm="stable",
        )
        before_a = server.cache.key_for(
            PREFIX, version=server._tenant_cache_version(request_a)
        )
        before_b = server.cache.key_for(
            PREFIX, version=server._tenant_cache_version(request_b)
        )
        server.set_tenant_version("a", "art-v1")
        after_a = server.cache.key_for(
            PREFIX, version=server._tenant_cache_version(request_a)
        )
        after_b = server.cache.key_for(
            PREFIX, version=server._tenant_cache_version(request_b)
        )
        assert after_a != before_a  # tenant a: fresh keyspace
        assert after_b == before_b  # tenant b: untouched

    def test_unknown_tenant_version_bump_is_an_error(self):
        from repro.hardware import CPU_E2
        from repro.serving import EtudeInferenceServer
        from repro.simulation import Simulator

        profile = make_profile()
        server = EtudeInferenceServer(
            Simulator(), CPU_E2.device, profile, np.random.default_rng(0)
        )
        with pytest.raises(KeyError):
            server.set_tenant_version("ghost", "art-v1")
