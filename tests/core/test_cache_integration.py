"""The recommendation cache end to end: spec wiring, the disabled-path
determinism contract, singleflight coalescing on the GPU batch path,
hit correctness against the real model, and the measurable win on a
high-skew workload."""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.hardware import CPU_E2, GPU_T4
from repro.models import ModelConfig, create_model
from repro.serving import BatchingConfig, EtudeInferenceServer
from repro.serving.profiles import ActixProfile
from repro.serving.request import HTTP_OK
from repro.simulation import Simulator
from repro.workload.statistics import WorkloadStatistics
from tests.fingerprints import run_fingerprint
from tests.replay import click_prefixes, make_profile, make_request, replay


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=20.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecWiring:
    def test_string_spec_coerces_to_config(self):
        s = spec(cache="lfu,capacity=512,window=4")
        assert isinstance(s.cache, CacheConfig)
        assert s.cache.policy == "lfu"
        assert s.cache.capacity == 512

    def test_specfile_round_trip(self):
        s = spec(cache="segmented,capacity=2048,ttl=30,remote=65536")
        document = spec_to_dict(s)
        assert isinstance(document["cache"], str)
        restored, _slo = spec_from_dict(document)
        assert restored.cache == s.cache

    def test_specfile_omits_unset_cache(self):
        assert "cache" not in spec_to_dict(spec())

    def test_plain_run_has_no_cache_section(self):
        result = ExperimentRunner(seed=22).run(spec(duration_s=10.0))
        assert result.cache is None


class TestDisabledCacheDeterminism:
    """A run with no cache and a run with a configured-but-zero-capacity
    cache must be bit-identical — latencies and recommendations — on both
    the CPU and the GPU path (same contract as admission/fallback)."""

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_zero_capacity_cache_is_bit_identical(self, instance):
        base = spec(hardware=HardwareSpec(instance, 1), duration_s=15.0)
        baseline = ExperimentRunner(seed=33).run(base)
        disabled = ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec(instance, 1), duration_s=15.0,
                cache=CacheConfig(capacity=0, remote_capacity=0),
            )
        )
        assert run_fingerprint(disabled) == run_fingerprint(baseline)
        assert disabled.cache is None  # disabled cache reports nothing


class TestSingleflightCoalescing:
    """A burst of concurrent same-prefix requests costs ONE inference:
    the leader computes, the followers park on the flight and are served
    from its answer — and a GPU batch holds unique keys only."""

    def make_server(self, sim, device, batching=None, **config_overrides):
        config = CacheConfig(**{"capacity": 64, "window": 4, **config_overrides})
        return EtudeInferenceServer(
            sim, device, make_profile(device), np.random.default_rng(0),
            profile=ActixProfile(cache=config),
            batching=batching
            or BatchingConfig(max_batch_size=1, max_delay_s=0.0),
        )

    def test_one_inference_per_unique_key_under_gpu_burst(self):
        sim = Simulator()
        server = self.make_server(
            sim, GPU_T4.device,
            batching=BatchingConfig(max_batch_size=64, max_delay_s=0.002),
        )
        prefixes = ([1, 2, 3], [4, 5, 6], [7, 8, 9])
        responses = []
        for index in range(12):  # 4 copies of each of the 3 prefixes
            request = make_request(index, items=prefixes[index % 3])
            server.submit(request, responses.append)
        sim.run()
        assert len(responses) == 12
        assert all(r.status == HTTP_OK for r in responses)
        # Exactly one leader per unique key reached the GPU.
        assert server.cache.misses == 3
        assert server.cache.coalesced == 9
        assert server.cache.fills == 3
        leaders = [r for r in responses if not r.cache_hit]
        followers = [r for r in responses if r.cache_hit]
        assert len(leaders) == 3 and len(followers) == 9
        # The three leaders shared one batch of unique keys.
        assert all(r.batch_size == 3 for r in leaders)
        # Followers never ran inference.
        assert all(r.inference_s == 0.0 for r in followers)

    def test_followers_get_the_leaders_answer(self):
        model = create_model("stamp", ModelConfig.for_catalog(500, top_k=5))
        sim = Simulator()
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(),
            np.random.default_rng(0), model=model,
            profile=ActixProfile(cache=CacheConfig(capacity=64, window=4)),
        )
        responses = []
        for index in range(5):
            server.submit(make_request(index), responses.append)
        sim.run()
        assert len(responses) == 5
        expected = model.recommend([1, 2, 3])
        for response in responses:
            np.testing.assert_array_equal(response.items, expected)


class TestHitCorrectness:
    """A hit returns exactly what the model would compute for that prefix
    at the current artifact version; a redeploy invalidates."""

    def make_server(self, sim, model, version="v1"):
        return EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(),
            np.random.default_rng(0), model=model,
            profile=ActixProfile(cache=CacheConfig(capacity=64, window=8)),
            artifact_version=version,
        )

    def test_hit_matches_model_output(self):
        model = create_model("stamp", ModelConfig.for_catalog(500, top_k=5))
        sim = Simulator()
        server = self.make_server(sim, model)
        responses = []

        def driver():
            server.submit(make_request(0, sim.now), responses.append)
            yield 1.0  # first answer computed and cached by now
            server.submit(make_request(1, sim.now), responses.append)

        sim.spawn(driver())
        sim.run()
        miss, hit = responses
        assert not miss.cache_hit and hit.cache_hit
        assert hit.inference_s == 0.0
        np.testing.assert_array_equal(hit.items, miss.items)
        np.testing.assert_array_equal(hit.items, model.recommend([1, 2, 3]))
        assert hit.latency_s < miss.latency_s

    def test_window_scopes_the_prefix(self):
        """Sessions differing only beyond the window share an entry."""
        model = create_model("stamp", ModelConfig.for_catalog(500, top_k=5))
        sim = Simulator()
        server = self.make_server(sim, model)
        server.cache.keyer.window = 2
        responses = []

        def driver():
            server.submit(make_request(0, sim.now, [9, 9, 1, 2]), responses.append)
            yield 1.0
            server.submit(make_request(1, sim.now, [7, 7, 1, 2]), responses.append)

        sim.spawn(driver())
        sim.run()
        assert responses[1].cache_hit  # same last-2 clicks -> same key

    def test_redeploy_invalidates_entries(self):
        model = create_model("stamp", ModelConfig.for_catalog(500, top_k=5))
        sim = Simulator()
        server = self.make_server(sim, model, version="models/v1.pt")
        responses = []

        def driver():
            server.submit(make_request(0, sim.now), responses.append)
            yield 1.0
            server.cache.set_version("models/v2.pt")  # redeploy
            server.submit(make_request(1, sim.now), responses.append)

        sim.spawn(driver())
        sim.run()
        assert not responses[1].cache_hit  # stale entry no longer reachable
        assert server.cache.misses == 2


class TestReplayAgainstCacheOff:
    """400 session prefixes replayed cache-off and cache-on against the
    real model: every answer (hit, miss or follower) equals recomputing
    it, and hits beat the cache-off latency of the same requests."""

    CATALOG = 2_000
    # window=80 covers max_session_length: every key is the model's whole
    # input, so a hit is lossless (docs/caching.md, "Choosing the window").
    CACHE = CacheConfig(capacity=1024, window=80, ttl_s=0.0)

    def replay(self, cache):
        sim = Simulator()
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(), np.random.default_rng(29),
            model=create_model(
                "stamp", ModelConfig.for_catalog(self.CATALOG, top_k=5)
            ),
            profile=ActixProfile(cache=cache) if cache is not None else None,
        )
        prefixes = click_prefixes(self.CATALOG, 400, seed=29)
        return server, replay(sim, server.submit, prefixes)

    @pytest.fixture(scope="class")
    def runs(self):
        _, cache_off = self.replay(None)
        server, cache_on = self.replay(self.CACHE)
        return server, cache_off, cache_on

    def test_answers_equal_the_cache_off_run(self, runs):
        _, cache_off, cache_on = runs
        assert len(cache_off) == len(cache_on) == 400
        assert all(r.status == HTTP_OK for r in cache_on.values())
        for request_id, response in cache_on.items():
            np.testing.assert_array_equal(
                response.items, cache_off[request_id].items
            )

    def test_hits_are_faster_than_recomputing(self, runs):
        server, cache_off, cache_on = runs
        assert server.cache.hit_rate() > 0.0
        hits = [rid for rid, response in cache_on.items() if response.cache_hit]
        assert hits
        assert np.mean([cache_on[rid].latency_s for rid in hits]) < np.mean(
            [cache_off[rid].latency_s for rid in hits]
        )


class TestMeasurableWin:
    """On a high-skew click distribution, cache-on beats cache-off."""

    SKEWED = WorkloadStatistics(
        catalog_size=5_000, alpha_length=1.85, alpha_clicks=1.85
    )

    def _run(self, cache):
        return ExperimentRunner(seed=17).run(
            spec(
                catalog_size=5_000, target_rps=120, duration_s=25.0,
                workload=self.SKEWED, cache=cache,
            )
        )

    @pytest.fixture(scope="class")
    def cache_off(self):
        return self._run(None)

    @pytest.fixture(scope="class")
    def cache_on(self):
        return self._run(CacheConfig(capacity=4096, window=2, ttl_s=0.0))

    def test_cache_reports_real_hits(self, cache_on):
        section = cache_on.cache
        assert section is not None
        assert section["hit_rate"] > 0.2
        assert section["fills"] == section["misses"]

    def test_hits_are_faster_than_misses(self, cache_on):
        assert cache_on.cache["p90_hit_ms"] < cache_on.cache["p90_miss_ms"]

    def test_p90_improves(self, cache_off, cache_on):
        assert cache_on.p90_ms <= cache_off.p90_ms
        assert cache_on.error_requests == 0


class TestPlannerCacheSeed:
    def test_expected_hit_rate_positive_with_cache(self):
        from repro.core import SLO, DeploymentPlanner
        from repro.core.spec import Scenario

        scenario = Scenario("g", 10_000, 200)
        cached = DeploymentPlanner(
            runner=ExperimentRunner(seed=11),
            cache=CacheConfig(capacity=16384, window=2),
        )
        plain = DeploymentPlanner(runner=ExperimentRunner(seed=11))
        assert plain.expected_hit_rate(scenario) == 0.0
        rate = cached.expected_hit_rate(scenario)
        assert 0.0 < rate < 1.0
        # The cache can only shrink the analytic replica seed.
        assert cached.estimate_replicas(
            "stamp", scenario, CPU_E2
        ) <= plain.estimate_replicas("stamp", scenario, CPU_E2)
