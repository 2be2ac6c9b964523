"""Catalog sharding end to end: spec wiring, the S=1 bit-identity
contract, shard-scoped scoring against the real model, scatter-gather
semantics under failure, chaos shard crashes with partial coverage, and
the planner's shard dimension."""

import numpy as np
import pytest

from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.infra_test import run_infra_test
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.hardware import CPU_E2
from repro.models import ModelConfig, create_model
from repro.serving import EtudeInferenceServer
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.sharding import (
    ScatterGatherAggregator,
    ShardingConfig,
    ShardScorer,
    build_shard_scorers,
    merge_topk,
)
from repro.simulation import Simulator
from tests.fingerprints import run_fingerprint
from tests.replay import click_prefixes, make_profile, replay


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=100_000, target_rps=30,
        hardware=HardwareSpec("CPU", 1), duration_s=15.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestConfigAndSpecWiring:
    def test_parse_grammar(self):
        assert ShardingConfig.parse("4") == ShardingConfig(shards=4)
        assert ShardingConfig.parse("shards=8") == ShardingConfig(shards=8)
        parsed = ShardingConfig.parse("4,partial=off")
        assert parsed.shards == 4 and not parsed.allow_partial

    def test_spec_string_round_trips(self):
        for text in ("1", "4", "4,partial=off"):
            config = ShardingConfig.parse(text)
            assert ShardingConfig.parse(config.spec_string()) == config

    def test_spec_coerces_string_and_int(self):
        assert spec(sharding="4").sharding == ShardingConfig(shards=4)
        assert spec(sharding=4).sharding == ShardingConfig(shards=4)

    def test_specfile_round_trip(self):
        s = spec(sharding="4,partial=off")
        document = spec_to_dict(s)
        assert document["shards"] == "4,partial=off"
        restored, _slo = spec_from_dict(document)
        assert restored.sharding == s.sharding

    def test_specfile_omits_unset_sharding(self):
        assert "shards" not in spec_to_dict(spec())

    def test_enabled_only_above_one(self):
        assert not ShardingConfig(shards=1).enabled
        assert ShardingConfig(shards=2).enabled


class TestDisabledShardingDeterminism:
    """S=1 (or unconfigured) sharding must be bit-identical to the
    baseline — latencies and per-second series — on both the CPU and the
    GPU path (same contract as admission/fallback/cache)."""

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_single_shard_is_bit_identical(self, instance):
        base = spec(hardware=HardwareSpec(instance, 1))
        baseline = ExperimentRunner(seed=33).run(base)
        single = ExperimentRunner(seed=33).run(
            spec(hardware=HardwareSpec(instance, 1), sharding=1)
        )
        assert run_fingerprint(single) == run_fingerprint(baseline)
        assert single.sharding is None  # S=1 reports nothing


class TestShardScorer:
    CATALOG = 2_000
    MODEL = create_model("stamp", ModelConfig.for_catalog(CATALOG, top_k=5))

    def test_shards_union_covers_catalog_exactly(self):
        session = [3, 14, 159]
        scorers = build_shard_scorers(self.MODEL, 4)
        seen = np.concatenate(
            [s.recommend_with_scores(session)[0] for s in scorers]
        )
        assert len(np.unique(seen)) == len(seen)  # disjoint slices

    def test_merged_equals_full_model(self):
        session = [3, 14, 159]
        parts = [
            scorer.recommend_with_scores(session)
            for scorer in build_shard_scorers(self.MODEL, 4)
        ]
        merged, _ = merge_topk(parts, self.MODEL.top_k)
        np.testing.assert_array_equal(merged, self.MODEL.recommend(session))

    def test_fused_head_models_are_rejected(self):
        vmis = create_model("vmisknn", ModelConfig.for_catalog(500, top_k=5))
        with pytest.raises(ValueError, match="fuses its scoring head"):
            ShardScorer(vmis, 0, 4)

    def test_scatter_gather_replay_equals_the_unsharded_server(self):
        """200 session prefixes replayed through S=4 shard-scoped servers
        and through one unsharded server: the same answer every time."""
        prefixes = click_prefixes(self.CATALOG, 200, seed=29, alpha_clicks=1.35)
        sim = Simulator()
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(), np.random.default_rng(29),
            model=self.MODEL,
        )
        unsharded = replay(sim, server.submit, prefixes)

        sim = Simulator()
        shards = [
            EtudeInferenceServer(
                sim, CPU_E2.device, make_profile(),
                np.random.default_rng(29 + index), model=scorer,
                name=f"shard{index}",
            )
            for index, scorer in enumerate(build_shard_scorers(self.MODEL, 4))
        ]
        aggregator = ScatterGatherAggregator(
            simulator=sim,
            config=ShardingConfig(shards=4),
            shard_submits=[shard.submit for shard in shards],
            network_delay=lambda: 0.0005,
            top_k=self.MODEL.top_k,
        )
        sharded = replay(sim, aggregator.scatter, prefixes)

        assert len(sharded) == len(unsharded) == 200
        assert all(r.status == HTTP_OK for r in sharded.values())
        for request_id, response in sharded.items():
            np.testing.assert_array_equal(
                response.items, unsharded[request_id].items
            )
        assert aggregator.mean_coverage() == 1.0


def _leg(request, items=None, scores=None, status=HTTP_OK, degraded=False):
    return RecommendationResponse(
        request_id=request.request_id, status=status, completed_at=0.0,
        latency_s=0.0, items=items, scores=scores, degraded=degraded,
    )


class TestAggregatorSemantics:
    """Unit-level scatter-gather: merge, partial coverage, total failure."""

    def run_fanout(self, shard_behaviours, allow_partial=True):
        sim = Simulator()
        config = ShardingConfig(
            shards=len(shard_behaviours), allow_partial=allow_partial
        )

        def make_submit(behaviour):
            def submit(request, respond):
                sim.call_in(0.001, lambda: respond(behaviour(request)))

            return submit

        aggregator = ScatterGatherAggregator(
            simulator=sim,
            config=config,
            shard_submits=[make_submit(b) for b in shard_behaviours],
            network_delay=lambda: 0.0005,
            top_k=3,
        )
        request = RecommendationRequest(
            request_id=1, session_id=1,
            session_items=np.asarray([1, 2], dtype=np.int64), sent_at=0.0,
        )
        responses = []
        aggregator.scatter(request, responses.append)
        sim.run()
        assert len(responses) == 1
        return aggregator, responses[0]

    def test_all_shards_ok_merges_exact_topk(self):
        def shard(lo):
            def behaviour(request):
                ids = np.arange(lo, lo + 4, dtype=np.int64)
                return _leg(request, ids, -ids.astype(np.float64))

            return behaviour

        aggregator, response = self.run_fanout([shard(0), shard(4)])
        assert response.status == HTTP_OK and not response.degraded
        assert response.coverage == 1.0
        np.testing.assert_array_equal(response.items, [0, 1, 2])
        assert aggregator.stats()["partial_responses"] == 0

    def test_failed_shard_yields_partial_200(self):
        def ok(request):
            ids = np.arange(3, dtype=np.int64)
            return _leg(request, ids, np.ones(3))

        def dead(request):
            return _leg(request, status=HTTP_SERVICE_UNAVAILABLE)

        aggregator, response = self.run_fanout([ok, dead])
        assert response.status == HTTP_OK
        assert response.degraded and response.coverage == 0.5
        assert aggregator.stats()["partial_responses"] == 1
        assert aggregator.stats()["min_coverage"] == 0.5

    def test_partial_off_turns_coverage_loss_into_503(self):
        def ok(request):
            ids = np.arange(3, dtype=np.int64)
            return _leg(request, ids, np.ones(3))

        def dead(request):
            return _leg(request, status=HTTP_SERVICE_UNAVAILABLE)

        aggregator, response = self.run_fanout([ok, dead], allow_partial=False)
        assert response.status == HTTP_SERVICE_UNAVAILABLE
        assert aggregator.stats()["failed_fanouts"] == 1

    def test_all_shards_dead_is_503(self):
        def dead(request):
            return _leg(request, status=HTTP_SERVICE_UNAVAILABLE)

        aggregator, response = self.run_fanout([dead, dead])
        assert response.status == HTTP_SERVICE_UNAVAILABLE
        assert response.coverage == 0.0

    def test_degraded_legs_count_as_survivors_not_coverage(self):
        """A shard shedding to its fallback tier keeps the fan-out alive
        but contributes no catalog coverage (PR-3 composition)."""

        def fallback(request):
            ids = np.arange(3, dtype=np.int64)
            return _leg(request, ids, degraded=True)

        aggregator, response = self.run_fanout([fallback, fallback])
        assert response.status == HTTP_OK and response.degraded
        assert response.coverage == 0.0
        assert response.items is not None


class TestShardedRuns:
    """Full simulated deployments with S > 1."""

    def test_sharded_run_reports_section(self):
        result = ExperimentRunner(seed=7).run(spec(sharding=4))
        assert result.error_requests == 0
        section = result.sharding
        assert section is not None
        assert section["shards"] == 4
        assert section["fanouts"] == result.ok_requests
        assert section["mean_coverage"] == 1.0
        assert section["replicas_per_shard"] == 1

    def test_shard_crash_degrades_coverage_not_availability(self):
        result = ExperimentRunner(seed=7).run(
            spec(
                duration_s=20.0, sharding=4,
                chaos="crash@4:restart=60:shard=1",
            )
        )
        section = result.sharding
        assert result.error_requests == 0  # no 5xx flood
        assert section["partial_responses"] > 0
        assert 0.7 < section["mean_coverage"] < 1.0
        assert section["min_coverage"] == pytest.approx(0.75, abs=0.01)

    def test_unshardable_model_cannot_deploy(self):
        from repro.cluster.kubernetes import DeploymentError

        with pytest.raises(DeploymentError, match="shard"):
            ExperimentRunner(seed=7).run(spec(model="vmisknn", sharding=4))

    def test_infra_test_sharded_matches_contract(self):
        result = run_infra_test(
            "actix", target_rps=150, duration_s=15.0, seed=5,
            sharding=ShardingConfig(shards=4),
        )
        assert result.errors == 0
        assert result.sharding is not None
        assert result.sharding["fanouts"] == result.total
        assert len(result.sharding["per_shard_completed"]) == 4
        # Every shard served every fan-out.
        assert set(result.sharding["per_shard_completed"]) == {result.total}

    def test_infra_test_rejects_torchserve_sharding(self):
        with pytest.raises(ValueError, match="Actix"):
            run_infra_test(
                "torchserve", duration_s=5.0,
                sharding=ShardingConfig(shards=2),
            )


class TestPlannerShardDimension:
    def test_sharded_estimate_never_exceeds_unsharded(self):
        from repro.core import DeploymentPlanner
        from repro.core.spec import Scenario
        from repro.hardware import GPU_T4

        planner = DeploymentPlanner(runner=ExperimentRunner(seed=11))
        scenario = Scenario("big", 10_000_000, 500)
        assert planner.estimate_replicas(
            "gru4rec", scenario, GPU_T4, shards=4
        ) <= planner.estimate_replicas("gru4rec", scenario, GPU_T4)

    def test_cheapest_tie_break_prefers_fewer_shards(self):
        from repro.core.planner import DeploymentOption, ScenarioPlan
        from repro.core.spec import Scenario

        plan = ScenarioPlan(Scenario("s", 1000, 10), "stamp")
        sharded = DeploymentOption("GPU-T4", 1, 100.0, None, shards=4)
        flat = DeploymentOption("GPU-T4", 4, 100.0, None)
        plan.options = [sharded, flat]
        assert plan.cheapest() is flat
