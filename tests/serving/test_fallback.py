"""The graceful-degradation tier: config parsing, the popularity model,
and shed-to-degraded conversion on the server."""

import numpy as np
import pytest

from repro.hardware import CPU_E2
from repro.serving import (
    ActixProfile,
    AdmissionPolicy,
    EtudeInferenceServer,
    FallbackConfig,
    PopularityFallback,
)
from repro.serving.request import HTTP_OK
from repro.simulation import Simulator
from tests.replay import make_profile, make_request

SESSION = (5, 9, 2)


class TestFallbackConfig:
    def test_defaults_and_round_trip(self):
        config = FallbackConfig.parse("")
        assert config == FallbackConfig()
        custom = FallbackConfig.parse("budget=0.001,topk=10")
        assert custom.budget_s == 0.001
        assert custom.top_k == 10
        assert FallbackConfig.parse(custom.spec_string()) == custom

    def test_validation(self):
        with pytest.raises(ValueError):
            FallbackConfig(budget_s=0.0)
        with pytest.raises(ValueError):
            FallbackConfig(top_k=0)
        with pytest.raises(ValueError):
            FallbackConfig.parse("latency=1")


class TestPopularityFallback:
    def test_returns_most_popular_items(self):
        tier = PopularityFallback.from_config(FallbackConfig(top_k=5))
        items = tier.recommend(np.array([7, 8], dtype=np.int64))
        # Power-law catalog: popularity decreases with item id, so the
        # precomputed top-k is simply the smallest ids.
        np.testing.assert_array_equal(items, np.array([1, 2, 3, 4, 5]))

    def test_deterministic_across_calls(self):
        tier = PopularityFallback.from_config(FallbackConfig())
        first = tier.recommend(np.array([1], dtype=np.int64))
        second = tier.recommend(np.array([99, 98], dtype=np.int64))
        np.testing.assert_array_equal(first, second)


class TestDegradedServing:
    def _server(self, sim, fallback=None):
        return EtudeInferenceServer(
            sim,
            CPU_E2.device,
            make_profile(fixed_bytes=45e6),  # ~10 ms per inference
            np.random.default_rng(0),
            profile=ActixProfile(
                admission=AdmissionPolicy(),
                fallback=fallback or FallbackConfig(),
            ),
        )

    def test_sheds_convert_to_fast_degraded_200s(self):
        sim = Simulator()
        budget = 0.002
        server = self._server(sim, FallbackConfig(budget_s=budget))
        responses = []

        def sender():
            for index in range(40):
                server.submit(
                    make_request(
                        index, sim.now, SESSION, deadline_s=sim.now + 0.05
                    ),
                    responses.append,
                )
            if False:
                yield  # pragma: no cover

        sim.spawn(sender())
        sim.run()
        assert len(responses) == 40
        # Fallback turns every shed into a 200: zero errors.
        assert all(r.status == HTTP_OK for r in responses)
        degraded = [r for r in responses if r.degraded]
        full = [r for r in responses if not r.degraded]
        assert degraded and full
        assert len(degraded) == server.degraded_served == server.shed_total
        # A dequeue-time shed happens when a worker next frees up, which can
        # be one service time (~10 ms) past the deadline; the tier then adds
        # only its fixed budget.
        slop = 0.03
        for response in degraded:
            assert response.inference_s == 0.0
            assert response.items is not None
            assert response.latency_s < 0.05 + budget + slop

    def test_degraded_responses_meet_the_deadline_with_slack(self):
        sim = Simulator()
        server = EtudeInferenceServer(
            sim,
            CPU_E2.device,
            make_profile(fixed_bytes=45e6),
            np.random.default_rng(0),
            profile=ActixProfile(
                # Shed 10 ms before the deadline, answer within 2 ms.
                admission=AdmissionPolicy(slack_s=0.010),
                fallback=FallbackConfig(budget_s=0.002),
            ),
        )
        responses = []

        def sender():
            for index in range(40):
                server.submit(
                    make_request(
                        index, sim.now, SESSION, deadline_s=sim.now + 0.05
                    ),
                    responses.append,
                )
            if False:
                yield  # pragma: no cover

        sim.spawn(sender())
        sim.run()
        degraded = [r for r in responses if r.degraded]
        assert degraded
        # All 40 were sent at t=0 with deadline t=0.05; slack (10 ms) leaves
        # room for the 2 ms fallback budget, so every degraded 200 lands
        # before the deadline.
        for response in degraded:
            assert response.completed_at <= 0.05 + 1e-9

    def test_no_fallback_sheds_stay_errors(self):
        sim = Simulator()
        server = EtudeInferenceServer(
            sim,
            CPU_E2.device,
            make_profile(fixed_bytes=45e6),
            np.random.default_rng(0),
            profile=ActixProfile(admission=AdmissionPolicy()),
        )
        responses = []

        def sender():
            for index in range(40):
                server.submit(
                    make_request(
                        index, sim.now, SESSION, deadline_s=sim.now + 0.05
                    ),
                    responses.append,
                )
            if False:
                yield  # pragma: no cover

        sim.spawn(sender())
        sim.run()
        assert any(r.status != HTTP_OK for r in responses)
        assert all(not r.degraded for r in responses)
        assert server.degraded_served == 0
