"""The deterministic traffic splitter: exact proportions, smooth
interleaving, canary arms, shadow mirroring, SLO deadline stamping."""

import numpy as np
import pytest

from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from repro.simulation import Simulator
from repro.tenancy import SHADOW_ID_BASE, TenancyConfig, TrafficSplitter
from tests.replay import make_request


class Backend:
    """Records routed requests and answers each one immediately."""

    def __init__(self, status=HTTP_OK):
        self.status = status
        self.requests = []

    def submit(self, request, respond):
        self.requests.append(request)
        respond(
            RecommendationResponse(
                request_id=request.request_id,
                status=self.status,
                completed_at=request.sent_at + 0.01,
                latency_s=0.01,
            )
        )

    def tenant_sequence(self):
        return [r.tenant for r in self.requests]


def drive(config_text, n, status=HTTP_OK):
    config = TenancyConfig.parse(config_text)
    backend = Backend(status=status)
    splitter = TrafficSplitter(config, backend.submit, Simulator())
    delivered = []
    for request_id in range(n):
        splitter.submit(make_request(request_id), delivered.append)
    return backend, splitter, delivered


class TestPrimarySplit:
    def test_single_tenant_takes_everything(self):
        backend, splitter, delivered = drive("solo=stamp:1", 50)
        assert backend.tenant_sequence() == ["solo"] * 50
        assert len(delivered) == 50
        assert splitter.tallies["solo"].requests == 50

    def test_three_to_one_split_is_exact(self):
        backend, splitter, _ = drive("a=stamp:3;b=stamp:1", 400)
        sequence = backend.tenant_sequence()
        assert sequence.count("a") == 300
        assert sequence.count("b") == 100

    def test_split_is_smooth_not_bursty(self):
        # Smooth WRR interleaves: with weights 3:1 the minority tenant
        # never waits more than one full cycle and never runs twice in
        # a row.
        backend, _, _ = drive("a=stamp:3;b=stamp:1", 400)
        sequence = backend.tenant_sequence()
        for first, second in zip(sequence, sequence[1:]):
            assert not (first == "b" and second == "b")
        b_positions = [i for i, name in enumerate(sequence) if name == "b"]
        gaps = np.diff(b_positions)
        assert gaps.max() <= 4

    def test_burst_scales_a_tenants_offered_share(self):
        backend, _, _ = drive("a=stamp:1,burst=3;b=stamp:1", 400)
        sequence = backend.tenant_sequence()
        assert sequence.count("a") == 300  # equal weights, 3x storm
        assert sequence.count("b") == 100

    def test_routing_is_deterministic(self):
        first, _, _ = drive("a=stamp:3;b=stamp:2;c=stamp:1", 300)
        second, _, _ = drive("a=stamp:3;b=stamp:2;c=stamp:1", 300)
        assert first.tenant_sequence() == second.tenant_sequence()


class TestDeadlineStamping:
    def test_slo_becomes_an_absolute_deadline(self):
        backend, _, _ = drive("a=stamp:1,slo=60", 3)
        assert all(r.deadline_s == r.sent_at + 0.06 for r in backend.requests)

    def test_no_slo_means_no_deadline(self):
        backend, _, _ = drive("a=stamp:1", 3)
        assert all(r.deadline_s is None for r in backend.requests)


class TestCanaryArm:
    def test_canary_fraction_is_exact(self):
        backend, splitter, _ = drive("a=stamp:1,canary=0.25", 100)
        arms = [r.arm for r in backend.requests]
        assert arms.count("canary") == 25
        assert splitter.tallies["a"].canary_requests == 25
        # The accumulator fires every 1/fraction-th request, interleaved.
        assert arms[:4] == ["stable", "stable", "stable", "canary"]

    def test_no_canary_without_fraction(self):
        backend, _, _ = drive("a=stamp:1", 20)
        assert all(r.arm == "stable" for r in backend.requests)


class TestShadowMirroring:
    def test_mirror_fraction_is_exact_and_never_client_visible(self):
        backend, splitter, delivered = drive(
            "a=stamp:1;m=stamp:0.5,shadow", 100
        )
        shadow = [r for r in backend.requests if r.tenant == "m"]
        assert len(shadow) == 50
        assert splitter.shadow_mirrored["m"] == 50
        # Every mirrored copy was scored (the backend answered it) but
        # no shadow answer ever reached the client callback.
        assert splitter.shadow_completed["m"] == 50
        assert len(delivered) == 100
        assert {r.request_id for r in delivered} == set(range(100))

    def test_mirror_ids_come_from_the_shadow_range(self):
        backend, _, _ = drive("a=stamp:1;m=stamp:0.5,shadow", 100)
        shadow_ids = [
            r.request_id for r in backend.requests if r.tenant == "m"
        ]
        assert shadow_ids == list(
            range(SHADOW_ID_BASE, SHADOW_ID_BASE + 50)
        )

    def test_shadow_slo_stamps_the_copy_only(self):
        backend, _, _ = drive("a=stamp:1;m=stamp:1,shadow,slo=80", 10)
        for request in backend.requests:
            if request.tenant == "m":
                assert request.deadline_s == request.sent_at + 0.08
            else:
                assert request.deadline_s is None

    def test_shadow_never_counts_as_primary_traffic(self):
        _, splitter, _ = drive("a=stamp:1;m=stamp:1,shadow", 40)
        assert splitter.tallies["a"].requests == 40
        assert "m" not in splitter.tallies


class TestSummary:
    def test_summary_shape_and_tallies(self):
        _, splitter, _ = drive(
            "a=stamp:3,slo=1000;b=stamp:1;m=stamp:0.25,shadow", 200
        )
        section = splitter.summary(duration_s=10.0)
        assert section["config"] == splitter.config.spec_string()
        row = section["tenants"]["a"]
        assert row["requests"] == 150
        assert row["ok"] == 150
        assert row["errors"] == 0
        assert row["entitlement"] == pytest.approx(0.75)
        assert row["rps"] == pytest.approx(15.0)
        assert row["slo_met"] is True  # 10ms latency vs 1000ms SLO
        assert section["tenants"]["b"]["slo_met"] is None  # no contract
        assert section["shadow"]["m"]["mirrored"] == 50
        assert section["shadow"]["m"]["completed"] == 50

    def test_errors_and_server_sheds_merge_into_rows(self):
        _, splitter, delivered = drive(
            "a=stamp:1", 30, status=HTTP_SERVICE_UNAVAILABLE
        )
        assert len(delivered) == 30
        section = splitter.summary(shed_by_tenant={"a": 7})
        row = section["tenants"]["a"]
        assert row["errors"] == 30
        assert row["ok"] == 0
        assert row["shed"] == 7
