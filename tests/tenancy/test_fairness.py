"""Weighted-fair shedding: the admission math under synthetic overload
(unit + Hypothesis property) and a real 4x tenant storm end to end —
one tenant's storm must not starve another tenant's SLO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.infra_test import run_infra_test
from repro.hardware import CPU_E2
from repro.serving import AdmissionPolicy, EtudeInferenceServer, FallbackConfig
from repro.serving.request import RecommendationRequest
from repro.simulation import Simulator
from repro.tenancy import TenancyConfig, TenantConfig, TenantServing
from tests.replay import make_profile


def make_server(weights, fair_depth=32, shadows=()):
    profile = make_profile()
    tenants = {}
    for name, weight in weights.items():
        config = TenantConfig(
            name=name, model="stamp", weight=weight, shadow=name in shadows
        )
        tenants[name] = TenantServing(
            config=config, service_profile=profile, artifact_version="v0"
        )
    return EtudeInferenceServer(
        Simulator(), CPU_E2.device, profile, np.random.default_rng(0),
        tenants=tenants, tenant_fair_depth=fair_depth,
    )


def make_request(tenant, request_id=0):
    return RecommendationRequest(
        request_id=request_id, session_id=request_id,
        session_items=np.asarray([1, 2], dtype=np.int64),
        sent_at=0.0, tenant=tenant, arm="stable",
    )


def synthetic_overload(server, offered, rounds=400, drain_per_round=2):
    """Drive the admission math directly: every round each tenant
    attempts ``offered[name]`` arrivals against the shared queue and the
    (slower) drain pops FIFO — pure bookkeeping, no simulation clock."""
    admitted = {name: 0 for name in offered}
    shed = {name: 0 for name in offered}
    for _ in range(rounds):
        for name, count in offered.items():
            for _ in range(count):
                request = make_request(name)
                if server._fair_admit(request):
                    server._note_queued(request)
                    server._queue.append((request, None, 0.0))
                    admitted[name] += 1
                else:
                    shed[name] += 1
        for _ in range(drain_per_round):
            if server._queue:
                popped, _, _ = server._queue.popleft()
                server._note_dequeued(popped)
    return admitted, shed


class TestFairAdmitUnit:
    def test_everyone_queues_freely_below_the_depth(self):
        server = make_server({"a": 1.0, "b": 1.0}, fair_depth=32)
        for index in range(31):
            request = make_request("a", index)
            assert server._fair_admit(request)
            server._note_queued(request)
            server._queue.append((request, None, 0.0))

    def test_storming_tenant_is_capped_at_its_share(self):
        server = make_server({"a": 1.0, "b": 1.0}, fair_depth=8)
        admitted, shed = synthetic_overload(
            server, {"a": 8, "b": 2}, rounds=200, drain_per_round=2
        )
        # Equal entitlements: the storming tenant gets no more than its
        # half of the drained capacity (plus the slack), despite
        # offering 4x the load.
        total = admitted["a"] + admitted["b"]
        assert admitted["a"] / total < 0.6
        assert shed["a"] > shed["b"]
        # The polite tenant barely sheds: it never exceeds its share.
        assert shed["b"] / (admitted["b"] + shed["b"]) < 0.05

    def test_shadow_work_is_shed_first(self):
        server = make_server(
            {"a": 1.0, "m": 0.5}, fair_depth=8, shadows=("m",)
        )
        admitted, shed = synthetic_overload(
            server, {"a": 4, "m": 4}, rounds=100, drain_per_round=2
        )
        # Zero entitlement: once fairness engages, shadow work only ever
        # rides in the fixed slack slots.
        assert shed["m"] > shed["a"]
        assert admitted["m"] < admitted["a"] / 4

    def test_untenanted_requests_bypass_fair_admission(self):
        server = make_server({"a": 1.0, "b": 1.0}, fair_depth=4)
        for index in range(20):
            request = make_request("a", index)
            server._note_queued(request)
            server._queue.append((request, None, 0.0))
        assert not server._fair_admit(make_request("a"))
        bare = make_request(None)
        assert server._fair_admit(bare)


class TestWeightedFairProperty:
    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
            min_size=2, max_size=4,
        ),
        storm_index=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_admitted_shares_track_entitlements(self, weights, storm_index):
        names = [f"t{i}" for i in range(len(weights))]
        storm = names[storm_index % len(names)]
        server = make_server(dict(zip(names, weights)), fair_depth=16)
        total_weight = sum(weights)
        # Every tenant floods (storming tenant 4x harder): under full
        # saturation the queue slots — and therefore the admissions —
        # must split by entitlement, not by offered load.
        offered = {
            name: (16 if name == storm else 4) for name in names
        }
        admitted, shed = synthetic_overload(
            server, offered, rounds=500, drain_per_round=3
        )
        total_admitted = sum(admitted.values())
        assert sum(shed.values()) > 0  # the overload was real
        for name, weight in zip(names, weights):
            entitlement = weight / total_weight
            share = admitted[name] / total_admitted
            # Tolerance covers the fixed +2 slack and the fill phase.
            assert share == pytest.approx(entitlement, abs=0.15)


class TestStormEndToEnd:
    """The acceptance drill: tenant a storms at 4x its entitlement on a
    saturated server; tenant b must keep its SLO and shed (almost)
    nothing — the storm is paid for by the tenant that caused it."""

    SLO_MS = 50.0
    RPS = 8_000
    DURATION_S = 10.0

    @pytest.fixture(scope="class")
    def storm(self):
        fleet = TenancyConfig.parse(
            f"a=noop:1,slo={self.SLO_MS:g},burst=4;"
            f"b=noop:1,slo={self.SLO_MS:g};fair=16"
        )
        return run_infra_test(
            "actix", target_rps=self.RPS, duration_s=self.DURATION_S,
            seed=7, slo_deadline_s=self.SLO_MS / 1000.0,
            admission=AdmissionPolicy(slack_s=0.01),
            fallback=FallbackConfig(),
            tenants=fleet,
        )

    def test_storm_traffic_splits_four_to_one(self, storm):
        rows = storm.tenancy["tenants"]
        assert rows["a"]["requests"] == pytest.approx(
            4 * rows["b"]["requests"], rel=0.01
        )

    def test_victim_tenant_keeps_its_slo(self, storm):
        row = storm.tenancy["tenants"]["b"]
        assert row["p90_ms"] is not None
        assert row["p90_ms"] <= self.SLO_MS
        assert row["slo_met"] is True
        assert row["errors"] == 0

    def test_sheds_concentrate_on_the_storming_tenant(self, storm):
        rows = storm.tenancy["tenants"]
        assert rows["a"]["shed"] > 0  # fairness really engaged
        # Per offered request, the storming tenant sheds at many times
        # the victim's rate.
        storm_rate = rows["a"]["shed"] / rows["a"]["requests"]
        victim_rate = rows["b"]["shed"] / max(1, rows["b"]["requests"])
        assert storm_rate > 4 * victim_rate
