"""The tenant fleet end to end: spec wiring, the disabled-path
determinism contract, co-location budgets, non-composition guards,
canary/shadow accounting in a full run, rolling version updates, and
the observability surface."""

import numpy as np
import pytest

from repro.cluster.kubernetes import DeploymentError
from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.hardware import CPU_E2
from repro.models import ModelConfig, create_model
from repro.serving import EtudeInferenceServer
from repro.serving.request import HTTP_OK
from repro.simulation import Simulator
from repro.tenancy import TenancyConfig, TenantServing, TrafficSplitter
from tests.fingerprints import run_fingerprint
from tests.replay import click_prefixes, make_profile, replay


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=15.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecWiring:
    def test_string_spec_coerces_to_config(self):
        s = spec(tenants="a=stamp:3,slo=60;b=stamp:1")
        assert isinstance(s.tenants, TenancyConfig)
        assert [t.name for t in s.tenants.tenants] == ["a", "b"]

    def test_empty_fleet_normalizes_to_none(self):
        assert spec(tenants="").tenants is None
        assert spec(tenants=TenancyConfig()).tenants is None

    def test_specfile_round_trips_tenants(self):
        s = spec(tenants="a=stamp:3,slo=60;b=narm:1,canary=0.1;fair=32")
        document = spec_to_dict(s)
        assert isinstance(document["tenants"], str)
        restored, _slo = spec_from_dict(document)
        assert restored.tenants == s.tenants
        # The default is omitted so old spec files stay byte-stable.
        assert "tenants" not in spec_to_dict(spec())

    def test_plain_run_has_no_tenancy_section(self):
        result = ExperimentRunner(seed=22).run(spec(duration_s=10.0))
        assert result.tenancy is None


class TestDisabledDeterminism:
    """With ``--tenants`` unset no tenancy object exists anywhere and a
    run is bit-identical to the paper-faithful harness; a *single-tenant*
    fleet draws no extra RNG either, so even it must leave the latency
    fingerprint untouched on both device paths."""

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_single_tenant_fleet_is_latency_identical(self, instance):
        baseline = ExperimentRunner(seed=33).run(
            spec(hardware=HardwareSpec(instance, 1))
        )
        solo = ExperimentRunner(seed=33).run(
            spec(hardware=HardwareSpec(instance, 1), tenants="solo=stamp:1")
        )
        assert run_fingerprint(solo) == run_fingerprint(baseline)
        assert baseline.tenancy is None
        assert solo.tenancy is not None  # the section reports, only


class TestFleetRun:
    @pytest.fixture(scope="class")
    def fleet(self):
        return ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec("GPU-T4", 2),
                duration_s=20.0,
                target_rps=100,
                tenants=(
                    "home=stamp:3,slo=200;search=stamp:1,slo=400,"
                    "canary=0.1;mirror=stamp:0.2,shadow"
                ),
            )
        )

    def test_traffic_splits_by_weight(self, fleet):
        rows = fleet.tenancy["tenants"]
        assert rows["home"]["requests"] == pytest.approx(
            3 * rows["search"]["requests"], rel=0.01
        )
        assert rows["home"]["entitlement"] == pytest.approx(0.75)

    def test_canary_arm_served_at_its_fraction(self, fleet):
        row = fleet.tenancy["tenants"]["search"]
        assert row["canary_requests"] == pytest.approx(
            row["requests"] * 0.1, abs=2
        )

    def test_shadow_scored_never_returned(self, fleet):
        shadow = fleet.tenancy["shadow"]["mirror"]
        total_client = sum(
            row["requests"] for row in fleet.tenancy["tenants"].values()
        )
        assert shadow["mirrored"] == pytest.approx(total_client * 0.2, abs=2)
        # Every mirrored request completed server-side; client-visible
        # totals exclude all of them.
        assert shadow["completed"] == shadow["mirrored"] - shadow["shed"]
        assert shadow["shed"] == 0  # a light load scores every mirror
        assert fleet.total_requests == total_client

    def test_per_tenant_slos_are_checked(self, fleet):
        for row in fleet.tenancy["tenants"].values():
            assert row["slo_met"] is True
            assert row["errors"] == 0


class TestRollingUpdate:
    def test_rollout_bumps_every_pod_without_errors(self):
        result = ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec("CPU", 2),
                duration_s=25.0,
                tenants="a=stamp:1,rollout=5;b=stamp:1",
            )
        )
        (rollout,) = result.tenancy["rollouts"]
        assert rollout["tenant"] == "a"
        assert rollout["completed"] is True
        assert rollout["pods_updated"] == 2
        versions = {event["version"] for event in rollout["events"]}
        assert len(versions) == 1
        assert next(iter(versions)).endswith("+r1")
        assert result.error_requests == 0

    def test_canary_rollout_promotes_the_canary_version(self):
        result = ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec("CPU", 2),
                duration_s=25.0,
                tenants="a=stamp:1,canary=0.2,rollout=5;b=stamp:1",
            )
        )
        (rollout,) = result.tenancy["rollouts"]
        assert rollout["completed"] is True
        assert rollout["pods_updated"] == 2
        versions = {event["version"] for event in rollout["events"]}
        assert len(versions) == 1
        assert next(iter(versions)).endswith("+next")  # the canary artifact
        assert result.tenancy["tenants"]["a"]["canary_requests"] > 0
        assert result.error_requests == 0


class TestColocatedAnswers:
    """Two tenants with different models on one server: each request gets
    exactly the answer its tenant's model gives when served alone."""

    CATALOG = 2_000
    SEED = 31
    MODELS = {"a": "stamp", "b": "narm"}

    def model(self, kind):
        return create_model(kind, ModelConfig.for_catalog(self.CATALOG, top_k=5))

    def test_colocated_answers_equal_each_tenant_served_alone(self):
        prefixes = click_prefixes(self.CATALOG, 300, seed=self.SEED)
        config = TenancyConfig.parse("a=stamp:3;b=narm:1")
        profile = make_profile()
        sim = Simulator()
        server = EtudeInferenceServer(
            sim, CPU_E2.device, profile, np.random.default_rng(self.SEED),
            tenants={
                tenant.name: TenantServing(
                    config=tenant,
                    model=self.model(self.MODELS[tenant.name]),
                    service_profile=profile,
                    artifact_version=f"v-{tenant.name}",
                )
                for tenant in config.tenants
            },
        )
        splitter = TrafficSplitter(config, server.submit, sim)
        tenant_of = {}

        def submit(request, respond):
            splitter.submit(request, respond)
            tenant_of[request.request_id] = request.tenant

        colocated = replay(sim, submit, prefixes)
        assert len(colocated) == 300
        assert set(tenant_of.values()) == set(self.MODELS)

        for name, kind in self.MODELS.items():
            sim = Simulator()
            alone = EtudeInferenceServer(
                sim, CPU_E2.device, make_profile(),
                np.random.default_rng(self.SEED), model=self.model(kind),
            )
            answers = replay(sim, alone.submit, prefixes)
            for request_id, response in colocated.items():
                if tenant_of[request_id] == name:
                    assert response.status == HTTP_OK
                    np.testing.assert_array_equal(
                        response.items, answers[request_id].items
                    )


class TestColocationBudget:
    def test_oversized_fleet_reports_per_tenant_breakdown(self):
        # Eight gru4rec tenants at a 10M catalog cannot co-locate on a
        # 16 GB T4: the DeploymentError itemizes every tenant's bytes.
        fleet = ";".join(f"t{i}=gru4rec:1" for i in range(8))
        with pytest.raises(DeploymentError) as error:
            ExperimentRunner(seed=33).run(
                spec(
                    model="gru4rec",
                    catalog_size=10_000_000,
                    hardware=HardwareSpec("GPU-T4", 2),
                    tenants=fleet,
                )
            )
        message = str(error.value)
        assert "tenant fleet needs" in message
        assert "t0=" in message and "t7=" in message

    def test_canary_doubles_a_tenants_footprint(self):
        from repro.hardware import GPU_T4
        from repro.tenancy import check_colocation
        from tests.tenancy.test_cache_isolation import serving

        plain = serving("a")
        plain.resident_bytes = 8e9
        with_canary = serving("b", canary="v1")
        with_canary.resident_bytes = 8e9
        # 8 GB fits a 16 GB T4 (2 GB runtime reserve); 2 x 8 GB does not.
        assert check_colocation(GPU_T4, [plain]) == 8e9
        with pytest.raises(DeploymentError) as error:
            check_colocation(GPU_T4, [with_canary])
        assert "(+canary)" in str(error.value)


class TestNonComposition:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(sharding="2"), "sharding"),
            (dict(scheduler="cpu=1,target=20"), "scheduler"),
            (dict(retrieval="ivf:nlist=32,nprobe=8"), "retrieval"),
        ],
    )
    def test_tenants_reject_unsupported_dimensions(self, overrides, fragment):
        with pytest.raises(DeploymentError) as error:
            ExperimentRunner(seed=33).run(
                spec(tenants="a=stamp:1;b=stamp:1", **overrides)
            )
        assert fragment in str(error.value)


class TestObservability:
    def test_route_spans_and_counters(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        result = ExperimentRunner(seed=33).run(
            spec(duration_s=10.0, tenants="a=stamp:3;b=stamp:1"),
            telemetry=telemetry,
        )
        rows = result.tenancy["tenants"]
        spans = telemetry.trace.find("tenant_route")
        assert len(spans) == rows["a"]["requests"] + rows["b"]["requests"]
        counters = [
            m
            for m in telemetry.metrics.counters()
            if m.name == "tenant_requests_total"
        ]
        by_tenant = {m.labels["tenant"]: m.value for m in counters}
        assert by_tenant["a"] == rows["a"]["requests"]
        assert by_tenant["b"] == rows["b"]["requests"]
