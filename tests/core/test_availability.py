"""Failure domains end to end: the zones=1 determinism contract, the
availability section of a zoned run, the scripted failure drill, and the
planner's ``--survive-zones`` gate."""

import math

import pytest

from repro.core import DeploymentPlanner, ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.drill import run_failure_drill
from repro.core.spec import Scenario
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.hardware import CPU_E2
from tests.fingerprints import run_fingerprint


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 2), duration_s=15.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSingleZoneDeterminism:
    """zones=1 (the default) must leave every run untouched — the
    zone machinery draws no RNG and schedules no events when off."""

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_explicit_single_zone_is_bit_identical(self, instance):
        base = spec(hardware=HardwareSpec(instance, 2))
        baseline = ExperimentRunner(seed=33).run(base)
        single = ExperimentRunner(seed=33).run(spec(
            hardware=HardwareSpec(instance, 2), zones=1,
        ))
        assert run_fingerprint(single) == run_fingerprint(baseline)
        assert baseline.availability is None
        assert single.availability is None

    def test_specfile_round_trips_zones(self):
        zoned = spec(zones=3)
        document = spec_to_dict(zoned)
        assert document["zones"] == 3
        restored, _slo = spec_from_dict(document)
        assert restored.zones == 3
        # The default is omitted so old spec files stay byte-stable.
        assert "zones" not in spec_to_dict(spec())


class TestAvailabilitySection:
    def test_zoned_run_reports_spread_and_cross_zone_legs(self):
        result = ExperimentRunner(seed=21).run(spec(zones=2))
        availability = result.availability
        assert availability is not None
        assert availability["zones"] == 2
        assert availability["home_zone"] == "z0"
        assert availability["pods_per_zone"] == {"z0": 1, "z1": 1}
        # Half the traffic lands on the z1 replica; both directions of
        # each such request are charged and counted.
        assert availability["cross_zone_legs"] > 0
        assert availability["zone_outages"] == []
        assert availability["time_to_recovery_s"] is None

    def test_zone_outage_chaos_reports_recovery(self):
        result = ExperimentRunner(seed=21).run(spec(
            zones=2, duration_s=30.0, chaos="zone@5:name=z1:restart=5",
        ))
        availability = result.availability
        (outage,) = availability["zone_outages"]
        assert outage["zone"] == "z1"
        assert outage["pods_lost"] == 1
        assert outage["restart_after_s"] == 5.0
        # Readiness needs the restart delay plus artifact pull + load +
        # warmup, so TTR is strictly above the chaos knob.
        assert outage["time_to_recovery_s"] > 5.0
        assert availability["time_to_recovery_s"] == outage["time_to_recovery_s"]


class TestFailureDrill:
    """Acceptance drill: a zone-replicated sharded deployment rides
    through a full zone outage; the unreplicated one collapses."""

    @pytest.fixture(scope="class")
    def replicated(self):
        return run_failure_drill(
            spec(
                target_rps=80, duration_s=45.0, sharding=2, zones=2,
                hardware=HardwareSpec("CPU", 2), seed=7,
            ),
            outage_at_s=15.0,
            restart_after_s=10.0,
        )

    @pytest.fixture(scope="class")
    def unreplicated(self):
        return run_failure_drill(
            spec(
                target_rps=80, duration_s=45.0, sharding=2, zones=2,
                hardware=HardwareSpec("CPU", 1), seed=7,
            ),
            outage_at_s=15.0,
            restart_after_s=10.0,
        )

    def test_replicated_deployment_survives(self, replicated):
        assert replicated.survived
        assert replicated.during.ok_fraction >= 0.99
        # Every 200 through the outage still merged every shard's slice.
        assert replicated.min_coverage == 1.0

    def test_replicated_deployment_recovers(self, replicated):
        assert replicated.recovered
        ttr = replicated.time_to_recovery_s
        assert ttr is not None and math.isfinite(ttr)
        assert ttr > 10.0  # restart delay + pod boot, both real
        assert replicated.after.p90_ms is not None
        assert replicated.after.p90_ms <= replicated.before.p90_ms * 2

    def test_windows_partition_the_run(self, replicated):
        names = [w.name for w in (replicated.before, replicated.during,
                                  replicated.after)]
        assert names == ["before", "during", "after"]
        total = sum(w.seconds for w in (replicated.before,
                                        replicated.during, replicated.after))
        assert total == pytest.approx(45, abs=2)

    def test_report_serializes(self, replicated):
        document = replicated.to_dict()
        assert document["survived"] is True
        assert document["recovered"] is True
        assert [w["name"] for w in document["windows"]] == [
            "before", "during", "after",
        ]
        assert document["min_coverage"] == 1.0

    def test_unreplicated_deployment_collapses(self, unreplicated):
        assert not unreplicated.survived
        # The dead zone takes one whole shard with it: every merge during
        # the outage is missing half the catalog.
        assert unreplicated.min_coverage <= 0.5

    def test_drill_rejects_single_zone_specs(self):
        with pytest.raises(ValueError, match="zones >= 2"):
            run_failure_drill(spec())

    def test_drill_rejects_zones_down_at_or_above_zones(self):
        with pytest.raises(ValueError):
            run_failure_drill(spec(zones=2), zones_down=2)
        with pytest.raises(ValueError):
            run_failure_drill(spec(zones=2), zones_down=0)

    def test_drill_owns_the_failure_script(self):
        with pytest.raises(ValueError, match="drill injects its own"):
            run_failure_drill(spec(zones=2, chaos="crash@5:pod=0"))

    def test_outage_must_fall_inside_the_run(self):
        with pytest.raises(ValueError, match="inside the run"):
            run_failure_drill(spec(zones=2), outage_at_s=100.0)


class TestPlannerSurviveZones:
    """--survive-zones buys availability with replicas and proves it
    with a drill; the gated plan is strictly more expensive."""

    SCENARIO = Scenario("Groceries (small)", 10_000, 100)

    @pytest.fixture(scope="class")
    def unconstrained(self):
        planner = DeploymentPlanner(
            runner=ExperimentRunner(seed=11), duration_s=30.0,
            max_replicas=4, shard_counts=(2,),
        )
        return planner.min_feasible_replicas("stamp", self.SCENARIO, CPU_E2)

    @pytest.fixture(scope="class")
    def gated(self):
        planner = DeploymentPlanner(
            runner=ExperimentRunner(seed=11), duration_s=30.0,
            max_replicas=4, shard_counts=(2,), survive_zones=1,
        )
        assert planner.zones == 2
        return planner.min_feasible_replicas("stamp", self.SCENARIO, CPU_E2)

    def test_availability_costs_real_money(self, unconstrained, gated):
        assert unconstrained is not None and gated is not None
        assert unconstrained.survives_zones is None
        assert gated.survives_zones == 1
        # One replica per shard meets the SLO; surviving a zone outage
        # needs a second, and the plan pays for it honestly.
        assert unconstrained.replicas == 1
        assert gated.replicas >= 2
        assert gated.monthly_cost_usd > unconstrained.monthly_cost_usd

    def test_survive_zones_validation(self):
        with pytest.raises(ValueError):
            DeploymentPlanner(survive_zones=-1)
