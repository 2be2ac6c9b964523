"""Resilience wiring at the experiment level: spec coercion, specfile
round-trips, telemetry counters/spans, and the disabled-path determinism
invariant."""

import pytest

from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.cluster import ChaosSchedule, PodCrash
from repro.loadgen import RetryPolicy
from repro.obs import Telemetry
from tests.fingerprints import run_fingerprint


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=20.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecCoercion:
    def test_string_specs_coerce_to_objects(self):
        s = spec(retry="max=2,base=0.05", chaos="crash@10:restart=5")
        assert isinstance(s.retry, RetryPolicy)
        assert s.retry.max_retries == 2
        assert isinstance(s.chaos, ChaosSchedule)
        assert s.chaos.events == (PodCrash(at_s=10.0, restart_after_s=5.0),)

    def test_object_specs_pass_through(self):
        policy = RetryPolicy(max_retries=4)
        schedule = ChaosSchedule(events=(PodCrash(at_s=1.0),))
        s = spec(retry=policy, chaos=schedule)
        assert s.retry is policy
        assert s.chaos is schedule

    def test_specfile_round_trip(self):
        s = spec(retry="max=3,base=0.02,cap=1,jitter=0.25,hedge=0.2",
                 chaos="crash@15:restart=10,slow@30:factor=2:dur=5")
        document = spec_to_dict(s)
        assert isinstance(document["retry"], str)
        assert isinstance(document["chaos"], str)
        restored, _slo = spec_from_dict(document)
        assert restored.retry == s.retry
        assert restored.chaos == s.chaos

    def test_specfile_omits_unset_resilience(self):
        document = spec_to_dict(spec())
        assert "retry" not in document
        assert "chaos" not in document


class TestInstrumentedResilienceRun:
    @pytest.fixture(scope="class")
    def traced(self):
        """One crash mid-ramp, bridged by retries, fully instrumented."""
        telemetry = Telemetry()
        result = ExperimentRunner(seed=21).run(
            spec(
                duration_s=60.0,
                retry="max=8,base=0.5,cap=5,jitter=0.5",
                chaos="crash@15:restart=10",
            ),
            telemetry=telemetry,
        )
        return result, telemetry

    def test_result_carries_resilience_section(self, traced):
        result, _telemetry = traced
        section = result.resilience
        assert section is not None
        assert section["retries"] > 0
        assert section["retry_successes"] > 0
        assert section["retry_policy"].startswith("max=8")
        assert [e["kind"] for e in section["chaos_events"]] == ["crash"]
        assert section["chaos_schedule"] == "crash@15:pod=0:restart=10"

    def test_retry_and_chaos_counters_registered(self, traced):
        result, telemetry = traced
        retries = telemetry.metrics.get("loadgen_retries_total")
        assert retries is not None
        assert retries.value == result.resilience["retries"]
        crashes = telemetry.metrics.get("chaos_events_total", {"kind": "crash"})
        assert crashes is not None
        assert crashes.value == 1

    def test_retry_and_chaos_spans_recorded(self, traced):
        _result, telemetry = traced
        backoffs = telemetry.trace.find("retry_backoff")
        assert backoffs
        assert all(span.finished for span in backoffs)
        (crash_span,) = telemetry.trace.find("chaos_crash")
        assert crash_span.trace_id < 0  # outside any request trace

    def test_plain_run_has_no_resilience_section(self):
        result = ExperimentRunner(seed=22).run(spec(duration_s=10.0))
        assert result.resilience is None


class TestInfraTestResilience:
    def test_crash_recover_with_retries_on_the_bare_server(self):
        from repro.core.infra_test import run_infra_test

        result = run_infra_test(
            "actix", target_rps=200, duration_s=30.0, seed=5,
            retry_policy=RetryPolicy.parse("max=6,base=0.5,cap=4"),
            chaos=ChaosSchedule.parse("crash@10:restart=5"),
        )
        resilience = result.resilience
        assert [e["kind"] for e in resilience["chaos_events"]] == ["crash"]
        assert resilience["retries"] > 0
        # Retries bridged the 5 s outage almost entirely.
        assert result.error_rate < 0.05

    def test_chaos_needs_actix_hooks(self):
        from repro.core.infra_test import run_infra_test

        with pytest.raises(ValueError):
            run_infra_test(
                "torchserve", target_rps=50, duration_s=5.0,
                chaos=ChaosSchedule.parse("crash@1"),
            )


class TestDisabledResilienceDeterminism:
    """Configured-but-idle resilience must not perturb a healthy run."""

    def test_unused_policy_and_empty_schedule_are_bit_identical(self):
        baseline = ExperimentRunner(seed=33).run(spec())
        with_retry = ExperimentRunner(seed=33).run(
            spec(retry=RetryPolicy(max_retries=5, jitter=0.9))
        )
        with_empty_chaos = ExperimentRunner(seed=33).run(
            spec(chaos=ChaosSchedule())
        )
        assert run_fingerprint(with_retry) == run_fingerprint(baseline)
        assert run_fingerprint(with_empty_chaos) == run_fingerprint(baseline)
        # The idle machinery reported itself but changed nothing.
        assert with_retry.resilience["retries"] == 0
        assert with_empty_chaos.resilience["chaos_events"] == []
