"""Health-aware routing: policy parsing, outlier ejection / half-open
probes, LOR steering, the no-backend round-trip charge, and round-robin
correctness under rotation-membership churn."""

import numpy as np
import pytest

from repro.cluster import ClusterIPService, RoutingPolicy, make_infra
from repro.cluster.routing import partition_by_shard
from repro.hardware import CPU_E2, LatencyModel
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from repro.simulation import Signal, Simulator
from repro.tensor.ops import CostRecord, CostTrace
from tests.replay import make_request


def profile_with_latency(seconds):
    trace = CostTrace()
    trace.append(
        CostRecord(op="linear", param_bytes=seconds * CPU_E2.device.weight_bandwidth)
    )
    return LatencyModel(CPU_E2.device).profile(trace)


def deploy(infra, replicas, service_seconds=0.004, name="t"):
    infra.bucket.upload("m", b"x" * 64)
    return infra.cluster.deploy_model(
        name=name,
        instance_type=CPU_E2,
        replicas=replicas,
        artifact_path="m",
        service_profile=profile_with_latency(service_seconds),
        resident_bytes=1e6,
        score_bytes_per_item=4e3,
    )


class TestRoutingPolicyParsing:
    def test_defaults(self):
        policy = RoutingPolicy.parse("")
        assert policy == RoutingPolicy()
        assert policy.discipline == "rr"
        assert policy.eject_after is None

    def test_full_spec_round_trips(self):
        policy = RoutingPolicy.parse("lor,eject=3,cooldown=15,lag=2")
        assert policy.discipline == "lor"
        assert policy.eject_after == 3
        assert policy.cooldown_s == 15.0
        assert policy.endpoint_lag_s == 2.0
        assert RoutingPolicy.parse(policy.spec_string()) == policy

    def test_unknown_tokens_rejected(self):
        with pytest.raises(ValueError):
            RoutingPolicy.parse("p2c")
        with pytest.raises(ValueError):
            RoutingPolicy.parse("ejekt=3")
        with pytest.raises(ValueError):
            RoutingPolicy(eject_after=0)


class TestNoBackendRoundTrip:
    """The service-answered 503 charges both network legs (satellite fix)."""

    def _no_backend_latency(self, telemetry=None):
        infra = make_infra(seed=3)
        sim = infra.simulator
        deployment = deploy(infra, replicas=1)
        if telemetry is not None:
            telemetry.bind(sim)
        responses = []

        def coordinator():
            yield deployment.ready_signal
            # Crash the only pod permanently, then submit into the void.
            infra.cluster.inject_pod_failure(
                deployment, 0, at_time=sim.now + 1.0, restart_after=None
            )
            service = ClusterIPService(
                sim, deployment, np.random.default_rng(0), telemetry=telemetry
            )
            # Pin the network legs so the latency is exactly countable.
            service._network_delay = lambda: 0.001
            yield 5.0
            service.submit(make_request(7, sim.now), responses.append)

        sim.spawn(coordinator())
        sim.run()
        (response,) = responses
        assert response.status == HTTP_SERVICE_UNAVAILABLE
        return response

    def test_latency_covers_both_network_legs(self):
        response = self._no_backend_latency()
        assert response.latency_s == pytest.approx(0.002)

    def test_rejection_emits_the_sent_span(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        self._no_backend_latency(telemetry)
        sent_spans = [
            s for s in telemetry.trace.find("sent") if s.trace_id == 7
        ]
        assert len(sent_spans) == 1
        assert sent_spans[0].finished
        assert sent_spans[0].attrs.get("no_backend") is True


class TestOutlierEjection:
    def _drive(self, routing, crash_at=10.0, restart_after=None, duration=40.0):
        """Steady 20 req/s against 2 replicas; pod 0 crashes ``crash_at``
        seconds after readiness (times below are relative to load start)."""
        infra = make_infra(seed=4)
        sim = infra.simulator
        deployment = deploy(infra, replicas=2)
        responses = []
        holder = {}

        def coordinator():
            yield deployment.ready_signal
            infra.cluster.inject_pod_failure(
                deployment, 0, at_time=sim.now + crash_at,
                restart_after=restart_after,
            )
            service = ClusterIPService(
                sim, deployment, np.random.default_rng(0), routing=routing
            )
            holder["service"] = service
            holder["started_at"] = sim.now
            for index in range(int(duration / 0.05)):
                service.submit(make_request(index, sim.now), responses.append)
                yield 0.05

        sim.spawn(coordinator())
        sim.run()
        return holder["service"], responses, holder["started_at"]

    def test_consecutive_503s_eject_the_dead_pod(self):
        policy = RoutingPolicy(eject_after=3, cooldown_s=5.0, endpoint_lag_s=60.0)
        service, responses, _ = self._drive(policy)
        errors = [r for r in responses if r.status != HTTP_OK]
        assert service.ejections >= 1
        # The breaker caps the damage at roughly eject_after failures plus
        # the occasional half-open probe; without it the 60 s endpoint lag
        # would feed the dead pod half the traffic for the rest of the run.
        no_eject_policy = RoutingPolicy(endpoint_lag_s=60.0)
        _, baseline_responses, _ = self._drive(no_eject_policy)
        baseline_errors = [
            r for r in baseline_responses if r.status != HTTP_OK
        ]
        assert len(errors) < len(baseline_errors)

    def test_half_open_probe_restores_a_recovered_pod(self):
        policy = RoutingPolicy(eject_after=3, cooldown_s=4.0, endpoint_lag_s=60.0)
        service, responses, started_at = self._drive(
            policy, crash_at=10.0, restart_after=8.0
        )
        assert service.ejections >= 1
        assert service.probe_recoveries >= 1
        # After recovery + probe, both pods serve again: the tail of the
        # run is error-free.
        tail = [r for r in responses if r.completed_at > started_at + 35.0]
        assert tail
        assert all(r.status == HTTP_OK for r in tail)

    def test_lor_steers_away_from_a_slow_pod(self):
        infra = make_infra(seed=5)
        sim = infra.simulator
        deployment = deploy(infra, replicas=2, service_seconds=0.004)
        responses = []
        counts = {}

        def coordinator():
            yield deployment.ready_signal
            deployment.pods[0].server.set_slowdown(25.0)
            service = ClusterIPService(
                sim, deployment, np.random.default_rng(0),
                routing=RoutingPolicy(discipline="lor"),
            )
            for index in range(400):
                service.submit(make_request(index, sim.now), responses.append)
                yield 0.005
            counts["slow"] = deployment.pods[0].server.completed
            counts["fast"] = deployment.pods[1].server.completed

        sim.spawn(coordinator())
        sim.run()
        # Least-outstanding-requests sends the bulk of traffic to the fast
        # replica; plain round-robin would split 50/50.
        assert deployment.pods[1].server.completed > 2 * deployment.pods[0].server.completed


class FakePod:
    def __init__(self, name):
        self.name = name
        self.ready = True
        self.server = object()  # non-None: pod exists for the lag window


class FakeDeployment:
    def __init__(self, pods):
        self.pods = pods
        self.ready_signal = Signal("fake-ready")

    @property
    def ready_pods(self):
        return [p for p in self.pods if p.ready]


class TestRoundRobinChurn:
    """Property test: the rotation stays correct while pods churn in and
    out of readiness (fixed seed)."""

    def test_selection_is_valid_and_fair_under_churn(self):
        rng = np.random.default_rng(20240806)
        sim = Simulator()
        pods = [FakePod(f"pod-{i}") for i in range(5)]
        deployment = FakeDeployment(pods)
        service = ClusterIPService(
            sim,
            deployment,
            np.random.default_rng(0),
            routing=RoutingPolicy(discipline="rr"),
        )
        for _round in range(300):
            # Random membership churn, never fully empty.
            for pod in pods:
                pod.ready = bool(rng.integers(0, 2))
            if not any(p.ready for p in pods):
                pods[int(rng.integers(0, len(pods)))].ready = True
            view = service._routing_view()
            assert [p.name for p in view] == [
                p.name for p in pods if p.ready
            ]  # lag=0: the view is exactly the ready set, in pod order
            # Within one stable membership, a full cycle visits every pod
            # the same number of times (the cursor advances by one per
            # pick over a fixed-size candidate list).
            picks = []
            for _ in range(len(view) * 3):
                pod = service._select_pod(service._routing_view())
                assert pod.ready
                picks.append(pod.name)
            counts = {name: picks.count(name) for name in set(picks)}
            assert set(counts) == {p.name for p in view}
            assert all(count == 3 for count in counts.values())

    def test_membership_growth_does_not_starve_new_pods(self):
        sim = Simulator()
        pods = [FakePod("a"), FakePod("b")]
        deployment = FakeDeployment(pods)
        service = ClusterIPService(
            sim,
            deployment,
            np.random.default_rng(0),
            routing=RoutingPolicy(discipline="rr"),
        )
        for _ in range(3):
            service._select_pod(service._routing_view())
        pods.append(FakePod("c"))
        picks = [
            service._select_pod(service._routing_view()).name for _ in range(6)
        ]
        assert picks.count("c") == 2


class TestShardedEjectionContainment:
    """Regression: outlier ejection x catalog sharding. Back-to-back
    crash storms on one shard fully eject its rotation; the fail-open
    guardrail must trip *within that shard group only* — the other
    shards' breakers stay closed and their round-robin stays fair."""

    def _make(self):
        sim = Simulator()
        pods = [FakePod(f"pod-{i}") for i in range(4)]
        for index, pod in enumerate(pods):
            pod.shard = index // 2  # pods 0,1 -> shard 0; pods 2,3 -> shard 1
        deployment = FakeDeployment(pods)
        service = ClusterIPService(
            sim,
            deployment,
            np.random.default_rng(0),
            routing=RoutingPolicy(eject_after=2, cooldown_s=30.0),
        )
        return service

    def _fail(self, service, pod):
        service._observe(
            pod,
            RecommendationResponse(
                request_id=0,
                status=HTTP_SERVICE_UNAVAILABLE,
                completed_at=service.simulator.now,
                latency_s=0.001,
            ),
        )

    def test_storm_on_one_shard_leaves_other_rotations_closed(self):
        service = self._make()
        groups = partition_by_shard(service._routing_view())
        assert set(groups) == {0, 1}
        # Two back-to-back storms against shard 0: every leg routed to it
        # answers 503 until both replicas are ejected, then keeps failing
        # through the fail-open fallback.
        for _storm in range(2):
            for _ in range(2 * len(groups[0])):
                picked = service._select_pod(list(groups[0]))
                assert picked.shard == 0  # never borrows another shard's pod
                self._fail(service, picked)
        assert all(service.pod_ejected(p) for p in groups[0])
        assert service.ejections == len(groups[0])  # re-ejections not recounted
        # Shard 1's breaker never saw those failures: nothing is ejected
        # and a full cycle is still a fair round-robin over its own pods.
        assert not any(service.pod_ejected(p) for p in groups[1])
        picks = [service._select_pod(list(groups[1])).name for _ in range(6)]
        assert {p.name for p in groups[1]} == set(picks)
        assert all(picks.count(name) == 3 for name in set(picks))
        # Shard 0 fails open within its own group: selection degrades to
        # "try an ejected replica" rather than skipping the shard (which
        # would silently drop its catalog slice from every merge).
        fallback = service._select_pod(list(groups[0]))
        assert fallback.shard == 0

    def test_recovered_shard_rejoins_without_disturbing_others(self):
        service = self._make()
        sim = service.simulator
        groups = partition_by_shard(service._routing_view())
        for _ in range(2 * len(groups[0])):
            self._fail(service, service._select_pod(list(groups[0])))
        assert all(service.pod_ejected(p) for p in groups[0])
        # Cooldown elapses; the half-open probe succeeds and shard 0's
        # rotation heals — still without touching shard 1's state.
        sim.run()  # drain nothing: advances no time, keeps determinism
        for state in service._pod_states.values():
            if state.ejected_until is not None:
                state.ejected_until = sim.now  # cooldown expires "now"
        probe = service._select_pod(list(groups[0]))
        assert probe.shard == 0
        service._observe(
            probe,
            RecommendationResponse(
                request_id=1,
                status=HTTP_OK,
                completed_at=sim.now,
                latency_s=0.001,
            ),
        )
        assert service.probe_recoveries == 1
        assert not service.pod_ejected(probe)
        assert not any(service.pod_ejected(p) for p in groups[1])