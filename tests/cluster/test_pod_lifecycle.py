"""What a pod's server is built from, on start, restart and scale-up.

A pod boots three ways: with the deployment, after a kubelet restart
(chaos crash) and through ``Cluster.add_pod`` (autoscaler scale-up). Each
path must build the server from the same recipe as the pod it replaces
or joins.
"""

from repro.cache.tier import CacheConfig
from repro.cluster import make_infra
from repro.cluster.kubernetes import AuxiliaryFleet
from repro.hardware import CPU_E2, LatencyModel
from repro.hardware.instances import instance_by_name
from repro.scheduler import QueryDispatcher, SchedulerConfig, SchedulerRuntime
from repro.serving.batching import BatchingConfig
from repro.serving.profiles import ActixProfile
from repro.tenancy.config import TenantConfig
from repro.tenancy.fleet import TenantServing
from repro.tensor.ops import CostRecord, CostTrace

GPU_T4 = instance_by_name("GPU-T4")


def small_profile(device, param_bytes=1e6):
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=param_bytes, write_bytes=1e4))
    return LatencyModel(device).profile(trace)


def deploy(infra, instance_type, **kwargs):
    infra.bucket.upload("models/test.pt", b"x" * 1000)
    return infra.cluster.deploy_model(
        name="test",
        instance_type=instance_type,
        replicas=kwargs.pop("replicas", 1),
        artifact_path="models/test.pt",
        service_profile=small_profile(instance_type.device),
        resident_bytes=1e6,
        score_bytes_per_item=4e3,
        **kwargs,
    )


def heterogeneous(infra):
    """A GPU primary pod beside one auxiliary CPU pod."""
    auxiliary = AuxiliaryFleet(
        instance_type=CPU_E2,
        replicas=1,
        service_profile=small_profile(CPU_E2.device, param_bytes=2e6),
        resident_bytes=1e6,
    )
    deployment = deploy(infra, GPU_T4, auxiliary=auxiliary)
    infra.simulator.run(until=200.0)
    assert deployment.all_ready
    gpu, cpu = deployment.pods
    assert gpu.instance_type is GPU_T4 and cpu.instance_type is CPU_E2
    return deployment, auxiliary, gpu, cpu


def crash_and_restart(infra, deployment, pod, restart_after=5.0):
    """Crash ``pod`` and run until its kubelet restart is ready."""
    infra.cluster.inject_pod_failure(
        deployment, deployment.pods.index(pod), infra.simulator.now + 1.0,
        restart_after=restart_after,
    )
    infra.simulator.run(until=infra.simulator.now + 100.0)
    assert pod.ready and pod.server.name.endswith("-restarted")


class TestRestart:
    def test_auxiliary_cpu_pod_restarts_with_the_cpu_profile(self):
        infra = make_infra(seed=21)
        deployment, auxiliary, gpu, cpu = heterogeneous(infra)
        primary_profile = gpu.server.service_profile
        assert cpu.server.service_profile is auxiliary.service_profile
        crash_and_restart(infra, deployment, cpu)
        assert cpu.server.service_profile is auxiliary.service_profile
        assert cpu.server.device is CPU_E2.device
        assert gpu.server.service_profile is primary_profile

    def test_restarted_gpu_pod_keeps_the_tuned_batching(self):
        infra = make_infra(seed=21)
        deployment, _auxiliary, gpu, _cpu = heterogeneous(infra)
        tuned = BatchingConfig(max_batch_size=64, max_delay_s=0.0005)

        class FixedTuner:
            """Moves the linger knob once, to ``tuned``."""

            max_batch = tuned.max_batch_size
            linger_s = tuned.max_delay_s
            short_session = 4

            def step(self, observation):
                return "linger"

            def batching(self):
                return tuned

        config = SchedulerConfig(epoch_s=1.0)
        runtime = SchedulerRuntime(
            infra.simulator, config, deployment, QueryDispatcher(config),
            FixedTuner(),
        )
        assert gpu.server.batching != tuned
        infra.simulator.spawn(runtime.epoch_process(infra.simulator.now + 1.5))
        infra.simulator.run(until=infra.simulator.now + 2.0)
        assert gpu.server.batching == tuned
        crash_and_restart(infra, deployment, gpu)
        assert gpu.server.batching == tuned


class TestScaleUp:
    def test_added_pod_shares_the_remote_tier_and_clones_tenants(self):
        infra = make_infra(seed=21)
        profile = small_profile(CPU_E2.device)
        tenants = [
            TenantServing(
                config=TenantConfig(name=name, model="stamp", weight=1.0),
                service_profile=profile,
                artifact_version=f"models/{name}.pt",
            )
            for name in ("home", "search")
        ]
        deployment = deploy(
            infra, CPU_E2, replicas=2,
            server_profile=ActixProfile(
                cache=CacheConfig(capacity=64, remote_capacity=256)
            ),
            tenants=tenants,
        )
        infra.simulator.run(until=200.0)
        assert deployment.all_ready
        first, second = deployment.pods
        added = infra.cluster.add_pod(deployment)
        infra.simulator.run(until=infra.simulator.now + 200.0)
        assert added.ready and added in deployment.pods

        remote = first.server.cache.remote
        assert remote is not None
        assert second.server.cache.remote is remote
        assert added.server.cache.remote is remote
        assert added.server.cache is not first.server.cache

        assert set(added.server.tenants) == {"home", "search"}
        for original in tenants:
            clone = added.server.tenants[original.name]
            assert clone is not original
            assert clone is not first.server.tenants[original.name]
            assert clone.config is original.config
            assert clone.artifact_version == original.artifact_version
