"""The end-to-end experiment driver — ``make run_deployed_benchmark``.

One run, as the paper describes it: upload the model artifact to the
bucket, deploy it on Kubernetes, wait for the readiness probes, expose a
ClusterIP service, start the load generator on another machine, ramp the
load to the target throughput over the duration, measure, and persist the
results.

:meth:`ExperimentRunner.run_repeated` implements the paper's repetition
protocol: "We execute each configuration three times and ignore the runs
with the lowest and highest latencies."
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.composition import check_composition
from repro.cluster.kubernetes import AuxiliaryFleet, DeploymentError
from repro.cluster.provisioning import Infrastructure, make_infra
from repro.cluster.service import ClusterIPService
from repro.core.features import active, enabled_features
from repro.core.registry import GLOBAL_REGISTRY, AssetRegistry, ServingAssets
from repro.core.sections import (
    LiveRun,
    cache_section,
    overload_section,
    resilience_section,
    retrieval_section,
    sharding_section,
    tenancy_section,
)
from repro.core.spec import ExperimentSpec
from repro.core.specfile import spec_to_dict
from repro.hardware.instances import instance_by_name
from repro.loadgen.generator import LoadGenerator
from repro.metrics.collector import MetricsCollector
from repro.metrics.results import LatencySeries, RunResult
from repro.scheduler import HillClimbTuner, QueryDispatcher, SchedulerRuntime
from repro.serving.batching import BatchingConfig
from repro.serving.profiles import ActixProfile
from repro.sharding.config import largest_shard_fraction
from repro.sharding.plan import (
    shard_resident_bytes,
    shard_score_bytes_per_item,
    shard_service_profile,
)
from repro.tenancy.fleet import TenantServing
from repro.tenancy.rollout import TenantRollout
from repro.tenancy.split import TrafficSplitter
from repro.tensor.serialization import save_module_state
from repro.workload.synthetic import SyntheticWorkloadGenerator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


class ExperimentRunner:
    """Runs declaratively specified benchmarks on the simulated cluster."""

    #: JIT warm-up on pod start (tracing + optimizing on first requests).
    JIT_WARMUP_S = 3.0

    def __init__(
        self,
        infra: Optional[Infrastructure] = None,
        registry: Optional[AssetRegistry] = None,
        seed: int = 1234,
    ):
        self.infra = infra or make_infra(seed)
        self.registry = registry or GLOBAL_REGISTRY
        self.seed = seed

    # -- artifacts ------------------------------------------------------------

    def _artifact_path(self, assets: ServingAssets) -> str:
        # The ANN suffix makes the artifact version — and therefore every
        # cache key derived from it — change when index parameters change,
        # so a redeploy with a different nlist/nprobe never serves stale
        # cached recommendations.
        index = getattr(assets.model, "index", None)
        nlist = getattr(index, "logical_nlist", None)
        suffix = f"-ivf{nlist}x{index.nprobe}" if nlist is not None else ""
        return (
            f"models/{assets.model_name}"
            f"-c{assets.catalog_size}-{assets.execution_effective}{suffix}.pt"
        )

    def _ensure_artifact(self, assets: ServingAssets) -> str:
        path = self._artifact_path(assets)
        if not self.infra.bucket.exists(path):
            payload = save_module_state(
                assets.model, metadata=assets.model.artifact_metadata()
            )
            self.infra.bucket.upload(path, payload)
        return path

    # -- running -----------------------------------------------------------------

    def run(
        self, spec: ExperimentSpec, telemetry: Optional["Telemetry"] = None
    ) -> RunResult:
        """Deploy + load-test one configuration; returns the measurements.

        Pass a :class:`~repro.obs.telemetry.Telemetry` to record per-request
        spans and cluster metrics for this run (see ``docs/observability.md``);
        with the default ``None`` the run carries zero instrumentation.
        """
        check_composition(enabled_features(spec), DeploymentError)
        instance = instance_by_name(spec.hardware.instance_type)
        # ANN retrieval swaps the scoring head behind the same assets
        # pipeline; None (or an "exact" config) leaves every asset exactly
        # the config-less one — the bit-identity contract.
        retrieval = active(spec.retrieval)
        assets = self.registry.assets(
            spec.model,
            spec.catalog_size,
            instance.device,
            spec.execution,
            top_k=spec.top_k,
            retrieval=retrieval,
        )
        artifact = self._ensure_artifact(assets)

        # Every stream this run consumes — workload, network, retries, and
        # the cluster's provisioning/server-noise draws — derives from
        # (infra seed, spec seed) alone, never from how many runs this
        # runner executed before. Hermetic runs are what make the parallel
        # execution backend's child-process evaluations bit-identical to a
        # serial sweep (docs/parallelism.md).
        streams = self.infra.streams.fork(spec.seed)
        self.infra.reset_simulator(cluster_rng=streams.stream("cluster"))
        simulator = self.infra.simulator
        cluster = self.infra.cluster
        if telemetry is not None:
            telemetry.bind(simulator)

        # Overload protection, the result cache and the ANN descriptor
        # ride on the server profile; all-None is the paper's server. The
        # resolved nlist makes server telemetry report the index built.
        server_profile = ActixProfile(
            admission=spec.admission,
            fallback=spec.fallback,
            cache=spec.cache,
            retrieval=(
                replace(retrieval, nlist=assets.model.index.logical_nlist)
                if retrieval is not None
                else None
            ),
        )

        # Catalog sharding: each pod hosts one catalog slice, so the
        # deployed profile / footprint / score traffic shrink to the
        # largest shard's share. Disabled (None or S=1) leaves every
        # value exactly the full-catalog one — the bit-identity contract.
        sharding = active(spec.sharding)
        service_profile = assets.profile
        resident_bytes = assets.resident_bytes
        score_bytes = assets.score_bytes_per_item
        if sharding is not None:
            if not assets.model.supports_quantized_head:
                raise DeploymentError(
                    f"model {spec.model!r} fuses its scoring head into "
                    "forward(); catalog sharding needs a separable "
                    "encode/score split"
                )
            resident_bytes = shard_resident_bytes(
                assets.resident_bytes,
                spec.catalog_size,
                assets.model.embedding_dim,
                sharding.shards,
            )
            score_bytes = shard_score_bytes_per_item(
                assets.score_bytes_per_item, spec.catalog_size, sharding.shards
            )
            service_profile = shard_service_profile(
                assets.trace,
                instance.device,
                spec.catalog_size,
                sharding.shards,
                resident_bytes=resident_bytes,
            )

        # Index construction happens on every pod between model load and
        # readiness (the artifact ships embeddings, not the trained index);
        # under sharding each pod clusters only its catalog slice.
        index_build_s = 0.0
        if retrieval is not None:
            build_catalog = spec.catalog_size
            if sharding is not None:
                build_catalog = int(
                    spec.catalog_size
                    * largest_shard_fraction(spec.catalog_size, sharding.shards)
                )
            index_build_s = retrieval.index_build_seconds(
                build_catalog, assets.model.embedding_dim, instance.device
            )

        # Heterogeneous scheduler: a CPU pod pool beside the (GPU) primary
        # fleet plus self-tuning batching. Disabled (None or "off") leaves
        # the deployment call byte-for-byte the single-class one.
        scheduler = active(spec.scheduler)
        auxiliary = None
        batching = BatchingConfig()
        if scheduler is not None:
            batching = BatchingConfig(
                max_batch_size=scheduler.max_batch,
                max_delay_s=scheduler.linger_s,
            )
            if scheduler.cpu_replicas > 0:
                cpu_instance = instance_by_name(scheduler.cpu_instance)
                # Same model object, CPU-calibrated service times: both
                # classes produce identical recommendations, only the
                # latency profile differs.
                cpu_profile = self.registry.profile(
                    spec.model,
                    spec.catalog_size,
                    cpu_instance.device,
                    spec.execution,
                    top_k=spec.top_k,
                    retrieval=retrieval,
                )
                auxiliary = AuxiliaryFleet(
                    instance_type=cpu_instance,
                    replicas=scheduler.cpu_replicas,
                    service_profile=cpu_profile,
                    resident_bytes=assets.resident_bytes,
                )

        # Co-located tenant fleet: every pod hosts every tenant's artifact
        # under the instance's memory budget. Disabled (None) leaves the
        # deployment call byte-for-byte the single-model one.
        tenancy = spec.tenants
        tenant_servings: Optional[List[TenantServing]] = None
        if tenancy is not None:
            # Lazy import: placement reaches back into the planner (which
            # imports this module) for the standalone baseline.
            from repro.tenancy.placement import check_colocation

            tenant_servings = []
            for tenant in tenancy.tenants:
                t_assets = self.registry.assets(
                    tenant.model,
                    spec.catalog_size,
                    instance.device,
                    spec.execution,
                    top_k=spec.top_k,
                )
                version = self._ensure_artifact(t_assets)
                tenant_servings.append(
                    TenantServing(
                        config=tenant,
                        model=t_assets.model,
                        service_profile=t_assets.profile,
                        artifact_version=version,
                        canary_version=(
                            f"{version}+next"
                            if tenant.canary_fraction > 0
                            else None
                        ),
                        resident_bytes=t_assets.resident_bytes,
                        score_bytes_per_item=t_assets.score_bytes_per_item,
                    )
                )
            # Budget check with a per-tenant breakdown; the cluster's
            # generic fit checks re-verify the summed footprint below.
            resident_bytes = check_colocation(instance, tenant_servings)
            score_bytes = max(
                s.score_bytes_per_item for s in tenant_servings
            )

        deployment = cluster.deploy_model(
            name=f"{spec.model}-bench",
            instance_type=instance,
            replicas=spec.hardware.replicas,
            artifact_path=artifact,
            service_profile=service_profile,
            server_profile=server_profile,
            resident_bytes=resident_bytes,
            score_bytes_per_item=score_bytes,
            batching=batching,
            jit_warmup_s=(
                self.JIT_WARMUP_S if assets.execution_effective == "jit" else 0.0
            ),
            load_bytes=resident_bytes,
            telemetry=telemetry,
            sharding=sharding,
            index_build_s=index_build_s,
            auxiliary=auxiliary,
            zones=spec.zones,
            tenants=tenant_servings,
            tenant_fair_depth=tenancy.fair_depth if tenancy else 64,
        )

        workload = SyntheticWorkloadGenerator(
            spec.workload_statistics(),
            seed=int(streams.stream("workload").integers(2**31)),
        )
        collector = MetricsCollector()
        retrieval_facts = {}
        if retrieval is not None:
            index = assets.model.index
            retrieval_facts = {
                "kind": retrieval.kind,
                "nlist": index.logical_nlist,
                "nprobe": index.nprobe,
                "probed_fraction": index.probed_fraction(),
                "index_build_s": index_build_s,
                # Measured on the materialized embedding rows (the
                # i.i.d.-rows proxy of docs/retrieval.md), memoized per
                # (model, catalog, index parameters).
                "recall_at_k": self.registry.measured_recall(
                    spec.model, spec.catalog_size, retrieval, top_k=spec.top_k
                ),
            }
        live: Optional[LiveRun] = None

        def coordinator():
            nonlocal live
            yield deployment.ready_signal
            dispatcher = None
            if scheduler is not None:
                dispatcher = QueryDispatcher(scheduler, telemetry=telemetry)
            service = ClusterIPService(
                simulator, deployment, streams.stream("network"),
                telemetry=telemetry,
                routing=spec.routing,
                top_k=spec.top_k,
                catalog_size=spec.catalog_size,
                dispatcher=dispatcher,
            )
            submit = service.submit
            splitter = None
            if tenancy is not None:
                # The splitter *is* the generator's submit function: the
                # client stream is attributed to tenants without touching
                # the generator or the collector.
                splitter = TrafficSplitter(
                    tenancy, service.submit, simulator, telemetry=telemetry
                )
                submit = splitter.submit
            generator = LoadGenerator(
                simulator=simulator,
                submit=submit,
                session_source=workload.iter_sessions(),
                target_rps=spec.target_rps,
                duration_s=spec.duration_s,
                collector=collector,
                telemetry=telemetry,
                retry_policy=spec.retry,
                retry_rng=(
                    streams.stream("retry") if spec.retry is not None else None
                ),
                slo_deadline_s=spec.slo_deadline_s,
            )
            generator.start()
            live = LiveRun(
                generator=generator,
                collector=collector,
                service=service,
                aggregator=service.aggregator,
                splitter=splitter,
                deployment=deployment,
                started_at=simulator.now,
            )
            # Rollouts anchor at load start, like chaos events.
            for tenant in tenancy.tenants if tenancy is not None else ():
                if tenant.rollout_at_s is None:
                    continue
                rollout = TenantRollout(
                    simulator,
                    deployment,
                    tenant,
                    start_at_s=simulator.now + tenant.rollout_at_s,
                    telemetry=telemetry,
                )
                rollout.schedule()
                live.rollouts.append(rollout)
            if scheduler is not None:
                tuner = None
                if scheduler.tune:
                    fitted = cluster.fit_batching(
                        instance, resident_bytes, score_bytes,
                        BatchingConfig(
                            max_batch_size=2**20,
                            max_delay_s=scheduler.linger_s,
                        ),
                    )
                    tuner = HillClimbTuner(
                        scheduler, batch_cap=fitted.max_batch_size
                    )
                live.scheduler = SchedulerRuntime(
                    simulator, scheduler, deployment, dispatcher, tuner,
                    telemetry=telemetry,
                )
                simulator.spawn(
                    live.scheduler.epoch_process(simulator.now + spec.duration_s)
                )
            if spec.chaos is not None:
                # Installed at load start so event times are relative to
                # the ramp, not to however long provisioning took.
                live.chaos = spec.chaos.install(
                    simulator,
                    cluster=cluster,
                    deployment=deployment,
                    service=service,
                    telemetry=telemetry,
                )

        simulator.spawn(coordinator())
        simulator.run()
        live.servers = [pod.server for pod in deployment.pods if pod.server is not None]
        return self._build_result(spec, assets, live, retrieval_facts, telemetry)

    def _build_result(
        self,
        spec: ExperimentSpec,
        assets: ServingAssets,
        live: LiveRun,
        retrieval_facts: dict,
        telemetry: Optional["Telemetry"] = None,
    ) -> RunResult:
        collector = live.collector
        series = LatencySeries.from_collector(collector)
        execution = assets.execution_effective
        if assets.jit_fell_back:
            execution = "jit-fallback-eager"
        result = RunResult(
            model=spec.model,
            instance_type=spec.hardware.instance_type,
            replicas=spec.hardware.replicas,
            catalog_size=spec.catalog_size,
            target_rps=spec.target_rps,
            duration_s=spec.duration_s,
            execution_mode=execution,
            total_requests=collector.total,
            ok_requests=collector.ok,
            error_requests=collector.errors,
            achieved_rps=collector.achieved_throughput(),
            p50_ms=collector.percentile_ms(50) if collector.ok else None,
            p90_ms=collector.percentile_ms(90) if collector.ok else None,
            p99_ms=collector.percentile_ms(99) if collector.ok else None,
            p90_at_target_ms=series.p90_at_load(spec.target_rps),
            mean_inference_ms=(
                collector.inference.mean() * 1000.0
                if len(collector.inference)
                else None
            ),
            series=series if spec.collect_series else None,
            backpressure_stalls=live.generator.backpressure_stalls,
            resilience=resilience_section(live, spec.retry, spec.chaos),
            overload=overload_section(
                live, spec.slo_deadline_s, spec.admission, spec.routing,
                spec.fallback,
            ),
            cache=cache_section(live, spec.cache),
            sharding=sharding_section(
                live, spec.sharding, replicas_per_shard=spec.hardware.replicas
            ),
            scheduler=live.scheduler.summary() if live.scheduler else None,
            retrieval=retrieval_section(live, spec.retrieval, **retrieval_facts),
            availability=(
                self._availability_section(spec, live) if spec.zones > 1 else None
            ),
            tenancy=tenancy_section(live, spec.duration_s),
        )
        if telemetry is not None:
            from repro.obs.export import stage_breakdown

            report = stage_breakdown(telemetry.trace)
            if report is not None:
                result.stage_breakdown = report.to_dict()
        self._persist_result(spec, result)
        return result

    @staticmethod
    def _availability_section(spec: ExperimentSpec, live: LiveRun) -> dict:
        """The failure-domain report for a ``zones > 1`` run.

        Time-to-recovery per injected zone outage: the interval from the
        correlated crash until the *last* victim pod's readiness probe
        flipped back. ``None`` (infinite) when any victim was still dark
        at run end — e.g. ``restart=none`` chaos.
        """
        pods_per_zone: dict = {}
        by_name = {}
        for pod in live.deployment.pods:
            pods_per_zone[pod.zone] = pods_per_zone.get(pod.zone, 0) + 1
            by_name[pod.name] = pod
        outages = []
        overall_ttr: Optional[float] = None
        for event in live.chaos.zone_outages if live.chaos is not None else []:
            recovered_at: Optional[float] = event["at_s"]
            for name in event["pods"]:
                pod = by_name.get(name)
                if pod is None or not pod.ready or pod.ready_at <= event["at_s"]:
                    recovered_at = None
                    break
                recovered_at = max(recovered_at, pod.ready_at)
            ttr = (
                recovered_at - event["at_s"]
                if recovered_at is not None and event["pods"]
                else None
            )
            if ttr is not None:
                overall_ttr = max(overall_ttr or 0.0, ttr)
            outages.append(
                {
                    "zone": event["zone"],
                    "at_s": event["at_s"],
                    "pods_lost": len(event["pods"]),
                    "restart_after_s": event["restart_after_s"],
                    "time_to_recovery_s": ttr,
                }
            )
        return {
            "zones": spec.zones,
            "pods_per_zone": pods_per_zone,
            "home_zone": live.service.home_zone,
            "cross_zone_legs": live.service.cross_zone_legs,
            "zone_outages": outages,
            "time_to_recovery_s": overall_ttr,
            "load_started_at_s": live.started_at,
        }

    def _persist_result(self, spec: ExperimentSpec, result: RunResult) -> None:
        """Results go to the bucket on termination, as in the paper.

        The path ends in a digest of the whole spec: runs that differ only
        in seed or features keep their own records, and re-running one
        spec replaces its record.
        """
        document = json.dumps(spec_to_dict(spec), sort_keys=True)
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()[:12]
        path = (
            f"results/{spec.model}-c{spec.catalog_size}"
            f"-{spec.hardware.instance_type}-x{spec.hardware.replicas}"
            f"-r{spec.target_rps}-{spec.execution}-{digest}.json"
        )
        payload = dict(asdict(result))
        payload.pop("series", None)
        self.infra.bucket.upload(path, json.dumps(payload).encode("utf-8"))

    def run_repeated(self, spec: ExperimentSpec, repetitions: int = 3) -> RunResult:
        """Paper protocol: run ``repetitions`` times, drop best and worst
        (by p90), return the median run."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        results: List[RunResult] = []
        for repetition in range(repetitions):
            rep_spec = ExperimentSpec(
                **{**asdict_shallow(spec), "seed": spec.seed + repetition}
            )
            results.append(self.run(rep_spec))
        if len(results) < 3:
            return results[0]
        results.sort(key=lambda r: (r.p90_ms if r.p90_ms is not None else float("inf")))
        return results[len(results) // 2]


def asdict_shallow(spec: ExperimentSpec) -> dict:
    """Dataclass fields without deep-copying nested dataclasses."""
    return {name: getattr(spec, name) for name in spec.__dataclass_fields__}
