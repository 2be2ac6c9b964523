"""The serving-infrastructure test of Figure 2.

"In order to measure the serving performance of TorchServe independent of
the model inference overhead, we deploy TorchServe on a 2 vCPU e2 machine
with 2GB of memory, and implement a Python model that returns an empty
response and does not conduct any computation. Next, we configure our load
generator to ramp up to 1,000 requests per second over the duration of ten
minutes, and measure the response latencies. We deploy our Actix-based
inference server analogously."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.composition import check_composition
from repro.core.features import active
from repro.core.registry import GLOBAL_REGISTRY, AssetRegistry
from repro.core.sections import (
    LiveRun,
    cache_section,
    overload_section,
    resilience_section,
    retrieval_section,
    sharding_section,
    tenancy_section,
)
from repro.hardware.device import DeviceModel
from repro.loadgen.generator import LoadGenerator
from repro.loadgen.retry import RetryPolicy
from repro.metrics.collector import MetricsCollector
from repro.metrics.results import LatencySeries
from repro.serving.actix import EtudeInferenceServer
from repro.serving.admission import AdmissionPolicy
from repro.serving.batching import BatchingConfig
from repro.serving.fallback import FallbackConfig
from repro.serving.profiles import ActixProfile
from repro.serving.torchserve import TorchServeServer
from repro.sharding.config import ShardingConfig
from repro.sharding.gather import ScatterGatherAggregator
from repro.tenancy.config import TenancyConfig
from repro.tenancy.fleet import TenantServing
from repro.tenancy.split import TrafficSplitter
from repro.hardware.latency_model import NetworkHop
from repro.simulation import RandomStreams, Simulator
from repro.workload.statistics import WorkloadStatistics
from repro.workload.synthetic import SyntheticWorkloadGenerator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

#: The small machine the infra test runs on (2 vCPUs, 2 GB).
INFRA_TEST_DEVICE = DeviceModel(
    name="cpu-e2-small",
    kind="cpu",
    flops_per_s=2.0e10,
    weight_bandwidth=4.5e9,
    activation_bandwidth=4.5e9,
    launch_overhead_s=5.0e-6,
    per_request_overhead_s=1.5e-4,
    memory_bytes=2e9,
    concurrent_workers=2,
    shared_bandwidth=1.2e10,
)


@dataclass
class InfraTestResult:
    """Outcome of one Figure 2 run."""

    server: str
    target_rps: int
    duration_s: float
    total: int
    ok: int
    errors: int
    p50_ms: Optional[float]
    p90_ms: Optional[float]
    p99_ms: Optional[float]
    series: LatencySeries
    #: The feature sections, shaped as ``RunResult``'s (built by
    #: ``repro.core.sections``); None when the feature is off.
    overload: Optional[Dict] = None
    cache: Optional[Dict] = None
    sharding: Optional[Dict] = None
    retrieval: Optional[Dict] = None
    tenancy: Optional[Dict] = None
    resilience: Optional[Dict] = None

    @property
    def error_rate(self) -> float:
        return self.errors / self.total if self.total else 0.0


def run_infra_test(
    server_kind: str,
    target_rps: int = 1000,
    duration_s: float = 600.0,
    seed: int = 1234,
    registry: Optional[AssetRegistry] = None,
    telemetry: Optional["Telemetry"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosSchedule] = None,
    slo_deadline_s: Optional[float] = None,
    admission: Optional[AdmissionPolicy] = None,
    fallback: Optional[FallbackConfig] = None,
    cache: Optional[CacheConfig] = None,
    sharding: Optional[ShardingConfig] = None,
    retrieval: Optional[RetrievalConfig] = None,
    tenants: Optional[TenancyConfig] = None,
) -> InfraTestResult:
    """Run the no-inference serving test with one of the two stacks.

    ``telemetry`` (optional) records spans + metrics for the run; only the
    Actix stack is instrumented (see ``docs/observability.md``).
    ``retry_policy`` enables client retries/hedging; ``chaos`` injects
    faults against the single bare server (crashes recover in place).
    ``slo_deadline_s`` stamps each request with a deadline; ``admission``
    and ``fallback`` configure the Actix server's overload protection
    (see ``docs/overload.md``); ``cache`` configures its session-prefix
    result cache (see ``docs/caching.md``); ``retrieval`` stamps the ANN
    retrieval descriptor on it (the no-op model does no scoring, so this
    exercises only the per-request bookkeeping — see ``docs/retrieval.md``).
    ``tenants`` splits the client stream across a tenant fleet on the
    single bare server — every tenant serves the no-op profile, so this
    validates routing proportions, per-tenant deadlines and weighted-fair
    shedding without model inference (see ``docs/tenancy.md``).
    """
    if server_kind not in ("torchserve", "actix"):
        raise ValueError("server_kind must be 'torchserve' or 'actix'")
    retrieval, tenants, sharding = map(active, (retrieval, tenants, sharding))
    if server_kind != "actix":
        # TorchServe has no fault hooks, admission, cache or scatter path.
        for name, value in (
            ("chaos injection", chaos),
            ("admission control", admission),
            ("the fallback tier", fallback),
            ("the result cache", cache),
            ("catalog sharding", sharding),
            ("ANN retrieval", retrieval),
            ("a tenant fleet", tenants),
        ):
            if value is not None:
                raise ValueError(f"{name} is an Actix-server feature")
    # Retrieval here only stamps a descriptor on the no-op model (no index
    # is built), so of the composition matrix only this pair applies.
    check_composition(
        {"tenants": tenants is not None, "sharding": sharding is not None},
        ValueError,
    )
    registry = registry or GLOBAL_REGISTRY
    assets = registry.assets("noop", 1, INFRA_TEST_DEVICE, "eager", top_k=1)

    simulator = Simulator()
    streams = RandomStreams(seed)
    if telemetry is not None:
        telemetry.bind(simulator)
    aggregator = None
    if server_kind == "torchserve":
        server = TorchServeServer(
            simulator=simulator,
            device=INFRA_TEST_DEVICE,
            service_profile=assets.profile,
            rng=streams.stream("torchserve"),
            vcpus=2.0,
        )
        # No fault hooks and none of the Actix server's tallies.
        servers = []
        submit_target = server.submit
    else:
        tenant_servings = None
        if tenants is not None:
            # Every tenant serves the no-op profile: the fleet exercises
            # routing, deadlines and fair shedding only.
            tenant_servings = {
                t.name: TenantServing(
                    config=t,
                    service_profile=assets.profile,
                    artifact_version=f"infra-{t.model}",
                    canary_version=(
                        f"infra-{t.model}+next" if t.canary_fraction > 0 else None
                    ),
                )
                for t in tenants.tenants
            }
        # One bare server, or one per shard behind a scatter-gather front.
        servers = [
            EtudeInferenceServer(
                simulator=simulator,
                device=INFRA_TEST_DEVICE,
                service_profile=assets.profile,
                rng=streams.stream(f"actix-shard{index}" if sharding else "actix"),
                profile=ActixProfile(
                    admission=admission,
                    fallback=fallback,
                    cache=cache,
                    retrieval=retrieval,
                ),
                batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
                telemetry=telemetry,
                name=f"etude-shard{index}" if sharding else "etude-server",
                tenants=tenant_servings,
                tenant_fair_depth=tenants.fair_depth if tenants else 64,
            )
            for index in range(sharding.shards if sharding else 1)
        ]
        submit_target = servers[0].submit
        if sharding is not None:
            # The aggregator charges the fan-out network legs and the
            # merge cost (the figure-2 single-server path has no legs).
            hop = NetworkHop()
            net_rng = streams.stream("shard-net")
            aggregator = ScatterGatherAggregator(
                simulator=simulator,
                config=sharding,
                shard_submits=[shard.submit for shard in servers],
                network_delay=lambda: hop.sample(net_rng),
                top_k=1,
                telemetry=telemetry,
            )
            submit_target = aggregator.scatter

    splitter = None
    if tenants is not None:
        splitter = TrafficSplitter(
            tenants, submit_target, simulator, telemetry=telemetry
        )
        submit_target = splitter.submit

    workload = SyntheticWorkloadGenerator(
        WorkloadStatistics(catalog_size=10_000, alpha_length=1.85, alpha_clicks=1.35),
        seed=seed,
    )
    collector = MetricsCollector()
    generator = LoadGenerator(
        simulator=simulator,
        submit=submit_target,
        session_source=workload.iter_sessions(),
        target_rps=target_rps,
        duration_s=duration_s,
        collector=collector,
        telemetry=telemetry,
        retry_policy=retry_policy,
        retry_rng=(
            streams.stream("retry") if retry_policy is not None else None
        ),
        slo_deadline_s=slo_deadline_s,
    )
    generator.start()
    live = LiveRun(
        generator=generator,
        collector=collector,
        servers=servers,
        aggregator=aggregator,
        splitter=splitter,
    )
    if chaos is not None:
        live.chaos = chaos.install(simulator, servers=servers, telemetry=telemetry)
    simulator.run()

    return InfraTestResult(
        server=server_kind,
        target_rps=target_rps,
        duration_s=duration_s,
        total=collector.total,
        ok=collector.ok,
        errors=collector.errors,
        p50_ms=collector.percentile_ms(50) if collector.ok else None,
        p90_ms=collector.percentile_ms(90) if collector.ok else None,
        p99_ms=collector.percentile_ms(99) if collector.ok else None,
        series=LatencySeries.from_collector(collector),
        resilience=resilience_section(live, retry_policy, chaos),
        overload=overload_section(live, slo_deadline_s, admission, None, fallback),
        cache=cache_section(live, cache),
        sharding=sharding_section(
            live, sharding, per_shard_completed=[s.completed for s in servers]
        ),
        retrieval=retrieval_section(
            live, retrieval, nprobe=retrieval.nprobe if retrieval else None
        ),
        tenancy=tenancy_section(live, duration_s),
    )
