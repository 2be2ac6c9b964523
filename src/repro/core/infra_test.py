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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.composition import check_composition
from repro.core.features import active, spec_string
from repro.core.registry import GLOBAL_REGISTRY, AssetRegistry
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
    retries: int = 0
    hedges: int = 0
    chaos_events: List[Dict] = field(default_factory=list)
    #: Overload-protection tallies, present when the run had an SLO
    #: deadline, admission control or a fallback tier configured.
    overload: Optional[Dict] = None
    #: Result-cache tallies, present when the run had a cache with
    #: non-zero capacity configured.
    cache: Optional[Dict] = None
    #: Catalog-sharding tallies (fan-outs, partial responses, coverage),
    #: present when the run sharded the catalog (S > 1).
    sharding: Optional[Dict] = None
    #: ANN retrieval tallies (queries, probed lists), present when the run
    #: served with an enabled IVF retrieval mode.
    retrieval: Optional[Dict] = None
    #: Per-tenant routing/shedding tallies, present when the run split
    #: traffic across a tenant fleet (``--tenants``).
    tenancy: Optional[Dict] = None
    #: Retry/hedge/chaos tallies, present when the run had a retry policy
    #: or a chaos schedule configured.
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
        servers = [server]
        submit_target = server.submit
    else:
        server_profile = None
        if any(c is not None for c in (admission, fallback, cache, retrieval)):
            server_profile = ActixProfile(
                admission=admission,
                fallback=fallback,
                cache=cache,
                retrieval=retrieval,
            )
        if sharding is not None:
            # One bare server per shard behind a scatter-gather front;
            # the aggregator charges the fan-out network legs and the
            # merge cost (the figure-2 single-server path has no legs).
            servers = [
                EtudeInferenceServer(
                    simulator=simulator,
                    device=INFRA_TEST_DEVICE,
                    service_profile=assets.profile,
                    rng=streams.stream(f"actix-shard{index}"),
                    profile=server_profile,
                    batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
                    telemetry=telemetry,
                    name=f"etude-shard{index}",
                )
                for index in range(sharding.shards)
            ]
            server = servers[0]
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
        else:
            tenant_servings = None
            if tenants is not None:
                # Every tenant serves the no-op profile: the fleet
                # exercises routing, deadlines and fair shedding only.
                tenant_servings = {
                    t.name: TenantServing(
                        config=t,
                        service_profile=assets.profile,
                        artifact_version=f"infra-{t.model}",
                        canary_version=(
                            f"infra-{t.model}+next"
                            if t.canary_fraction > 0
                            else None
                        ),
                    )
                    for t in tenants.tenants
                }
            server = EtudeInferenceServer(
                simulator=simulator,
                device=INFRA_TEST_DEVICE,
                service_profile=assets.profile,
                rng=streams.stream("actix"),
                profile=server_profile,
                batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
                telemetry=telemetry,
                tenants=tenant_servings,
                tenant_fair_depth=(
                    tenants.fair_depth if tenants is not None else 64
                ),
            )
            servers = [server]
            submit_target = server.submit

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
    controller = None
    if chaos is not None:
        controller = chaos.install(
            simulator, servers=servers, telemetry=telemetry
        )
    simulator.run()

    overload = None
    if slo_deadline_s is not None or admission is not None or fallback is not None:
        overload = {
            "slo_deadline_s": slo_deadline_s,
            "admission": spec_string(admission),
            "fallback": spec_string(fallback),
            "shed_deadline": sum(getattr(s, "shed_deadline", 0) for s in servers),
            "shed_codel": sum(getattr(s, "shed_codel", 0) for s in servers),
            "shed_queue_full": sum(
                getattr(s, "shed_queue_full", 0) for s in servers
            ),
            "degraded_served": sum(
                getattr(s, "degraded_served", 0) for s in servers
            ),
            "degraded_fraction": collector.degraded_fraction,
            "p90_full_ms": collector.percentile_full_ms(90),
            "p90_degraded_ms": collector.percentile_degraded_ms(90),
        }

    cache_section = None
    server_caches = [
        c for c in (getattr(s, "cache", None) for s in servers) if c is not None
    ]
    if cache is not None and cache.enabled and server_caches:
        stats: Dict[str, int] = {}
        for server_cache in server_caches:
            for key, value in server_cache.stats().items():
                stats[key] = stats.get(key, 0) + value
        hits = stats.get("hits_local", 0) + stats.get("hits_remote", 0)
        lookups = hits + stats.get("misses", 0)
        cache_section = {
            "config": cache.spec_string(),
            **stats,
            "hit_rate": hits / lookups if lookups else 0.0,
            "hit_fraction": collector.cache_hit_fraction,
            "p90_hit_ms": collector.percentile_hit_ms(90),
            "p90_miss_ms": collector.percentile_miss_ms(90),
        }

    sharding_section = None
    if aggregator is not None:
        sharding_section = {
            "config": sharding.spec_string(),
            **aggregator.stats(),
            "per_shard_completed": [s.completed for s in servers],
        }

    retrieval_section = None
    if retrieval is not None:
        retrieval_section = {
            "config": retrieval.spec_string(),
            "nprobe": retrieval.nprobe,
            "ann_queries": sum(
                getattr(s, "ann_queries", 0) for s in servers
            ),
            "ann_probed_lists": sum(
                getattr(s, "ann_probed_lists", 0) for s in servers
            ),
        }

    tenancy_section = None
    if splitter is not None:
        shed_by_tenant: Dict[str, int] = {}
        for s in servers:
            for name, count in (getattr(s, "shed_by_tenant", None) or {}).items():
                shed_by_tenant[name] = shed_by_tenant.get(name, 0) + count
        tenancy_section = splitter.summary(
            duration_s=duration_s, shed_by_tenant=shed_by_tenant
        )

    chaos_events = controller.fired if controller is not None else []
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
        retries=generator.retries,
        hedges=generator.hedges,
        chaos_events=chaos_events,
        resilience=(
            {
                "retries": generator.retries,
                "hedges": generator.hedges,
                "chaos_events": chaos_events,
            }
            if retry_policy is not None or chaos is not None
            else None
        ),
        overload=overload,
        cache=cache_section,
        sharding=sharding_section,
        retrieval=retrieval_section,
        tenancy=tenancy_section,
    )
