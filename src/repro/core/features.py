"""The opt-in features of a run, declared once.

Each entry of :data:`FEATURES` ties one optional setting to every surface
it appears on: the CLI flag (``repro.cli`` adds it from the entry), the
:class:`~repro.core.spec.ExperimentSpec` field and spec-file key, the
parser that turns its text into a value, the ``run_infra_test`` argument
when the Figure 2 test supports it, and the result section with the
renderer of its report line. Adding a feature means one entry here, one
config class with ``parse``/``spec_string``, and an
:data:`~repro.cluster.composition.INCOMPATIBLE` row if it cannot share a
deployment with another feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.routing import RoutingPolicy
from repro.loadgen.retry import RetryPolicy
from repro.scheduler.config import SchedulerConfig
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig


def _config(cls) -> Callable[[Any], Any]:
    """Parse spec strings with ``cls.parse``; pass other values through."""
    return lambda value: cls.parse(value) if isinstance(value, str) else value


def _deadline(value) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise ValueError("slo_deadline_s must be positive")
    return seconds


def _zones(value) -> int:
    zones = int(value)
    if zones < 1:
        raise ValueError("zones must be >= 1")
    return zones


@dataclass(frozen=True)
class Feature:
    """One opt-in setting across CLI, spec, spec file and report."""

    #: The ``ExperimentSpec`` field.
    name: str
    #: The CLI flag and its help text.
    flag: str
    help: str
    #: Text (or spec-file value) -> typed value.
    parse: Callable[[Any], Any]
    metavar: str = "SPEC"
    #: Value of the bare flag; the flag then takes an optional argument.
    const: Optional[str] = None
    #: Spec-file key, when it differs from ``name``.
    key: Optional[str] = None
    #: The ``ExperimentSpec`` default, which spec files leave out.
    default: Any = None
    #: An enabled == False value means the feature is off (None).
    none_when_off: bool = False
    #: ``run_infra_test`` keyword (None: the infra test lacks the feature).
    infra_arg: Optional[str] = None
    #: ``RunResult``/``InfraTestResult`` attribute and its report line.
    section: Optional[str] = None
    render: Optional[Callable[[Dict], str]] = None

    @property
    def spec_key(self) -> str:
        return self.key or self.name

    def coerce(self, value):
        """The typed value of a flag, spec-file entry or spec field."""
        value = self.parse(value)
        if self.none_when_off and value is not None and not value.enabled:
            return None
        return value


def _render_resilience(resilience: Dict) -> str:
    return (
        f"  resilience: {resilience['retries']} retries "
        f"({resilience['retry_successes']} recovered, "
        f"{resilience['retry_exhausted']} exhausted), "
        f"{resilience['hedges']} hedges, "
        f"{len(resilience['chaos_events'])} chaos events"
    )


def _render_overload(overload: Dict) -> str:
    """Shed and degraded tallies, plus routing ejections when any.

    The fallback count is the tier's answers on the current pods; the
    degraded share counts every degraded 200 the client saw, fallback
    answers and partial shard merges alike.
    """
    shed = (
        overload["shed_deadline"]
        + overload["shed_codel"]
        + overload["shed_queue_full"]
    )
    p90_degraded = overload.get("p90_degraded_ms")
    text = (
        f"  overload: {shed} shed "
        f"(deadline={overload['shed_deadline']} "
        f"codel={overload['shed_codel']} "
        f"queue={overload['shed_queue_full']}), "
        f"{overload['degraded_served']} fallback-tier 200s; "
        f"{overload['degraded_fraction'] * 100:.1f}% of 200s degraded "
        "(fallback or partial shard merge"
        + (f", p90={p90_degraded:.1f} ms" if p90_degraded is not None else "")
        + ")"
    )
    if overload.get("ejections"):
        text += (
            f"\n  routing: {overload['ejections']} pod ejections, "
            f"{overload['probe_recoveries']} probe recoveries"
        )
    return text


def _render_cache(cache: Dict) -> str:
    """Lookup hit rate (sharded runs look up once per shard) and the
    share of the client's 200s the cache answered."""
    lookups = cache["hits_local"] + cache["hits_remote"] + cache["misses"]
    p90_hit = cache.get("p90_hit_ms")
    p90_miss = cache.get("p90_miss_ms")
    split = ""
    if p90_hit is not None and p90_miss is not None:
        split = f", p90 hit/miss={p90_hit:.2f}/{p90_miss:.2f} ms"
    return (
        f"  cache[{cache['config']}]: "
        f"{cache['hit_rate'] * 100:.1f}% of {lookups} lookups hit "
        f"(local={cache['hits_local']} remote={cache['hits_remote']} "
        f"miss={cache['misses']}), "
        f"{cache['hit_fraction'] * 100:.1f}% of 200s from cache, "
        f"{cache['coalesced']} coalesced, "
        f"{cache['evictions']} evicted"
        + split
    )


def _render_sharding(sharding: Dict) -> str:
    coverage = sharding.get("mean_coverage")
    coverage_text = (
        f", mean coverage={coverage * 100:.1f}%" if coverage is not None else ""
    )
    return (
        f"  sharding[{sharding['config']}]: "
        f"{sharding.get('fanouts', 0)} fan-outs, "
        f"{sharding.get('merged_ok', 0)} merged 200s, "
        f"{sharding.get('partial_responses', 0)} partial, "
        f"{sharding.get('failed_fanouts', 0)} failed"
        + coverage_text
    )


def _render_retrieval(retrieval: Dict) -> str:
    recall = retrieval.get("recall_at_k")
    build = retrieval.get("index_build_s")
    extras = ""
    if recall is not None:
        extras += f", recall@k={recall:.3f}"
    if build is not None:
        extras += f", index build={build:.2f} s/pod"
    return (
        f"  retrieval[{retrieval['config']}]: "
        f"{retrieval.get('ann_queries', 0)} ANN queries, "
        f"{retrieval.get('ann_probed_lists', 0)} lists probed"
        + extras
    )


def _render_scheduler(scheduler: Dict) -> str:
    tuner = scheduler.get("tuner")
    extras = ""
    if tuner is not None:
        extras = (
            f"; tuner {tuner['moves']} moves/{tuner['epochs']} epochs -> "
            f"batch {tuner['max_batch']}/"
            f"{tuner['linger_s'] * 1e3:g} ms"
            f"{' (converged)' if tuner['converged'] else ''}"
        )
    return (
        f"  scheduler[{scheduler['config']}]: "
        f"{scheduler['routed_cpu']} cpu / {scheduler['routed_gpu']} gpu "
        f"({scheduler['offload_short_session']} short, "
        f"{scheduler['offload_tight_slack']} tight-slack)"
        + extras
    )


def render_availability(availability: Dict) -> str:
    """The failure-domain line of ``run`` and ``drill`` reports."""
    per_zone = availability.get("pods_per_zone", {})
    spread = " ".join(f"{zone}={count}" for zone, count in sorted(per_zone.items()))
    outages = availability.get("zone_outages", [])
    ttr = availability.get("time_to_recovery_s")
    ttr_text = (
        f", TTR={ttr:.1f} s" if ttr is not None
        else ", never recovered" if outages else ""
    )
    return (
        f"  zones[{availability['zones']}]: pods {spread}, "
        f"{availability.get('cross_zone_legs', 0)} cross-zone legs, "
        f"{len(outages)} outage(s)"
        + ttr_text
    )


def _render_tenancy(tenancy: Dict) -> str:
    lines = [f"  tenants[{tenancy['config']}]:"]
    for name, row in tenancy.get("tenants", {}).items():
        p90 = row.get("p90_ms")
        slo = row.get("slo_ms")
        slo_text = ""
        if slo is not None:
            met = row.get("slo_met")
            slo_text = f" slo={slo:g}ms[{'met' if met else 'MISSED'}]"
        canary = (
            f", {row['canary_requests']} canary"
            if row.get("canary_requests")
            else ""
        )
        hits = (
            f", {row['cache_hits']} cache hits" if row.get("cache_hits") else ""
        )
        lines.append(
            f"    {name}({row['model']}): {row['requests']} req "
            f"({row.get('rps', 0) or 0:g} rps), ok={row['ok']} "
            f"err={row['errors']} shed={row['shed']}, "
            f"p90={'n/a' if p90 is None else f'{p90:.1f} ms'}"
            + slo_text + canary + hits
        )
    for name, row in tenancy.get("shadow", {}).items():
        lines.append(
            f"    {name}({row['model']}, shadow): "
            f"{row['mirrored']} mirrored, {row['completed']} scored, "
            f"{row['shed']} shed (0 client-visible)"
        )
    for rollout in tenancy.get("rollouts", []):
        lines.append(
            f"    rollout[{rollout['tenant']}]: "
            f"{rollout['pods_updated']} pods updated, "
            f"completed={rollout['completed']}"
        )
    return "\n".join(lines)


#: Every opt-in feature by ``ExperimentSpec`` field, in CLI and report order.
FEATURES: Dict[str, Feature] = {
    feature.name: feature
    for feature in (
        Feature(
            "retry", "--retry", const="", parse=_config(RetryPolicy),
            infra_arg="retry_policy",
            section="resilience", render=_render_resilience,
            help="client retries with backoff; optional SPEC like "
            "'max=3,base=0.05,cap=1,mult=2,jitter=0.5,hedge=0.2' "
            "(bare --retry uses the defaults)",
        ),
        Feature(
            "chaos", "--chaos", parse=_config(ChaosSchedule), infra_arg="chaos",
            help="fault-injection schedule: comma-separated kind@seconds "
            "events, e.g. 'crash@60:restart=20,slow@90:factor=3:dur=30,"
            "netdelay@30:add=0.005:dur=20' (times relative to load start)",
        ),
        Feature(
            "slo_deadline_s", "--slo-deadline", metavar="SECONDS",
            parse=_deadline, infra_arg="slo_deadline_s",
            help="per-request latency SLO; requests are stamped with "
            "sent_at + SECONDS so --admission can shed doomed work",
        ),
        Feature(
            "admission", "--admission", const="",
            parse=_config(AdmissionPolicy), infra_arg="admission",
            section="overload", render=_render_overload,
            help="deadline-aware admission control on the Actix server; SPEC "
            "like 'codel,slack=0.01,target=0.005,interval=0.1,depth=64' "
            "(disciplines: fifo, lifo, codel; bare --admission = FIFO defaults)",
        ),
        Feature(
            "fallback", "--fallback", const="",
            parse=_config(FallbackConfig), infra_arg="fallback",
            help="graceful degradation: shed requests answer as fast degraded "
            "200s from a popularity top-k tier; SPEC like 'budget=0.002,topk=21'",
        ),
        Feature(
            "routing", "--routing", parse=_config(RoutingPolicy),
            help="health-aware service routing; SPEC like "
            "'lor,eject=3,cooldown=15,lag=2' "
            "(disciplines: rr, lor; eject enables the circuit breaker)",
        ),
        Feature(
            "cache", "--cache", const="", parse=_config(CacheConfig),
            infra_arg="cache", section="cache", render=_render_cache,
            help="session-prefix result cache on the Actix server; SPEC like "
            "'lfu,capacity=8192,window=4,ttl=30,remote=65536,rttl=300' "
            "(policies: lru, lfu, segmented; bare --cache = LRU defaults)",
        ),
        Feature(
            "sharding", "--shards", key="shards",
            parse=_config(ShardingConfig), infra_arg="sharding",
            section="sharding", render=_render_sharding,
            help="catalog sharding with scatter-gather top-k; SPEC like "
            "'4' or '4,partial=off' (replica counts are then per shard; "
            "S=1 is the unsharded baseline)",
        ),
        Feature(
            "retrieval", "--retrieval", const="ivf",
            parse=_config(RetrievalConfig), infra_arg="retrieval",
            section="retrieval", render=_render_retrieval,
            help="ANN candidate retrieval instead of the exact catalog scan; "
            "SPEC like 'ivf:nlist=1024,nprobe=32' or 'exact' "
            "(bare --retrieval = IVF defaults; default is the exact scan)",
        ),
        Feature(
            "scheduler", "--scheduler", const="",
            parse=_config(SchedulerConfig),
            section="scheduler", render=_render_scheduler,
            help="heterogeneous CPU/GPU scheduler: a CPU pod pool for "
            "short-session/tight-slack requests beside the GPU batch path, "
            "with online hill-climbed batching; SPEC like "
            "'cpu=1,short=4,target=50' (bare --scheduler = one CPU pod, "
            "tuner on; 'off' disables)",
        ),
        Feature(
            "zones", "--zones", metavar="N", parse=_zones, default=1,
            section="availability", render=render_availability,
            help="spread the fleet over N failure domains (anti-affine "
            "replica placement, cross-zone network legs charged, zone@T "
            "chaos meaningful; default 1 = the paper's single domain)",
        ),
        Feature(
            "tenants", "--tenants", parse=_config(TenancyConfig),
            none_when_off=True, infra_arg="tenants",
            section="tenancy", render=_render_tenancy,
            help="co-locate a multi-tenant model fleet on the deployment; "
            "SPEC is ';'-separated name=model:weight segments with options "
            "slo=MS, shadow, canary=FRAC, burst=F, rollout=T plus a fleet "
            "fair=N segment, e.g. "
            "'home=gru4rec:3,slo=60;search=narm:1,slo=120' "
            "(default: single-model serving)",
        ),
    )
}


def active(config):
    """``config`` when it is set and enabled, else None (the off state)."""
    if config is None or not getattr(config, "enabled", True):
        return None
    return config


def spec_string(config) -> Optional[str]:
    """``config.spec_string()``, or None when the feature is unset."""
    return None if config is None else config.spec_string()


def enabled_features(spec) -> Dict[str, bool]:
    """Which features ``spec`` turns on (for the composition check)."""
    return {
        name: getattr(spec, name) != feature.default
        and active(getattr(spec, name)) is not None
        for name, feature in FEATURES.items()
    }


def report_lines(result) -> List[str]:
    """The per-feature report lines of a ``RunResult``/``InfraTestResult``."""
    lines = []
    for feature in FEATURES.values():
        if feature.render is None:
            continue
        section = getattr(result, feature.section, None)
        if section is not None:
            lines.append(feature.render(section))
    return lines


__all__ = [
    "FEATURES",
    "Feature",
    "active",
    "enabled_features",
    "report_lines",
    "spec_string",
]
