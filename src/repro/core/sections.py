"""The feature sections of ``RunResult`` and ``InfraTestResult``, built once.

Both ``ExperimentRunner.run`` and ``run_infra_test`` end with the same
kind of live objects, gathered in a :class:`LiveRun`, and read each
feature's section off them with one builder here. A builder returns None
when its feature is off. Keys only one command knows are passed in by that
command: the run's index facts and replicas per shard, the infra test's
per-shard completions and ``nprobe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.features import active, spec_string

if TYPE_CHECKING:
    from repro.cluster.chaos import ChaosController
    from repro.cluster.kubernetes import ModelDeployment
    from repro.cluster.service import ClusterIPService
    from repro.loadgen.generator import LoadGenerator
    from repro.metrics.collector import MetricsCollector
    from repro.scheduler.runtime import SchedulerRuntime
    from repro.serving.actix import EtudeInferenceServer
    from repro.sharding.gather import ScatterGatherAggregator
    from repro.tenancy.rollout import TenantRollout
    from repro.tenancy.split import TrafficSplitter


@dataclass
class LiveRun:
    """The live objects of one run, read after the simulation ends."""

    generator: "LoadGenerator"
    collector: "MetricsCollector"
    #: The Actix servers answering at the end. A restarted pod starts
    #: fresh counters, so pre-crash tallies are not in the sections.
    servers: List["EtudeInferenceServer"] = field(default_factory=list)
    service: Optional["ClusterIPService"] = None
    aggregator: Optional["ScatterGatherAggregator"] = None
    chaos: Optional["ChaosController"] = None
    splitter: Optional["TrafficSplitter"] = None
    rollouts: List["TenantRollout"] = field(default_factory=list)
    scheduler: Optional["SchedulerRuntime"] = None
    deployment: Optional["ModelDeployment"] = None
    #: Virtual time the load started; chaos and rollouts anchor here.
    started_at: float = 0.0


def resilience_section(live: LiveRun, retry, chaos) -> Optional[Dict]:
    """Retry, hedge and chaos tallies."""
    if retry is None and chaos is None:
        return None
    generator = live.generator
    return {
        "retry_policy": spec_string(retry),
        "retries": generator.retries,
        "hedges": generator.hedges,
        "retry_successes": generator.retry_successes,
        "retry_exhausted": generator.retry_exhausted,
        "chaos_schedule": spec_string(chaos),
        "chaos_events": live.chaos.fired if live.chaos is not None else [],
    }


def overload_section(
    live: LiveRun, slo_deadline_s, admission, routing, fallback
) -> Optional[Dict]:
    """Shed, degraded and ejection tallies of the overload protection."""
    if all(value is None for value in (slo_deadline_s, admission, routing, fallback)):
        return None
    servers, service, collector = live.servers, live.service, live.collector
    return {
        "slo_deadline_s": slo_deadline_s,
        "admission": spec_string(admission),
        "routing": spec_string(routing),
        "fallback": spec_string(fallback),
        "shed_deadline": sum(s.shed_deadline for s in servers),
        "shed_codel": sum(s.shed_codel for s in servers),
        "shed_queue_full": sum(s.shed_queue_full for s in servers),
        "degraded_served": sum(s.degraded_served for s in servers),
        "degraded_fraction": collector.degraded_fraction,
        "ejections": service.ejections if service is not None else 0,
        "probe_recoveries": service.probe_recoveries if service is not None else 0,
        "p90_full_ms": collector.percentile_full_ms(90),
        "p90_degraded_ms": collector.percentile_degraded_ms(90),
    }


def cache_section(live: LiveRun, config) -> Optional[Dict]:
    """Both cache tiers' tallies summed over the servers.

    ``hit_rate`` counts cache lookups, one per shard a request fans out
    to; ``hit_fraction`` counts the client's 200s answered from a cache.
    """
    if active(config) is None:
        return None
    tallies = {
        "hits_local": 0, "hits_remote": 0, "misses": 0,
        "fills": 0, "coalesced": 0, "evictions": 0, "expirations": 0,
    }
    remote_entries = None
    for server in live.servers:
        if server.cache is None:
            continue
        for key, value in server.cache.stats().items():
            tallies[key] += value
        if server.cache.remote is not None:
            remote_entries = len(server.cache.remote)
    hits = tallies["hits_local"] + tallies["hits_remote"]
    lookups = hits + tallies["misses"]
    return {
        "config": config.spec_string(),
        **tallies,
        "hit_rate": hits / lookups if lookups else 0.0,
        "hit_fraction": live.collector.cache_hit_fraction,
        "remote_entries": remote_entries,
        "p90_hit_ms": live.collector.percentile_hit_ms(90),
        "p90_miss_ms": live.collector.percentile_miss_ms(90),
    }


def sharding_section(live: LiveRun, config, **extra: Any) -> Optional[Dict]:
    """The scatter-gather aggregator's fan-out and coverage tallies."""
    if active(config) is None:
        return None
    return {"config": config.spec_string(), **extra, **live.aggregator.stats()}


def retrieval_section(live: LiveRun, config, **extra: Any) -> Optional[Dict]:
    """ANN query and probed-list tallies summed over the servers."""
    if active(config) is None:
        return None
    return {
        "config": config.spec_string(),
        **extra,
        "ann_queries": sum(s.ann_queries for s in live.servers),
        "ann_probed_lists": sum(s.ann_probed_lists for s in live.servers),
    }


def tenancy_section(live: LiveRun, duration_s: float) -> Optional[Dict]:
    """Per-tenant routing, shedding and rollout tallies."""
    if live.splitter is None:
        return None
    shed_by_tenant: Dict[str, int] = {}
    for server in live.servers:
        for name, count in server.shed_by_tenant.items():
            shed_by_tenant[name] = shed_by_tenant.get(name, 0) + count
    rollouts = [rollout.summary() for rollout in live.rollouts]
    return live.splitter.summary(
        duration_s=duration_s,
        shed_by_tenant=shed_by_tenant,
        rollouts=rollouts or None,
    )

