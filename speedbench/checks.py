"""Virtual-clock guards: run fingerprints, invariants and activity checks.

The benchmark times the *wall* clock. These checks pin the *virtual*
clock: a change that makes the simulator faster must leave every
modelled latency and tally exactly as it was. Each function returns a
list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

#: RunResult sections that only exist when their feature is configured.
SECTIONS = (
    "resilience", "overload", "cache", "sharding", "retrieval",
    "scheduler", "availability", "tenancy",
)

#: Share of OK responses the serve-fleet result cache must answer.
FLEET_HIT_SHARE_BAND = (0.10, 0.50)


def canonical(value: Any) -> Any:
    """JSON-safe form in which every float keeps its exact bits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return canonical(value.item())
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def digest(value: Any) -> str:
    payload = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def run_outputs(result) -> Dict[str, Any]:
    """The virtual outputs of one RunResult, from its public fields."""
    series = result.series
    outputs = {
        "total": result.total_requests,
        "ok": result.ok_requests,
        "errors": result.error_requests,
        "achieved_rps": result.achieved_rps,
        "p50_ms": result.p50_ms,
        "p90_ms": result.p90_ms,
        "p99_ms": result.p99_ms,
        "p90_at_target_ms": result.p90_at_target_ms,
        "mean_inference_ms": result.mean_inference_ms,
        "backpressure_stalls": result.backpressure_stalls,
        "execution_mode": result.execution_mode,
        "series": None if series is None else {
            "offered": series.offered_rps,
            "ok": series.ok,
            "errors": series.errors,
            "p90_ms": series.p90_ms,
        },
    }
    for name in SECTIONS:
        outputs[name] = getattr(result, name)
    return outputs


def plan_outputs(plans: Dict[str, Any]) -> Dict[str, Any]:
    """The chosen option table of a planner sweep, with each run's outputs."""
    table = {}
    for model, plan in sorted(plans.items()):
        cheapest = plan.cheapest()
        table[model] = {
            "options": [
                {
                    "instance": option.instance_type,
                    "replicas": option.replicas,
                    "shards": option.shards,
                    "cost": option.monthly_cost_usd,
                    "retrieval": option.retrieval,
                    "recall": option.recall,
                    "scheduler": option.scheduler,
                    "run": run_outputs(option.result),
                }
                for option in plan.options
            ],
            "infeasible": dict(plan.infeasible),
            "cheapest": None if cheapest is None else [
                cheapest.instance_type, cheapest.replicas, cheapest.shards,
                cheapest.monthly_cost_usd,
            ],
        }
    return table


def plan_fingerprint(plans: Dict[str, Any]) -> str:
    return digest(plan_outputs(plans))


# -- invariants ---------------------------------------------------------------


def run_invariants(result, collector=None, caches: Sequence = ()) -> List[str]:
    """Conservation and ordering laws every RunResult must satisfy.

    ``collector`` is the run's MetricsCollector and ``caches`` every
    result cache the run built, when captured: the collector gives the
    exact minimum and maximum latency and counts cache-answered responses,
    which must match the caches' own hit tallies.
    """
    failures = []
    if result.series is not None:
        sent = sum(result.series.offered_rps)
        if sent != result.ok_requests + result.error_requests:
            failures.append(
                f"sent {sent} != ok {result.ok_requests} + errors {result.error_requests}"
            )
    if result.ok_requests:
        chain = [result.p50_ms, result.p90_ms, result.p99_ms]
        if collector is not None:
            chain = [collector.overall.min() * 1000.0, *chain, collector.overall.max() * 1000.0]
        if any(v is None for v in chain) or chain != sorted(chain):
            failures.append(f"latency order broken: {chain}")
    cache = result.cache
    if cache is not None:
        if cache["fills"] > cache["misses"]:
            failures.append("cache fills exceed leader misses")
        if collector is not None and caches:
            # Crashed pods' caches count too, so sum every instance built.
            tallied = sum(c.hits_local + c.hits_remote for c in caches)
            if collector.cache_hits != tallied:
                failures.append(
                    f"{collector.cache_hits} cache-answered responses != {tallied} cache hits"
                )
    return failures


def traced_cache_invariants(counts: Dict[str, int], caches: Sequence) -> List[str]:
    """Counted lookups against every cache instance's own tallies.

    Every local lookup is a local hit, a coalesced follower or a leader
    miss (the benchmark's fleet has no remote tier), summed over all pods
    ever built, crashed ones included.
    """
    lookups = counts.get("cache.lookups", 0)
    hits = counts.get("cache.lookups.hits", 0)
    tallied_hits = sum(c.hits_local for c in caches)
    tallied = sum(c.hits_local + c.misses + c.coalesced for c in caches)
    failures = []
    if hits != tallied_hits:
        failures.append(f"counted cache hits {hits} != tallied {tallied_hits}")
    if lookups != tallied:
        failures.append(f"counted cache lookups {lookups} != hits + misses + coalesced {tallied}")
    return failures


# -- layer-activity guards ----------------------------------------------------


def guard_serve_steady(results: Sequence, counts: Dict[str, int]) -> List[str]:
    """The default path: no model inference and no cache anywhere."""
    failures = []
    if counts.get("models.recommend", 0):
        failures.append(f"{counts['models.recommend']} recommend calls (expected 0)")
    if counts.get("cache.lookups", 0) or any(r.cache is not None for r in results):
        failures.append("the result cache was consulted (expected no cache)")
    return failures


def guard_serve_fleet(results: Sequence, counts: Dict[str, int]) -> List[str]:
    """Admission, fallback, retries, cache and every tenant did work."""
    failures = []
    for result in results:
        overload = result.overload or {}
        sheds = sum(overload.get(k, 0) for k in ("shed_deadline", "shed_codel", "shed_queue_full"))
        if sheds <= 0:
            failures.append("no requests shed by admission")
        if overload.get("degraded_served", 0) <= 0:
            failures.append("no degraded fallback responses")
        if (result.resilience or {}).get("retries", 0) <= 0:
            failures.append("no client retries")
        cache = result.cache
        low, high = FLEET_HIT_SHARE_BAND
        share = cache["hit_fraction"] if cache else 0.0
        if not low <= share <= high:
            failures.append(f"cache hit share {share:.3f} outside [{low}, {high}]")
        tenants = ((result.tenancy or {}).get("tenants") or {})
        if len(tenants) < 2:
            failures.append("fewer than two tenants")
        for name, tally in tenants.items():
            if tally.get("requests", 0) <= 0:
                failures.append(f"tenant {name} received no traffic")
        if not any(t.get("canary_requests", 0) > 0 for t in tenants.values()):
            failures.append("no canary traffic")
    return failures


def guard_plan_platform(plans: Dict[str, Any], counts: Dict[str, int]) -> List[str]:
    """A 4-shard candidate ran, the recall gate decided an IVF candidate,
    and every candidate run built exactly one workload generator."""
    failures = []
    if counts.get("core.runs.shards4", 0) <= 0:
        failures.append("no 4-shard candidate was load-tested")
    gated = False
    for plan in plans.values():
        gated |= any("ivf" in key and "recall" in reason for key, reason in plan.infeasible.items())
        gated |= any(o.retrieval is not None and o.recall is not None for o in plan.options)
    if not gated:
        failures.append("no IVF candidate was decided by the recall gate")
    runs, inits = counts.get("core.runs", 0), counts.get("workload.inits", 0)
    if runs <= 0 or runs != inits:
        failures.append(f"{inits} workload constructions for {runs} candidate runs")
    return failures

