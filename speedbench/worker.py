"""One benchmark process: set up a workload, time it, check it.

Started by ``run.py`` as a fresh interpreter (so ``setup_s`` includes the
``import repro.cli`` a user pays) and prints one JSON object on stdout.

    python3 speedbench/worker.py --workload serve-steady --seed 1 \\
        --iterations 2 --spawned-at <time.monotonic() of the parent>

With ``--trace`` it instead runs one untraced iteration, then (on
serve-steady) one with the program's own ``Telemetry``, then one with
the benchmark's span tracer, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import sys
import time
import traceback

_SPAWN_CLOCK = time.monotonic()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": os.environ.get("ETUDE_BACKEND"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def check_iteration(workload, outcome, counts) -> list:
    failures = []
    for result, collector, caches in zip(outcome.results, outcome.collectors, outcome.caches):
        failures += checks.run_invariants(result, collector, caches)
    failures += workload.guard(outcome, counts)
    if not outcome.results:
        failures.append("the iteration completed no ExperimentRunner.run")
    return failures


def timed_iteration(workload, recorder, probe_counts, telemetry=None, tracer=None):
    """Run one iteration; returns (wall seconds, outcome, failures).

    The wall seconds leave out the garbage collections the recorder forces
    before each run. With a ``tracer`` the timed phase is its root span,
    ``bench.timed``, and each of those collections a ``bench.gc`` span.
    """
    before = dict(probe_counts)
    root = tracer.begin("bench.timed") if tracer is not None else None
    started = time.perf_counter()
    plans = workload.iterate(telemetry=telemetry)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.end(root)
    outcome = recorder.take(plans)
    delta = {k: v - before.get(k, 0) for k, v in probe_counts.items()}
    return elapsed - outcome.gc_s, outcome, check_iteration(workload, outcome, delta)


# -- traced run ----------------------------------------------------------------


def instrument(tracer: spans.Tracer, captured: dict) -> None:
    """Spans and counters at every layer boundary of ``src/repro``."""
    from repro.ann.ivf import AnnSessionRecModel
    from repro.cache.policy import MISSING
    from repro.cache.tier import RecommendationCache
    from repro.cluster.kubernetes import Cluster
    from repro.cluster.service import ClusterIPService
    from repro.core.experiment import ExperimentRunner
    from repro.core.planner import DeploymentPlanner
    from repro.core.registry import AssetRegistry
    from repro.loadgen.generator import LoadGenerator
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.percentile import LatencyDigest
    from repro.serving.actix import EtudeInferenceServer
    from repro.sharding.gather import ScatterGatherAggregator
    from repro.simulation.simulator import Simulator
    from repro.tenancy.split import TrafficSplitter
    from repro.tensor import ops
    from repro.workload.synthetic import SyntheticWorkloadGenerator

    for attr in ("assets", "trace", "profile"):
        tracer.wrap(AssetRegistry, attr, "core.registry")
    tracer.wrap(AssetRegistry, "measured_recall", "ann.recall")
    tracer.wrap(ExperimentRunner, "run", "core.run")
    tracer.wrap(workloads, "collect_garbage", "bench.gc")
    tracer.wrap(DeploymentPlanner, "plan", "core.planner")
    tracer.wrap(DeploymentPlanner, "evaluate_candidate", "core.planner.candidate")
    tracer.wrap(SyntheticWorkloadGenerator, "__init__", "workload.init")
    tracer.count_yields(SyntheticWorkloadGenerator, "iter_sessions", "workload.sessions")
    tracer.wrap(Simulator, "run", "simulation.run")
    tracer.count(Simulator, "call_at", "simulation.events")
    tracer.capture(LoadGenerator, captured["loadgen"])
    tracer.wrap(ClusterIPService, "submit", "cluster.submit", request_arg=1)
    tracer.wrap(Cluster, "deploy_model", "cluster.deploy")
    tracer.capture(EtudeInferenceServer, captured["servers"])
    tracer.wrap(EtudeInferenceServer, "submit", "serving.submit", request_arg=1)
    tracer.capture(MetricsCollector, captured["collectors"])
    tracer.wrap(MetricsCollector, "record", "metrics.record", request_arg=2)
    tracer.count(LatencyDigest, "record", "metrics.digest_records")
    for owner, attr in workloads.model_entry_points():
        tracer.wrap(owner, attr, "models.recommend")
    tracer.count(AnnSessionRecModel, "recommend", "ann.queries")
    tracer.count(ops, "run_op", "tensor.kernel_calls")
    tracer.capture(RecommendationCache, captured["caches"])
    tracer.wrap(RecommendationCache, "lookup_local", "cache.lookup")
    tracer.count(
        RecommendationCache, "lookup_local", "cache.lookups",
        hit=lambda value: value is not MISSING,
    )
    tracer.wrap(RecommendationCache, "fill", "cache.fill")
    tracer.wrap(TrafficSplitter, "submit", "tenancy.split", request_arg=1)
    tracer.wrap(ScatterGatherAggregator, "scatter", "sharding.scatter", request_arg=1)


def layer_metrics(tracer: spans.Tracer, captured: dict) -> tuple:
    """Per-layer metrics of one traced iteration, and any accounting failure."""
    from repro.sharding.gather import SUB_REQUEST_ID_START

    recorded = tracer.closed_spans()
    summary = spans.summarize(recorded)
    counts = tracer.counts

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("outer_calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    sent = sum(g.sent for g in captured["loadgen"])
    batch_sizes = [b for c in captured["collectors"] for bucket in c.buckets() for b in bucket.batch_sizes]
    recommends = calls("models.recommend")
    scatters = calls("sharding.scatter")
    subrequests = sum(
        1 for name, _p, _s, _e, rid in recorded
        if name == "serving.submit" and rid is not None and rid <= SUB_REQUEST_ID_START
    )
    m = {
        "core.registry_s": self_s("core.registry"),
        "core.registry_calls": calls("core.registry"),
        "core.run_overhead_s": self_s("core.run"),
        "core.planner_s": self_s("core.planner") + self_s("core.planner.candidate"),
        "core.planner_candidates": calls("core.planner.candidate"),
        "core.planner_runs": calls("core.run") if calls("core.planner") else 0,
        "workload.init_s": self_s("workload.init"),
        "workload.init_calls": calls("workload.init"),
        "workload.sessions": counts["workload.sessions"],
        "simulation.self_s": self_s("simulation.run"),
        "simulation.events": counts["simulation.events"],
        "simulation.events_per_request": ratio(counts["simulation.events"], sent),
        "loadgen.sent": sent,
        "loadgen.backpressure_stalls": sum(g.backpressure_stalls for g in captured["loadgen"]),
        "loadgen.retries": sum(g.retries for g in captured["loadgen"]),
        "cluster.submit_s": self_s("cluster.submit"),
        "cluster.submit_calls": calls("cluster.submit"),
        "cluster.deploy_s": self_s("cluster.deploy"),
        "serving.submit_s": self_s("serving.submit"),
        "serving.submit_calls": calls("serving.submit"),
        "serving.batch_flushes": sum(s.batch_flushes for s in captured["servers"]),
        "serving.mean_batch": ratio(sum(batch_sizes), len(batch_sizes)),
        "serving.shed": sum(s.shed_total for s in captured["servers"]),
        "serving.degraded": sum(s.degraded_served for s in captured["servers"]),
        "metrics.record_s": self_s("metrics.record"),
        "metrics.record_calls": calls("metrics.record"),
        "metrics.digest_records_per_response": ratio(
            counts["metrics.digest_records"], calls("metrics.record")
        ),
        "models.recommend_s": self_s("models.recommend"),
        "models.recommend_calls": recommends,
        "tensor.kernel_calls_per_recommend": ratio(counts["tensor.kernel_calls"], recommends),
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.fill_s": self_s("cache.fill"),
        "cache.lookups": counts["cache.lookups"],
        "cache.hit_share": ratio(counts["cache.lookups.hits"], counts["cache.lookups"]),
        "cache.fills": calls("cache.fill"),
        "tenancy.split_s": self_s("tenancy.split"),
        "tenancy.split_calls": calls("tenancy.split"),
        "sharding.scatter_s": self_s("sharding.scatter"),
        "sharding.scatters": scatters,
        "sharding.subrequests_per_scatter": ratio(subrequests, scatters),
        "ann.recall_s": self_s("ann.recall"),
        "ann.queries": counts["ann.queries"],
        "bench.gc_s": self_s("bench.gc"),
        "bench.unattributed_s": self_s("bench.timed"),
    }
    # Self times partition the root span: every second of the timed phase
    # is in one layer, in bench.gc or in bench.unattributed_s.
    _n, _p, start, end, _r = recorded[0]
    m["bench.timed_s"] = end - start
    failures = []
    if captured["caches"]:
        failures += checks.traced_cache_invariants(counts, captured["caches"])
    return m, failures, recorded


def write_spans(path: str, recorded) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    names = sorted({s[0] for s in recorded})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(path, "wt", encoding="utf-8") as out:
        json.dump(
            {
                "columns": ["name", "parent", "start_s", "end_s", "request_id"],
                "names": names,
                "spans": [[index[n], p, s, e, r] for n, p, s, e, r in recorded],
            },
            out,
            separators=(",", ":"),
        )


def traced(workload, recorder, probe_counts, args, record) -> None:
    failures = record["failures"]
    wall_u, outcome, fails = timed_iteration(workload, recorder, probe_counts)
    failures += fails
    reference = workload.fingerprint(outcome)
    metrics = {"import.repro_s": record["import_s"], "obs.trace_overhead": 0.0}

    metrics["obs.telemetry_wall_ratio"] = 0.0
    metrics["obs.telemetry_rss_mb"] = 0.0
    if workload.name == "serve-steady":
        from repro.obs.telemetry import Telemetry

        workload.prepare_next()
        rss_before = peak_rss_mb()
        wall_t, outcome_t, fails = timed_iteration(
            workload, recorder, probe_counts, telemetry=Telemetry()
        )
        failures += fails
        if workload.fingerprint(outcome_t) != reference:
            failures.append("telemetry changed the virtual outputs")
        metrics["obs.telemetry_wall_ratio"] = wall_t / wall_u
        metrics["obs.telemetry_rss_mb"] = peak_rss_mb() - rss_before
        del outcome_t

    workload.prepare_next()
    tracer = spans.Tracer()
    captured = {k: [] for k in ("loadgen", "servers", "collectors", "caches")}
    instrument(tracer, captured)
    try:
        wall_s, outcome_s, fails = timed_iteration(workload, recorder, probe_counts, tracer=tracer)
    finally:
        tracer.restore()
    failures += fails
    if workload.fingerprint(outcome_s) != reference:
        failures.append("the span tracer changed the virtual outputs")
    layer, fails, recorded = layer_metrics(tracer, captured)
    failures += fails
    metrics.update(layer)
    metrics["obs.trace_overhead"] = wall_s / wall_u
    record["metrics"] = metrics
    record["iterations"].append(
        {"wall_s": wall_u, "requests": outcome.requests, "fingerprint": reference}
    )
    if args.out_dir:
        write_spans(
            os.path.join(args.out_dir, f"spans-{workload.name}-seed{args.seed}.json.gz"),
            recorded,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else _SPAWN_CLOCK

    record = {"workload": args.workload, "seed": args.seed, "failures": [], "iterations": []}
    try:
        started = time.monotonic()
        import repro.cli  # noqa: F401
        record["import_s"] = time.monotonic() - started

        from repro.exec.config import resolve_backend

        backend = resolve_backend()
        if backend.kind != "serial":
            raise RuntimeError(f"refusing to benchmark under the {backend.spec_string()} backend")

        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
        probe_tracer = spans.Tracer()
        recorder = workloads.RunRecorder(probe_tracer)
        workload.probes(probe_tracer)
        workload.setup()
        record["setup_s"] = time.monotonic() - spawned_at

        if args.trace:
            traced(workload, recorder, probe_tracer.counts, args, record)
        for index in range(0 if args.trace else args.iterations):
            if index:
                workload.prepare_next()
            wall, outcome, failures = timed_iteration(workload, recorder, probe_tracer.counts)
            record["iterations"].append(
                {
                    "wall_s": wall,
                    "requests": outcome.requests,
                    "runs": [[r.instance_type, r.replicas, r.total_requests] for r in outcome.results],
                    "fingerprint": workload.fingerprint(outcome),
                }
            )
            record["failures"] += failures
    except Exception as error:  # reported, never swallowed: run.py fails the run
        record["failures"].append("".join(traceback.format_exception_only(type(error), error)).strip())
        record["traceback"] = traceback.format_exc()
    record["peak_rss_mb"] = peak_rss_mb()
    record["host"] = host_record()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
