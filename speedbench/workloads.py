"""The benchmark's workloads: fixed inputs built from a seed.

Every workload is a batch job. Its *set-up* (infrastructure and the
registry assets the run needs) happens once per process; its *iteration*
is the timed unit of work, repeated on fresh infrastructure so each
iteration simulates exactly the same virtual run. The seed reaches the
program only through the spec (``ExperimentSpec.seed``) and the
infrastructure seed (``ExperimentRunner(seed=...)``).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import checks

#: Seed whose fingerprints are pinned in ``reference.json``.
DEFAULT_SEED = 1

FLEET_TENANTS = "home=stamp:3,slo=50,canary=0.2;search=sasrec:1,slo=50,burst=3"
PLAN_RETRIEVAL = "ivf:nlist=1024,nprobe=128"


@dataclass
class Outcome:
    """What one iteration produced: its runs, and the plan if it planned.

    ``gc_s`` is the time spent in the collections forced before each run,
    which the timed phase leaves out.
    """

    results: List[Any] = field(default_factory=list)
    collectors: List[Any] = field(default_factory=list)
    caches: List[List[Any]] = field(default_factory=list)
    plans: Optional[Dict[str, Any]] = None
    gc_s: float = 0.0

    @property
    def requests(self) -> int:
        return sum(r.total_requests for r in self.results)


def steady_spec(seed: int, scale: str):
    from repro.core.spec import ExperimentSpec, HardwareSpec

    spec = ExperimentSpec(
        model="gru4rec",
        catalog_size=100_000,
        target_rps=2_000,
        hardware=HardwareSpec("GPU-T4", 1),
        duration_s=30.0,
        seed=seed,
    )
    if scale == "tiny":
        spec = replace(spec, catalog_size=10_000, target_rps=200, duration_s=5.0)
    return spec


def fleet_spec(seed: int, scale: str, **overrides):
    """A two-tenant fleet pushed into admission shedding.

    The 4 ms deadline with 1 ms of admission slack sheds every request
    that waits more than 3 ms to be served, and the fallback tier answers
    those degraded (about a third of responses). The pod crash, while the
    endpoint view lags 2 s behind, fails a few requests that the client
    retries. ``window=1`` cache keys repeat often enough for a hit share
    near 30%.
    """
    from repro.core.spec import ExperimentSpec, HardwareSpec

    fields = dict(
        model="stamp",
        catalog_size=20_000,
        target_rps=300,
        hardware=HardwareSpec("GPU-T4", 2),
        duration_s=16.0,
        tenants=FLEET_TENANTS,
        cache="lru,window=1",
        slo_deadline_s=0.004,
        admission="codel,slack=0.001",
        fallback="",
        routing="lor,eject=3,lag=2",
        retry="max=3,base=0.05",
        chaos="crash@6:restart=5",
        zones=2,
        seed=seed,
    )
    if scale == "tiny":
        fields.update(target_rps=150, duration_s=12.0)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def plan_params(scale: str) -> Dict[str, Any]:
    params = dict(
        catalog_size=20_000_000, target_rps=1_000, duration_s=30.0,
        shard_counts=(1, 4), cloud="gcp",
    )
    if scale == "tiny":
        params.update(catalog_size=200_000, target_rps=200, duration_s=10.0)
    return params


class Workload:
    """Set-up, one timed iteration, and the checks for one workload."""

    name = ""

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.runner = None

    def setup(self) -> None:
        raise NotImplementedError

    def new_runner(self):
        """Fresh infrastructure (simulator, cluster, bucket) for one iteration."""
        raise NotImplementedError

    def prepare_next(self) -> None:
        """Build the next iteration's runner outside the timer."""
        if self.runner is None:
            self.runner = self.new_runner()

    def take_runner(self):
        runner, self.runner = self.runner or self.new_runner(), None
        return runner

    def iterate(self, telemetry=None):
        """Run the timed unit of work; returns the plans if it planned.

        Run results reach the checks through :class:`RunRecorder`.
        """
        raise NotImplementedError

    def fingerprint(self, outcome: Outcome) -> str:
        return checks.digest([checks.run_outputs(r) for r in outcome.results])

    def guard(self, outcome: Outcome, counts: Dict[str, int]) -> List[str]:
        return []

    def probes(self, tracer) -> None:
        """Cheap counters every run carries; never on a per-request path."""


class _Serve(Workload):
    def spec(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.core.registry import AssetRegistry
        from repro.hardware.instances import instance_by_name

        self.registry = AssetRegistry()
        spec = self.spec()
        device = instance_by_name(spec.hardware.instance_type).device
        models = [spec.model]
        if spec.tenants is not None:
            import repro.tenancy.placement  # noqa: F401  (imported lazily by runs)

            models += [t.model for t in spec.tenants.tenants]
        for model in dict.fromkeys(models):
            self.registry.assets(model, spec.catalog_size, device, spec.execution, top_k=spec.top_k)
        self.prepare_next()

    def new_runner(self):
        from repro.core.experiment import ExperimentRunner

        return ExperimentRunner(seed=self.seed, registry=self.registry)

    def iterate(self, telemetry=None):
        self.take_runner().run(self.spec(), telemetry=telemetry)


class ServeSteady(_Serve):
    """The paper's default path: no model object, no cache, no feature.

    Its wall time is all discrete-event bookkeeping, so it is the
    mechanism workload for hot-path work and the bypass for everything
    opt-in.
    """

    name = "serve-steady"

    def spec(self):
        return steady_spec(self.seed, self.scale)

    def guard(self, outcome, counts):
        return checks.guard_serve_steady(outcome.results, counts)

    def probes(self, tracer) -> None:
        # Zero-cost on this workload by construction: the guard demands
        # that neither counter ever fires.
        for owner, attr in model_entry_points():
            tracer.count(owner, attr, "models.recommend")
        from repro.cache.tier import RecommendationCache

        tracer.count(RecommendationCache, "lookup_local", "cache.lookups")


class ServeFleet(_Serve):
    """Every per-request feature that composes with tenants.

    The only path where servers run real numpy inference; cache hits skip
    it and fills pay for it.
    """

    name = "serve-fleet"

    def spec(self):
        return fleet_spec(self.seed, self.scale)

    def guard(self, outcome, counts):
        return checks.guard_serve_fleet(outcome.results, counts)


class PlanPlatform(Workload):
    """``repro plan`` on Table I's Platform scenario.

    Many short runs where set-up dominates: every candidate run rebuilds
    the 20M-item workload, and the plan measures recall for the IVF
    candidates, which the recall gate then rejects.
    """

    name = "plan-platform"

    def setup(self) -> None:
        self.prepare_next()

    def new_runner(self):
        from repro.core.experiment import ExperimentRunner

        return ExperimentRunner(seed=self.seed)

    def iterate(self, telemetry=None):
        from repro.ann.config import RetrievalConfig
        from repro.core.planner import DeploymentPlanner
        from repro.core.registry import AssetRegistry
        from repro.core.spec import Scenario
        from repro.hardware.clouds import cloud_catalog

        runner = self.take_runner()
        # Plan users pay for asset builds: each plan starts from an empty
        # registry, so they stay inside the timed phase.
        runner.registry = AssetRegistry()
        p = plan_params(self.scale)
        planner = DeploymentPlanner(
            runner=runner,
            duration_s=p["duration_s"],
            max_replicas=8,
            shard_counts=p["shard_counts"],
            retrieval_options=(None, RetrievalConfig.parse(PLAN_RETRIEVAL)),
            min_recall=0.95,
            backend="serial",
        )
        plans = planner.plan(
            Scenario("Platform", p["catalog_size"], p["target_rps"]),
            ["gru4rec"],
            instances=cloud_catalog(p["cloud"]),
        )
        return plans

    def fingerprint(self, outcome):
        return checks.plan_fingerprint(outcome.plans)

    def guard(self, outcome, counts):
        return checks.guard_plan_platform(outcome.plans, counts)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "serve-steady": ServeSteady,
    "serve-fleet": ServeFleet,
    "plan-platform": PlanPlatform,
}


def model_entry_points():
    """Every ``recommend`` a server can call, as (owner, attribute)."""
    from repro.ann.ivf import AnnSessionRecModel
    from repro.models.base import SessionRecModel
    from repro.models.noop import NoopModel
    from repro.models.vmisknn import VMISKNN
    from repro.sharding.merge import ShardScorer

    return [
        (SessionRecModel, "recommend"),
        (NoopModel, "recommend"),
        (VMISKNN, "recommend"),
        (AnnSessionRecModel, "recommend"),
        (ShardScorer, "recommend"),
        (ShardScorer, "recommend_with_scores"),
    ]


def collect_garbage() -> None:
    """The collection forced before every run (a ``bench.gc`` span when traced)."""
    gc.collect()


class RunRecorder:
    """Counts candidate runs (by shard count) and workload constructions,
    and keeps each run's result, MetricsCollector and result caches for
    the checks.

    Before each run it collects cyclic garbage, so peak memory does not
    depend on when the collector happens to run: without it, plan-platform
    keeps one or two 20M-item workloads alive, depending on the seed. The
    collection is timed and left out of the timed phase. Its cost is that
    a change which frees garbage earlier (say, by breaking a reference
    cycle) does not lower ``peak_rss_mb``.

    Its hooks fire a handful of times per run, so every run carries them.
    """

    def __init__(self, tracer):
        from repro.cache.tier import RecommendationCache
        from repro.core.experiment import ExperimentRunner
        from repro.metrics.collector import MetricsCollector
        from repro.workload.synthetic import SyntheticWorkloadGenerator

        self.outcome = Outcome()
        counts = tracer.counts
        collectors: List[Any] = []
        caches: List[Any] = []
        tracer.capture(MetricsCollector, collectors)
        tracer.capture(RecommendationCache, caches)
        tracer.count(SyntheticWorkloadGenerator, "__init__", "workload.inits")
        recorder = self

        def make(original):
            def run(self, spec, telemetry=None):
                counts["core.runs"] += 1
                shards = spec.sharding.shards if spec.sharding is not None else 1
                counts[f"core.runs.shards{shards}"] += 1
                started = time.perf_counter()
                collect_garbage()
                recorder.outcome.gc_s += time.perf_counter() - started
                del collectors[:], caches[:]
                result = original(self, spec, telemetry)
                recorder.outcome.results.append(result)
                recorder.outcome.collectors.append(collectors[0] if collectors else None)
                recorder.outcome.caches.append(list(caches))
                return result

            return run

        tracer.patch(ExperimentRunner, "run", make)

    def take(self, plans=None) -> Outcome:
        outcome, self.outcome = self.outcome, Outcome()
        outcome.plans = plans
        return outcome
