"""Declarative experiment specifications — the ETUDE user interface.

A data scientist describes *what* to evaluate (model, catalog statistics,
hardware, constraints); ETUDE takes care of deployment, load generation and
measurement. These dataclasses are that declarative surface, including the
five end-to-end use-case scenarios of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.scheduler.config import SchedulerConfig
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.routing import RoutingPolicy
from repro.core.features import FEATURES
from repro.loadgen.retry import RetryPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig
from repro.workload.statistics import WorkloadStatistics


@dataclass(frozen=True)
class SLO:
    """Latency/throughput constraints (paper: p90 <= 50 ms)."""

    p90_latency_ms: float = 50.0
    max_error_rate: float = 0.01


@dataclass(frozen=True)
class HardwareSpec:
    """Where to deploy: instance type (catalog name) and replica count."""

    instance_type: str = "CPU"
    replicas: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


@dataclass(frozen=True)
class ExperimentSpec:
    """One deployed benchmark run."""

    model: str
    catalog_size: int
    target_rps: int
    hardware: HardwareSpec = HardwareSpec()
    duration_s: float = 600.0
    #: "jit" / "onnx" fall back to eager when the model cannot be traced.
    execution: str = "jit"
    top_k: int = 21
    workload: Optional[WorkloadStatistics] = None
    seed: int = 1234
    collect_series: bool = True
    # The opt-in features (repro.core.features). Each field accepts its
    # config object or the compact spec string of the matching CLI flag;
    # None (or a disabled config) is the paper's behaviour, bit-identical
    # to a run without the field.
    #: Client retries/hedging (None = every error is terminal).
    retry: Optional[Union[RetryPolicy, str]] = None
    #: Fault-injection schedule; event times count from load start.
    chaos: Optional[Union[ChaosSchedule, str]] = None
    #: Per-request latency SLO in seconds: requests carry the deadline
    #: ``sent_at + slo_deadline_s`` so admission control can shed them.
    slo_deadline_s: Optional[float] = None
    #: Deadline-aware admission control on the Actix server.
    admission: Optional[Union[AdmissionPolicy, str]] = None
    #: Health-aware service routing (None = plain round-robin).
    routing: Optional[Union[RoutingPolicy, str]] = None
    #: Graceful-degradation tier (None = sheds surface as 503s).
    fallback: Optional[Union[FallbackConfig, str]] = None
    #: Session-prefix result cache + request coalescing.
    cache: Optional[Union[CacheConfig, str]] = None
    #: Catalog sharding with scatter-gather top-k; also a bare shard
    #: count. ``replicas`` is then *per shard*.
    sharding: Optional[Union[ShardingConfig, str, int]] = None
    #: ANN retrieval mode (None or ``"exact"`` = the exact catalog scan).
    retrieval: Optional[Union[RetrievalConfig, str]] = None
    #: Heterogeneous CPU/GPU scheduler (None or ``"off"`` = single class).
    scheduler: Optional[Union[SchedulerConfig, str]] = None
    #: Failure domains to spread the fleet over (1 = no zone topology).
    #: With ``zones > 1`` a shard's replicas never co-locate when
    #: ``replicas <= zones`` and cross-zone network legs are charged; see
    #: ``docs/availability.md``.
    zones: int = 1
    #: Co-located tenant fleet (None or an empty fleet = single-model
    #: serving); see ``docs/tenancy.md``.
    tenants: Optional[Union[TenancyConfig, str]] = None

    def __post_init__(self):
        if self.execution not in ("jit", "eager", "onnx"):
            raise ValueError("execution must be 'jit', 'eager' or 'onnx'")
        if self.catalog_size < 1 or self.target_rps < 1:
            raise ValueError("catalog_size and target_rps must be positive")
        for feature in FEATURES.values():
            value = getattr(self, feature.name)
            if isinstance(value, str):
                object.__setattr__(self, feature.name, feature.coerce(value))
        if self.zones < 1:
            raise ValueError("zones must be >= 1")
        if self.slo_deadline_s is not None and self.slo_deadline_s <= 0:
            raise ValueError("slo_deadline_s must be positive")
        if isinstance(self.sharding, int) and not isinstance(self.sharding, bool):
            object.__setattr__(self, "sharding", ShardingConfig(shards=self.sharding))
        if (
            isinstance(self.tenants, TenancyConfig)
            and not self.tenants.enabled
        ):
            # An empty fleet is the contractual off state.
            object.__setattr__(self, "tenants", None)

    def workload_statistics(self) -> WorkloadStatistics:
        """The provided statistics, or the bol.com-like defaults."""
        if self.workload is not None:
            return self.workload
        return WorkloadStatistics.bol_like(self.catalog_size)

    def with_hardware(self, instance_type: str, replicas: int) -> "ExperimentSpec":
        return replace(
            self, hardware=HardwareSpec(instance_type=instance_type, replicas=replicas)
        )


@dataclass(frozen=True)
class Scenario:
    """A Table I use case: catalog size + target throughput."""

    name: str
    catalog_size: int
    target_rps: int


#: The five scenarios of Table I.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("Groceries (small)", 10_000, 100),
    Scenario("Groceries (large)", 100_000, 250),
    Scenario("Fashion", 1_000_000, 500),
    Scenario("e-Commerce", 10_000_000, 1_000),
    Scenario("Platform", 20_000_000, 1_000),
)


def scenario_by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name.lower() == name.lower():
            return scenario
    known = ", ".join(s.name for s in SCENARIOS)
    raise KeyError(f"unknown scenario {name!r}; known: {known}")
