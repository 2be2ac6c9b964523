"""Property: every opt-in config survives its own spec string.

``spec_string()`` is what spec files persist and what the CLI re-parses,
so ``parse(spec_string(c)) == c`` must hold for arbitrary valid configs of
all eleven grammars — including floats that six significant digits
cannot represent (``0.0012345678``) and integers past ``1e6``. A spec
file written by ``spec_to_dict`` must likewise load back to the same
experiment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.config import RetrievalConfig
from repro.cache.policy import POLICIES
from repro.cache.tier import CacheConfig
from repro.cluster.chaos import (
    ChaosSchedule,
    CrashStorm,
    NetworkDelay,
    PodCrash,
    SlowNode,
    ZoneOutage,
)
from repro.cluster.routing import DISCIPLINES as ROUTING_DISCIPLINES
from repro.cluster.routing import RoutingPolicy
from repro.core.spec import SLO, ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.exec.config import BackendConfig
from repro.loadgen.retry import RetryPolicy
from repro.scheduler.config import SchedulerConfig
from repro.serving.admission import DISCIPLINES as ADMISSION_DISCIPLINES
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig, TenantConfig
from repro.workload.statistics import WorkloadStatistics


def reals(lo=0.0, hi=1e6, *, exclude_min=False):
    return st.floats(
        min_value=lo, max_value=hi, exclude_min=exclude_min,
        allow_nan=False, allow_infinity=False,
    )


positive = reals(exclude_min=True)
counts = st.integers(0, 10**9)
optional_seconds = st.one_of(st.none(), reals(0.0, 1e4))


@st.composite
def retry_policies(draw):
    base, cap = sorted((draw(reals(0.0, 60.0)), draw(reals(0.0, 60.0))))
    return RetryPolicy(
        max_retries=draw(counts),
        base_backoff_s=base,
        max_backoff_s=cap,
        multiplier=draw(reals(1.0, 10.0)),
        jitter=draw(reals(0.0, 1.0)),
        hedge_after_s=draw(st.one_of(st.none(), positive)),
    )


chaos_events = st.one_of(
    st.builds(
        PodCrash, at_s=reals(), pod_index=st.integers(0, 64),
        restart_after_s=optional_seconds,
        shard=st.one_of(st.none(), st.integers(0, 16)),
    ),
    st.builds(
        CrashStorm, at_s=reals(), count=st.integers(1, 32),
        stagger_s=reals(0.0, 60.0), restart_after_s=optional_seconds,
    ),
    st.builds(
        SlowNode, at_s=reals(), pod_index=st.integers(0, 64),
        factor=positive, duration_s=optional_seconds,
    ),
    st.builds(
        NetworkDelay, at_s=reals(), extra_s=reals(0.0, 10.0),
        duration_s=optional_seconds,
    ),
    st.builds(
        ZoneOutage, at_s=reals(),
        zone=st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,11}", fullmatch=True),
        restart_after_s=optional_seconds,
    ),
)
chaos_schedules = st.builds(
    ChaosSchedule, events=st.lists(chaos_events, max_size=4).map(tuple)
)

admission_policies = st.builds(
    AdmissionPolicy,
    discipline=st.sampled_from(ADMISSION_DISCIPLINES),
    slack_s=reals(0.0, 1.0),
    lifo_threshold=counts,
    codel_target_s=positive,
    codel_interval_s=positive,
)
routing_policies = st.builds(
    RoutingPolicy,
    discipline=st.sampled_from(ROUTING_DISCIPLINES),
    eject_after=st.one_of(st.none(), st.integers(1, 10**6)),
    cooldown_s=positive,
    endpoint_lag_s=reals(0.0, 60.0),
)
fallback_configs = st.builds(
    FallbackConfig, budget_s=positive, top_k=st.integers(1, 10**7)
)
cache_configs = st.builds(
    CacheConfig,
    capacity=counts,
    policy=st.sampled_from(POLICIES),
    window=st.integers(1, 10**6),
    ttl_s=reals(),
    remote_capacity=counts,
    remote_ttl_s=reals(),
)
sharding_configs = st.builds(
    ShardingConfig, shards=st.integers(1, 10**6), allow_partial=st.booleans()
)
retrieval_configs = st.one_of(
    st.just(RetrievalConfig()),
    st.builds(
        RetrievalConfig,
        kind=st.just("ivf"),
        nlist=st.one_of(st.none(), st.integers(1, 10**7)),
        nprobe=st.integers(1, 10**7),
    ),
)
scheduler_configs = st.builds(
    SchedulerConfig,
    cpu_replicas=st.integers(0, 10**6),
    cpu_instance=st.sampled_from(["CPU", "GPU-T4", "GPU-A100"]),
    short_session=counts,
    slack_s=reals(0.0, 10.0),
    max_batch=st.integers(1, 10**7),
    linger_s=reals(0.0, 1.0),
    tune=st.booleans(),
    epoch_s=positive,
    target_p_ms=positive,
    quantile=reals(0.0, 100.0, exclude_min=True),
    tolerance=positive,
)
backend_configs = st.one_of(
    st.just(BackendConfig("serial")),
    st.builds(BackendConfig, kind=st.just("mp"), workers=st.integers(0, 512)),
)


@st.composite
def tenancy_configs(draw):
    names = draw(
        st.lists(
            st.from_regex(r"[a-z][a-z0-9_-]{0,7}", fullmatch=True),
            min_size=1, max_size=4, unique=True,
        )
    )
    tenants = []
    for index, name in enumerate(names):
        model = draw(st.sampled_from(["gru4rec", "narm", "stamp"]))
        # The first tenant is a primary: a fleet needs one.
        shadow = index > 0 and draw(st.booleans())
        tenants.append(
            TenantConfig(
                name=name,
                model=model,
                weight=draw(reals(0.0, 1.0) if shadow else positive),
                slo_ms=draw(st.one_of(st.none(), positive)),
                shadow=shadow,
                canary_fraction=0.0 if shadow else draw(
                    reals(0.0, 1.0).filter(lambda f: f < 1.0)
                ),
                burst=draw(positive),
                rollout_at_s=draw(optional_seconds),
            )
        )
    return TenancyConfig(
        tenants=tuple(tenants), fair_depth=draw(st.integers(1, 10**7))
    )


GRAMMARS = {
    "retry": retry_policies(),
    "chaos": chaos_schedules,
    "admission": admission_policies,
    "routing": routing_policies,
    "fallback": fallback_configs,
    "cache": cache_configs,
    "sharding": sharding_configs,
    "retrieval": retrieval_configs,
    "scheduler": scheduler_configs,
    "tenancy": tenancy_configs(),
    "backend": backend_configs,
}


@given(st.one_of(*GRAMMARS.values()))
@settings(max_examples=600, deadline=None)
def test_parse_inverts_spec_string(config):
    assert type(config).parse(config.spec_string()) == config


def test_the_suite_covers_eleven_grammars():
    assert len(GRAMMARS) == 11


def test_six_digit_floats_no_longer_round():
    config = FallbackConfig(budget_s=0.0012345678)
    assert config.spec_string() == "budget=0.0012345678,topk=21"
    assert FallbackConfig.parse(config.spec_string()) == config


def test_exact_floats_keep_their_short_form():
    assert CacheConfig(ttl_s=30.0).spec_string() == "lru,ttl=30"
    assert RetryPolicy().spec_string() == "max=3,base=0.05,cap=1,mult=2,jitter=0.5"


@given(
    retry=retry_policies(),
    chaos=chaos_schedules,
    slo_deadline_s=positive,
    admission=admission_policies,
    routing=routing_policies,
    fallback=fallback_configs,
    cache=cache_configs,
    sharding=sharding_configs,
    retrieval=retrieval_configs,
    scheduler=scheduler_configs,
    zones=st.integers(1, 8),
    tenants=tenancy_configs(),
)
@settings(max_examples=100, deadline=None)
def test_spec_file_round_trip_with_every_feature(**features):
    spec = ExperimentSpec(
        model="gru4rec",
        catalog_size=5000,
        target_rps=40,
        hardware=HardwareSpec("GPU-T4", 2),
        duration_s=12.5,
        execution="eager",
        top_k=7,
        workload=WorkloadStatistics(
            catalog_size=5000, alpha_length=1.85, alpha_clicks=1.35
        ),
        seed=99,
        **features,
    )
    slo = SLO(p90_latency_ms=42.0, max_error_rate=0.02)
    assert spec_from_dict(spec_to_dict(spec, slo)) == (spec, slo)
