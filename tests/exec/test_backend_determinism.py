"""Cross-backend determinism: serial and mp plans must be bit-identical.

The whole value of the parallel execution backend rests on one property:
for any scenario grid, ``DeploymentPlanner.plan`` produces *bit-identical*
``ScenarioPlan`` payloads — option list including tie-break order, every
measured number inside every RunResult, and infeasible-candidate messages
in grid order — whatever the backend and worker count. Hypothesis drives
random small grids through serial and mp(2); a fixed wider grid (with
infeasible and skipped candidates in it) also checks mp(4), and the
rendered report tables must match too. On hosts with 4+ cores, mp(4)
must also beat serial on the wall clock.
"""

import json
import os
import time
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeploymentPlanner
from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.core.report import render_scenario_table
from repro.core.spec import Scenario
from repro.hardware.instances import instance_by_name
from repro.scheduler import SchedulerConfig


def plan_payload(plans):
    """Canonical JSON of every plan: full results, order-preserving."""
    return json.dumps(
        {
            model: {
                "options": [
                    {
                        "instance_type": option.instance_type,
                        "replicas": option.replicas,
                        "shards": option.shards,
                        "retrieval": option.retrieval,
                        "recall": option.recall,
                        "scheduler": option.scheduler,
                        "cpu_replicas": option.cpu_replicas,
                        "monthly_cost_usd": option.monthly_cost_usd,
                        "result": asdict(option.result),
                    }
                    for option in plan.options
                ],
                "infeasible": list(plan.infeasible.items()),
                "cheapest": (
                    plan.cheapest().instance_type
                    if plan.cheapest() is not None
                    else None
                ),
            }
            for model, plan in plans.items()
        },
        sort_keys=True,
    )


def run_plan(backend, scenario, models, instance_names, seed, **planner_kwargs):
    """One cold sweep: fresh runner + registry per call, nothing shared.
    Returns the canonical payload and the rendered report table."""
    planner = DeploymentPlanner(
        runner=ExperimentRunner(registry=AssetRegistry(), seed=seed),
        backend=backend,
        **planner_kwargs,
    )
    instances = [instance_by_name(name) for name in instance_names]
    plans = planner.plan(scenario, models, instances=instances)
    table = render_scenario_table(
        {scenario.name: plans}, models, instance_names=list(instance_names)
    )
    return plan_payload(plans), table


@settings(max_examples=3, deadline=None)
@given(
    catalog=st.integers(min_value=1_000, max_value=20_000),
    rps=st.integers(min_value=10, max_value=60),
    seed=st.integers(min_value=0, max_value=2**20),
    models=st.lists(
        st.sampled_from(["gru4rec", "narm"]),
        min_size=1,
        max_size=2,
        unique=True,
    ),
    use_gpu=st.booleans(),
)
def test_random_grids_serial_equals_mp2(catalog, rps, seed, models, use_gpu):
    scenario = Scenario("hyp", catalog, rps)
    instance_names = ["CPU"] + (["GPU-T4"] if use_gpu else [])
    kwargs = dict(duration_s=5.0, max_replicas=2)
    serial = run_plan("serial", scenario, models, instance_names, seed, **kwargs)
    mp2 = run_plan(
        "mp:workers=2", scenario, models, instance_names, seed, **kwargs
    )
    assert serial == mp2


def test_fixed_grid_with_infeasibles_all_backends():
    """A grid that exercises every outcome class: feasible options (with
    cost ties resolved by the canonical tie-break), infeasible candidates
    (scheduler on a CPU primary; replica cap too low), and quietly
    skipped ones (scheduler x sharding)."""
    scenario = Scenario("fixed", 8_000, 40)
    models = ["gru4rec"]
    instance_names = ["CPU", "GPU-T4"]
    kwargs = dict(
        duration_s=5.0,
        max_replicas=1,  # tight cap: some candidates become infeasible
        shard_counts=(1, 2),
        scheduler_options=(None, SchedulerConfig.parse("cpu=1,target=20")),
    )
    payloads = {
        backend: run_plan(
            backend, scenario, models, instance_names, seed=99, **kwargs
        )
        for backend in ("serial", "mp:workers=2", "mp:workers=4")
    }
    assert payloads["mp:workers=2"] == payloads["serial"]
    assert payloads["mp:workers=4"] == payloads["serial"]
    # The grid really contained infeasible candidates — the equality
    # above must cover their messages and ordering, not just options.
    decoded = json.loads(payloads["serial"][0])
    assert decoded["gru4rec"]["infeasible"], "expected infeasible candidates"
    messages = dict(decoded["gru4rec"]["infeasible"])
    assert any("accelerator" in message for message in messages.values())


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="mp(4) cannot beat serial without 4 cores to spread over",
)
def test_mp4_beats_serial_wall_clock():
    """A grid whose serial sweep takes whole seconds, so a 4-worker pool
    amortizes its fork and trace cost."""
    scenario = Scenario("wall", 50_000, 150)
    kwargs = dict(duration_s=30.0, max_replicas=4, shard_counts=(1, 2))
    wall_s = {}
    for backend in ("serial", "mp:workers=4"):
        started = time.perf_counter()
        run_plan(
            backend, scenario, ["gru4rec", "narm"], ["CPU", "GPU-T4"],
            seed=1234, **kwargs,
        )
        wall_s[backend] = time.perf_counter() - started
    assert wall_s["mp:workers=4"] < wall_s["serial"]
