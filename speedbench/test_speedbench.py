"""Self-tests of the benchmark: its arithmetic, its checks, tiny runs.

    PYTHONPATH=src python3 -m pytest speedbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end):
    return (name, parent, start, end, None)


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_nested_children():
    recorded = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 5.0),
        span("b", 1, 2.0, 3.0),  # grandchild: charged to "a", not to root
    ]
    assert spans.self_times(recorded) == [6.0, 3.0, 1.0]


def test_self_time_back_to_back_children_counted_once():
    recorded = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("a", 0, 4.0, 6.0),  # touches the previous child
        span("a", 0, 5.0, 7.0),  # overlaps it: the overlap counts once
    ]
    selfs = spans.self_times(recorded)
    assert selfs[0] == pytest.approx(4.0)


def test_self_times_partition_the_root():
    recorded = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 5.0),
        span("b", 1, 2.0, 3.0),
        span("c", 0, 6.0, 9.5),
    ]
    summary = spans.summarize(recorded)
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(10.0)


def test_covered_length_clips_to_parent():
    assert spans.covered_length([(-1.0, 2.0), (1.0, 3.0), (8.0, 12.0)], 0.0, 10.0) == 5.0


def test_outer_calls_collapse_delegation():
    recorded = [
        span("root", -1, 0.0, 4.0),
        span("models.recommend", 0, 1.0, 3.0),
        span("models.recommend", 1, 1.5, 2.5),
    ]
    summary = spans.summarize(recorded)["models.recommend"]
    assert (summary["calls"], summary["outer_calls"]) == (2, 1)


def test_tracer_wraps_and_restores():
    class Layer:
        def work(self, request):
            return request.request_id * 2

    class Request:
        request_id = 21

    original = Layer.__dict__["work"]
    tracer = spans.Tracer()
    tracer.wrap(Layer, "work", "layer.work", request_arg=1)
    tracer.count(Layer, "work", "layer.calls", hit=lambda v: v > 40)
    root = tracer.begin("root")
    assert Layer().work(Request()) == 42
    tracer.end(root)
    tracer.restore()
    assert Layer.__dict__["work"] is original
    (root, work) = tracer.closed_spans()
    assert work[0] == "layer.work" and work[1] == 0 and work[4] == 21
    assert tracer.counts == {"layer.calls": 1, "layer.calls.hits": 1}


# -- fingerprints and checks --------------------------------------------------


@pytest.fixture(scope="module")
def steady_tiny():
    from repro.core.experiment import ExperimentRunner

    spec = workloads.steady_spec(seed=3, scale="tiny")
    return spec, ExperimentRunner(seed=3).run(spec)


def test_fingerprint_keeps_float_bits():
    assert checks.digest({"p": 0.1 + 0.2}) != checks.digest({"p": 0.3})
    assert checks.digest({"a": 1, "b": [1.5]}) == checks.digest({"b": [1.5], "a": 1})


def test_fingerprint_stable_across_fresh_runs(steady_tiny):
    from repro.core.experiment import ExperimentRunner

    spec, first = steady_tiny
    def fingerprint(result):
        return checks.digest(checks.run_outputs(result))

    again = ExperimentRunner(seed=3).run(spec)
    assert fingerprint(again) == fingerprint(first)
    other = ExperimentRunner(seed=4).run(workloads.steady_spec(seed=4, scale="tiny"))
    assert fingerprint(other) != fingerprint(first)


def test_invariants_hold_and_catch_breakage(steady_tiny):
    import copy

    _spec, result = steady_tiny
    assert checks.run_invariants(result) == []
    broken = copy.deepcopy(result)
    broken.ok_requests += 1
    assert checks.run_invariants(broken)
    broken = copy.deepcopy(result)
    broken.p90_ms, broken.p99_ms = result.p99_ms * 2, result.p99_ms
    assert checks.run_invariants(broken)


def test_cache_answered_responses_match_every_cache_instance(steady_tiny):
    import copy
    from types import SimpleNamespace

    _spec, result = steady_tiny
    cached = copy.deepcopy(result)
    cached.cache = {"fills": 3, "misses": 5}
    collector = SimpleNamespace(
        cache_hits=7, overall=SimpleNamespace(min=lambda: 0.0, max=lambda: 1e9),
    )
    live = SimpleNamespace(hits_local=4, hits_remote=0)
    crashed = SimpleNamespace(hits_local=2, hits_remote=1)
    assert checks.run_invariants(cached, collector, [live, crashed]) == []
    assert checks.run_invariants(cached, collector, [live])
    cached.cache["fills"] = 6
    assert checks.run_invariants(cached, collector, [live, crashed])


# -- activity guards fire on idle configurations ------------------------------


def test_steady_guard_fires_when_a_cache_is_on(steady_tiny):
    from repro.core.experiment import ExperimentRunner
    from dataclasses import replace

    spec, result = steady_tiny
    assert checks.guard_serve_steady([result], {}) == []
    cached = ExperimentRunner(seed=3).run(replace(spec, cache=""))
    assert checks.guard_serve_steady([cached], {"cache.lookups": 5})
    assert checks.guard_serve_steady([result], {"models.recommend": 1})


def test_fleet_guard_fires_without_overload():
    from repro.core.experiment import ExperimentRunner

    idle = workloads.fleet_spec(
        seed=1, scale="tiny", slo_deadline_s=1.0, chaos=None, cache="lru",
    )
    result = ExperimentRunner(seed=1).run(idle)
    failures = checks.guard_serve_fleet([result], {})
    assert any("shed" in f for f in failures)
    assert any("retries" in f for f in failures)
    assert any("hit share" in f for f in failures)


def test_plan_guard_fires_without_shards_or_ivf():
    class Plan:
        infeasible = {"GPU-T4": "no feasible deployment within 8 replicas"}
        options = []

    failures = checks.guard_plan_platform({"m": Plan()}, {"core.runs": 3, "workload.inits": 2})
    assert len(failures) == 3


# -- a tiny run of every workload, end to end through run.py ------------------


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=300, check=False,
    )
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    assert out.returncode == 0, out.stdout.decode()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_outside_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve-steady"],
        cwd=tmp_path, stdout=subprocess.PIPE, timeout=60, check=False,
    )
    assert out.returncode != 0 and out.stdout == b""


def test_refuses_the_multiprocessing_backend():
    env = dict(os.environ, ETUDE_BACKEND="mp:workers=2")
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve-steady"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=60, check=False,
    )
    assert out.returncode != 0 and out.stdout == b""
