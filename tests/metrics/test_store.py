"""Result archive over the bucket."""

from dataclasses import replace

import pytest

from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.metrics import ResultStore


@pytest.fixture(scope="module")
def runner_with_results():
    runner = ExperimentRunner(seed=808)
    for model, rps in (("stamp", 50), ("stamp", 100), ("narm", 50)):
        runner.run(
            ExperimentSpec(
                model=model, catalog_size=10_000, target_rps=rps,
                hardware=HardwareSpec("CPU", 1), duration_s=15.0,
            )
        )
    return runner


class TestResultStore:
    def test_counts_persisted_runs(self, runner_with_results):
        store = ResultStore(runner_with_results.infra.bucket)
        assert len(store) == 3

    def test_roundtrip_preserves_fields(self, runner_with_results):
        store = ResultStore(runner_with_results.infra.bucket)
        results = list(store.iter_results())
        assert all(result.ok_requests > 0 for result in results)
        assert {result.model for result in results} == {"stamp", "narm"}

    def test_query_filters(self, runner_with_results):
        store = ResultStore(runner_with_results.infra.bucket)
        assert len(store.query(model="stamp")) == 2
        assert len(store.query(model="narm")) == 1
        assert len(store.query(min_target_rps=80)) == 1
        assert len(store.query(instance_type="GPU-T4")) == 0
        assert len(store.query(catalog_size=10_000)) == 3

    def test_feasible_filter(self, runner_with_results):
        store = ResultStore(runner_with_results.infra.bucket)
        assert len(store.feasible(p90_limit_ms=50.0)) == 3
        assert len(store.feasible(p90_limit_ms=0.001)) == 0

    def test_csv_export(self, runner_with_results):
        store = ResultStore(runner_with_results.infra.bucket)
        csv = store.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("model,instance_type,")
        assert len(lines) == 4
        assert any("stamp" in line for line in lines[1:])


class TestPersistedRecords:
    def test_each_distinct_spec_keeps_its_own_record(self):
        runner = ExperimentRunner(seed=808)
        plain = ExperimentSpec(
            model="gru4rec", catalog_size=2000, target_rps=20,
            hardware=HardwareSpec("CPU", 1), duration_s=5.0,
            execution="eager",
        )
        store = ResultStore(runner.infra.bucket)
        runner.run(plain)
        runner.run(replace(plain, sharding="2"))
        runner.run(replace(plain, seed=99))
        # Seeds plain.seed (already stored), +1 and +2.
        runner.run_repeated(plain, 3)
        assert len(store) == 5
        runner.run(plain)
        assert len(store) == 5
        assert sum(r.sharding is not None for r in store.iter_results()) == 1
