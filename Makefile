# Make targets mirroring the paper's automation (Section II: "make infra",
# "make run_deployed_benchmark") plus the usual development entry points.

PYTHON ?= python

# One-time infrastructure setup. On the real platform this provisions the
# Kubernetes cluster, the storage bucket and service accounts; here it
# verifies the simulated equivalents come up.
.PHONY: infra
infra:
	$(PYTHON) -c "from repro.cluster import make_infra; \
	infra = make_infra(); \
	print('cluster ready; bucket:', infra.bucket.name); \
	print('service accounts:', ', '.join(infra.service_accounts))"

# One deployed benchmark. Usage:
#   make run_deployed_benchmark MODEL=gru4rec CATALOG=1000000 RPS=500 INSTANCE=GPU-T4
MODEL ?= gru4rec
CATALOG ?= 1000000
RPS ?= 500
INSTANCE ?= GPU-T4
REPLICAS ?= 1
.PHONY: run_deployed_benchmark
run_deployed_benchmark:
	$(PYTHON) -m repro run --model $(MODEL) --catalog $(CATALOG) \
	  --rps $(RPS) --instance $(INSTANCE) --replicas $(REPLICAS) --plot

.PHONY: install
install:
	$(PYTHON) setup.py develop

# Validate the code examples in docs/*.md and README.md against the
# source tree (imports must resolve, CLI lines must parse).
.PHONY: docs-check
docs-check:
	$(PYTHON) tools/docs_check.py

.PHONY: test
test: docs-check bench-smoke
	$(PYTHON) -m pytest tests/

# Each feature's acceptance checks, by pytest node id (all of them also
# run in `make test`).

# Deadline admission + fallback tier turn a 3x-capacity overload into
# degraded 200s: no 503s, p99 within the SLO.
.PHONY: overload-smoke
overload-smoke:
	$(PYTHON) -m pytest tests/core/test_overload.py::TestCollapseVersusDegrade

# Cache-on answers equal cache-off ones request for request against a
# real model; the cache hits, and hits are faster.
.PHONY: cache-smoke
cache-smoke:
	$(PYTHON) -m pytest tests/core/test_cache_integration.py::TestReplayAgainstCacheOff

# S=4 scatter-gather equals the unsharded server request for request; a
# shard crash degrades catalog coverage instead of flooding 5xxs.
.PHONY: shard-smoke
shard-smoke:
	$(PYTHON) -m pytest \
	  tests/sharding/test_sharding_integration.py::TestShardScorer::test_scatter_gather_replay_equals_the_unsharded_server \
	  tests/sharding/test_sharding_integration.py::TestShardedRuns::test_shard_crash_degrades_coverage_not_availability \
	  tests/sharding/test_sharding_integration.py::TestAggregatorSemantics::test_failed_shard_yields_partial_200

# IVF probing half its lists reaches recall@20 >= 0.9; a served IVF run
# answers every request; `exact` retrieval is byte-identical to none.
.PHONY: retrieval-smoke
retrieval-smoke:
	$(PYTHON) -m pytest \
	  tests/models/test_ann.py::TestAnnModel::test_half_probe_recall_on_a_small_catalog \
	  tests/serving/test_retrieval.py::TestServedRuns::test_retrieval_section_contents \
	  tests/serving/test_retrieval.py::TestDisabledBitIdentity

# Split-fleet exactness, mixed-vs-homogeneous tail under load,
# disabled-mode bit-identity.
.PHONY: scheduler-smoke
scheduler-smoke:
	$(PYTHON) -m pytest tests/serving/test_scheduler.py::TestSplitFleetReplay \
	  tests/serving/test_scheduler.py::TestDisabledBitIdentity

# A zone-replicated sharded deployment rides out a full zone outage
# (>=99% 200s, coverage 1.0, finite TTR); the unreplicated control is
# called out as a collapse.
.PHONY: failover-smoke
failover-smoke:
	$(PYTHON) -m pytest tests/core/test_availability.py::TestFailureDrill

# Co-located answers equal each tenant served alone, shadow traffic is
# never client-visible, a canary rollout has zero 5xx, and a 4x tenant
# storm cannot starve the co-tenant's SLO.
.PHONY: tenant-smoke
tenant-smoke:
	$(PYTHON) -m pytest tests/tenancy/test_tenancy_integration.py::TestColocatedAnswers \
	  tests/tenancy/test_tenancy_integration.py::TestFleetRun::test_shadow_scored_never_returned \
	  tests/tenancy/test_tenancy_integration.py::TestRollingUpdate::test_canary_rollout_promotes_the_canary_version \
	  tests/tenancy/test_fairness.py::TestStormEndToEnd

# serial, mp(2) and mp(4) plan a grid byte-identically (plans and report
# tables); on >= 4-core hosts mp(4) also beats the serial wall clock.
.PHONY: parallel-smoke
parallel-smoke:
	$(PYTHON) -m pytest tests/exec/test_backend_determinism.py::test_fixed_grid_with_infeasibles_all_backends \
	  tests/exec/test_backend_determinism.py::test_mp4_beats_serial_wall_clock

# Served forwards skip cost accounting: registry cost traces and the
# served answer streams stay pinned, and every model answers the same with
# and without a cost trace (no warnings on inf/NaN either way).
.PHONY: accounting-smoke
accounting-smoke:
	$(PYTHON) -m pytest tests/tensor/test_cost_traces.py \
	  tests/core/test_answer_streams.py tests/tensor/test_lean_path.py

# Line coverage over the unit suite (see README "Development"). Needs
# pytest-cov; when it is absent the target explains and skips instead of
# failing, so environments without the plugin can still run `make test`.
COV_FAIL_UNDER ?= 80
.PHONY: coverage
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
	  $(PYTHON) -m pytest tests/ --cov=repro \
	    --cov-report=term-missing --cov-fail-under=$(COV_FAIL_UNDER); \
	else \
	  echo "coverage: SKIPPED (pytest-cov is not installed;"; \
	  echo "  install it with 'pip install pytest-cov' to measure coverage)"; \
	fi

# Wall-clock speed of the default GPU serving run (simulated requests per
# wall second), with its virtual outputs checked against reference.json.
.PHONY: speed
speed:
	$(PYTHON) speedbench/run.py --workload serve-steady

.PHONY: benchmarks
benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Every benchmark script in a tiny configuration (ETUDE_BENCH_SMOKE=1
# shrinks durations/request counts in benchmarks/conftest.py): proves each
# paper artifact still regenerates and its shape assertions still hold,
# without paying for the full regeneration.
.PHONY: bench-smoke
bench-smoke:
	ETUDE_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

.PHONY: reproduce
reproduce:
	$(PYTHON) -m repro reproduce --out reproduction_report.md
	@echo "wrote reproduction_report.md"

.PHONY: examples
examples:
	@for script in examples/*.py; do \
	  echo "=== $$script"; $(PYTHON) $$script || exit 1; \
	done
