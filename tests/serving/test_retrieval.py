"""ANN retrieval end to end: spec/CLI wiring, the disabled-mode
bit-identity contract, artifact versioning under index-parameter changes,
composition with catalog sharding, and the recall-floored planner gate."""

import pytest

from repro.ann.config import RetrievalConfig
from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.hardware import GPU_T4

CATALOG = 3_000
DURATION_S = 10.0


def spec(**overrides):
    base = dict(
        model="gru4rec", catalog_size=CATALOG, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=DURATION_S,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestConfig:
    def test_parse_full_spec(self):
        config = RetrievalConfig.parse("ivf:nlist=1024,nprobe=32")
        assert config.kind == "ivf"
        assert config.nlist == 1024 and config.nprobe == 32
        assert config.enabled
        assert config.spec_string() == "ivf:nlist=1024,nprobe=32"

    def test_default_nprobe_omitted_from_spec_string(self):
        assert RetrievalConfig.parse("ivf:nlist=32").spec_string() == "ivf:nlist=32"

    def test_exact_is_disabled(self):
        for text in ("exact", "off", "none"):
            assert not RetrievalConfig.parse(text).enabled

    def test_unknown_kind_and_option_rejected(self):
        with pytest.raises(ValueError, match="ivf"):
            RetrievalConfig.parse("hnsw:m=16")
        with pytest.raises(ValueError, match="nlist"):
            RetrievalConfig.parse("ivf:depth=4")

    def test_index_build_cost_scales_with_catalog(self):
        config = RetrievalConfig.parse("ivf:nlist=1024")
        small = config.index_build_seconds(1_000_000, 64, GPU_T4.device)
        large = config.index_build_seconds(20_000_000, 64, GPU_T4.device)
        assert 0.0 < small < large


class TestSpecWiring:
    def test_string_spec_coerces_to_config(self):
        s = spec(retrieval="ivf:nlist=32,nprobe=4")
        assert isinstance(s.retrieval, RetrievalConfig)
        assert s.retrieval.nlist == 32

    def test_specfile_round_trip(self):
        s = spec(retrieval="ivf:nlist=32,nprobe=4")
        document = spec_to_dict(s)
        assert document["retrieval"] == "ivf:nlist=32,nprobe=4"
        restored, _slo = spec_from_dict(document)
        assert restored.retrieval == s.retrieval

    def test_specfile_omits_disabled_retrieval(self):
        assert "retrieval" not in spec_to_dict(spec())

    def test_cli_flag_parsing(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "--model", "gru4rec", "--catalog", "3000", "--rps", "40",
             "--retrieval", "ivf:nlist=64,nprobe=8"]
        )
        assert args.retrieval == "ivf:nlist=64,nprobe=8"
        bare = parser.parse_args(["infra-test", "--retrieval"])
        assert bare.retrieval == "ivf"
        plan = parser.parse_args(
            ["plan", "--catalog", "3000", "--rps", "40", "--min-recall", "0.9"]
        )
        assert plan.retrieval is None and plan.min_recall == 0.9


class TestDisabledBitIdentity:
    """PR 3-5 contract: opting out must not perturb a single byte."""

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_exact_mode_byte_identical(self, instance):
        baseline = ExperimentRunner(seed=7).run(
            spec(hardware=HardwareSpec(instance, 1))
        )
        disabled = ExperimentRunner(seed=7).run(
            spec(hardware=HardwareSpec(instance, 1), retrieval="exact")
        )
        assert baseline.to_json() == disabled.to_json()
        assert baseline.retrieval is None and disabled.retrieval is None


class TestServedRuns:
    def test_retrieval_section_contents(self):
        result = ExperimentRunner(seed=7).run(
            spec(retrieval="ivf:nlist=32,nprobe=8")
        )
        section = result.retrieval
        assert section is not None
        assert section["config"] == "ivf:nlist=32"
        assert section["kind"] == "ivf" and section["nlist"] == 32
        assert result.error_requests == 0
        assert section["ann_queries"] == result.ok_requests > 0
        assert section["ann_probed_lists"] == section["ann_queries"] * 8
        assert 0.0 <= section["recall_at_k"] <= 1.0
        assert section["index_build_s"] > 0.0
        assert 0.0 < section["probed_fraction"] <= 1.0

    def test_artifact_version_tracks_index_parameters(self):
        """Different nlist/nprobe must produce different artifact versions,
        so every cache key derived from the artifact changes on redeploy."""
        runner = ExperimentRunner(seed=7)
        runner.run(spec(retrieval="ivf:nlist=32,nprobe=4"))
        runner.run(spec(retrieval="ivf:nlist=32,nprobe=8"))
        paths = [
            path
            for path in runner.infra.bucket.list_blobs("models/")
            if "-ivf" in path
        ]
        assert len(paths) == 2 and len(set(paths)) == 2

    def test_composes_with_sharding(self):
        result = ExperimentRunner(seed=7).run(
            spec(retrieval="ivf:nlist=32,nprobe=8", sharding="2")
        )
        assert result.sharding is not None
        assert result.sharding["mean_coverage"] == 1.0
        assert result.retrieval is not None
        # Every merged 200 fanned out to both shards, each probing its own
        # per-shard index.
        assert result.retrieval["ann_queries"] >= 2 * result.ok_requests


class TestPlannerGate:
    def test_empty_retrieval_options_rejected(self):
        from repro.core import DeploymentPlanner

        with pytest.raises(ValueError):
            DeploymentPlanner(retrieval_options=())

    def test_recall_floor_blocks_low_probe_candidates(self):
        from repro.core import DeploymentPlanner
        from repro.core.spec import Scenario
        from repro.hardware.instances import instance_by_name

        config = RetrievalConfig.parse("ivf:nlist=64,nprobe=1")
        planner = DeploymentPlanner(
            duration_s=DURATION_S,
            retrieval_options=(None, config),
            min_recall=0.99,
        )
        plan = planner.plan(
            Scenario("tiny", CATALOG, 30), ["gru4rec"],
            [instance_by_name("GPU-T4")],
        )["gru4rec"]
        key = f"GPU-T4 [{config.spec_string()}]"
        assert key in plan.infeasible
        assert "recall" in plan.infeasible[key]
        assert all(option.retrieval is None for option in plan.options)

    def test_exact_wins_cost_ties(self):
        from repro.core.planner import DeploymentOption, ScenarioPlan
        from repro.core.spec import Scenario

        plan = ScenarioPlan(scenario=Scenario("t", 1000, 10), model="gru4rec")
        ann = DeploymentOption(
            instance_type="CPU", replicas=1, monthly_cost_usd=100.0,
            result=None, retrieval="ivf:nlist=8",
        )
        exact = DeploymentOption(
            instance_type="CPU", replicas=1, monthly_cost_usd=100.0,
            result=None,
        )
        plan.options = [ann, exact]
        assert plan.cheapest() is exact
