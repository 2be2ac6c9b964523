"""The feature table's contracts: named errors for bad option values,
one-line errors for bad spec files, and the declared composition matrix."""

import contextlib
import io
import json

import pytest

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.cli import build_parser, main
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.composition import INCOMPATIBLE
from repro.cluster.kubernetes import DeploymentError
from repro.cluster.routing import RoutingPolicy
from repro.core.experiment import ExperimentRunner
from repro.core.features import FEATURES
from repro.core.infra_test import run_infra_test
from repro.core.registry import AssetRegistry
from repro.core.spec import ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict
from repro.exec.config import BackendConfig
from repro.loadgen.retry import RetryPolicy
from repro.scheduler.config import SchedulerConfig
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig


@pytest.mark.parametrize(
    "parse, text, fragments",
    [
        (RetryPolicy.parse, "max=2.5", ("retry", "max", "integer", "'2.5'")),
        (ChaosSchedule.parse, "crash@5:restart=soon", ("chaos", "restart", "seconds")),
        (AdmissionPolicy.parse, "slack=soon", ("admission", "slack", "number")),
        (RoutingPolicy.parse, "eject=x", ("routing", "eject", "integer")),
        (FallbackConfig.parse, "topk=many", ("fallback", "topk", "integer")),
        (CacheConfig.parse, "capacity=lots", ("cache", "capacity", "integer")),
        (ShardingConfig.parse, "partial=maybe", ("sharding", "partial", "on/off")),
        (RetrievalConfig.parse, "ivf:nprobe=x", ("retrieval", "nprobe", "integer")),
        (SchedulerConfig.parse, "linger=soon", ("scheduler", "linger", "number")),
        (TenancyConfig.parse, "a=stamp:1,slo=fast", ("tenant", "slo", "number")),
        (BackendConfig.parse, "mp:workers=two", ("backend", "workers", "integer")),
    ],
)
def test_bad_option_value_names_grammar_key_and_type(parse, text, fragments):
    with pytest.raises(ValueError) as error:
        parse(text)
    for fragment in fragments:
        assert fragment in str(error.value)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--cache", "capacity=lots"], "--cache"),
        (["run", "--retry", "max=2.5"], "--retry"),
        (["run", "--zones", "0"], "--zones"),
        (["infra-test", "--slo-deadline", "-1"], "--slo-deadline"),
        (["plan", "--catalog", "9", "--rps", "1", "--scheduler", "q=x"], "--scheduler"),
    ],
)
def test_bad_flag_value_is_a_usage_error_naming_the_flag(argv, flag):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    assert stop.value.code == 2
    assert f"argument {flag}:" in stderr.getvalue()


def test_flags_keep_their_text():
    args = build_parser().parse_args(["run", "--cache", "lfu", "--zones", "2"])
    assert (args.cache, args.zones) == ("lfu", "2")


class TestSpecFileErrors:
    def run_spec(self, path):
        with pytest.raises(SystemExit) as stop:
            main(["run", "--spec", str(path)], out=io.StringIO())
        message = str(stop.value.code)
        assert str(path) in message and "\n" not in message
        return message

    def write(self, tmp_path, document):
        path = tmp_path / "spec.json"
        path.write_text(document)
        return path

    def test_missing_file(self, tmp_path):
        message = self.run_spec(tmp_path / "absent.json")
        assert "No such file" in message

    def test_invalid_json(self, tmp_path):
        message = self.run_spec(self.write(tmp_path, "{not json"))
        assert "Expecting property name" in message

    def test_unknown_key(self, tmp_path):
        document = {"model": "stamp", "catalog_size": 100, "target_rps": 5,
                    "cach": "lru"}
        message = self.run_spec(self.write(tmp_path, json.dumps(document)))
        assert "unknown spec keys: ['cach']" in message

    def test_bad_spec_string(self, tmp_path):
        document = {"model": "stamp", "catalog_size": 100, "target_rps": 5,
                    "cache": "capacity=lots"}
        message = self.run_spec(self.write(tmp_path, json.dumps(document)))
        assert "'cache'" in message and "capacity needs an integer" in message


def test_spec_file_keys_come_from_the_table():
    document = {"model": "stamp", "catalog_size": 100, "target_rps": 5,
                "shards": "2", "zones": 2, "slo_deadline_s": 0.05}
    spec, _slo = spec_from_dict(document)
    assert spec.sharding == ShardingConfig(shards=2)
    assert (spec.zones, spec.slo_deadline_s) == (2, 0.05)
    assert {f.spec_key for f in FEATURES.values()} >= {"shards", "tenants"}


#: A value that turns each matrix feature on.
ENABLED = {
    "tenants": "a=stamp:1;b=stamp:1",
    "sharding": "2",
    "scheduler": "cpu=1",
    "retrieval": "ivf:nlist=32",
}


@pytest.mark.parametrize("pair", sorted(INCOMPATIBLE))
def test_incompatible_pair_fails_before_any_asset_build(pair, monkeypatch):
    def no_assets(*_args, **_kwargs):
        raise AssertionError("an asset was built before the composition check")

    monkeypatch.setattr(AssetRegistry, "assets", no_assets)
    spec = ExperimentSpec(
        model="stamp", catalog_size=2000, target_rps=10,
        hardware=HardwareSpec("GPU-T4", 1), duration_s=5.0,
        **{name: ENABLED[name] for name in pair},
    )
    with pytest.raises(DeploymentError) as error:
        ExperimentRunner(seed=3).run(spec)
    assert str(error.value) == INCOMPATIBLE[pair]


def test_infra_test_checks_the_pairs_it_models():
    with pytest.raises(ValueError) as error:
        run_infra_test(
            "actix", duration_s=5.0,
            tenants=TenancyConfig.parse(ENABLED["tenants"]),
            sharding=ShardingConfig(shards=2),
        )
    assert str(error.value) == INCOMPATIBLE[("tenants", "sharding")]


def test_composition_message_reaches_the_cli():
    with pytest.raises(SystemExit) as stop:
        main(["infra-test", "--duration", "5", "--shards", "2",
              "--tenants", ENABLED["tenants"]], out=io.StringIO())
    assert stop.value.code == INCOMPATIBLE[("tenants", "sharding")]
