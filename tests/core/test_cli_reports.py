"""Byte-for-byte pins of the CLI's report text.

Each case runs one small ``python -m repro`` invocation in-process and
compares everything it prints (plus the exit status) against a checked-in
file under ``tests/core/cli_reports/``. Together the cases turn every
opt-in feature on at least once, on CPU and on GPU-T4, and cover
``run --spec`` with overriding flags, ``drill``, ``plan`` and the
``--help`` text of the four commands with the most options.

Budget: 2,000-item catalogs and at most 10 s of virtual load per run.

After an intended output change, rewrite the expected files with::

    PYTHONPATH=src python tests/core/test_cli_reports.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from repro.cli import main

EXPECTED_DIR = Path(__file__).with_name("cli_reports")

#: The spec file of the ``run_spec_overrides`` case.
SPEC_DOCUMENT = {
    "model": "stamp",
    "catalog_size": 2000,
    "target_rps": 40,
    "duration_s": 8,
    "cache": "lru,capacity=256",
    "retry": "max=2",
    "slo": {"p90_latency_ms": 20},
}

CASES = {
    # CPU: a tenant fleet with a canary arm, a rollout, a shadow and a cache.
    "run_cpu_tenants": [
        "run", "--model", "stamp", "--catalog", "2000", "--rps", "40",
        "--duration", "10", "--cache", "--tenants",
        "home=stamp:3,slo=200;search=stamp:1,slo=400,canary=0.25,rollout=5;"
        "mirror=stamp:0.2,shadow",
    ],
    # CPU: client retries bridging a pod crash.
    "run_cpu_retry_chaos": [
        "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "30",
        "--duration", "10", "--execution", "eager", "--retry",
        "--chaos", "crash@4:restart=3",
    ],
    # GPU: the heterogeneous scheduler beside IVF retrieval.
    "run_gpu_scheduler_ivf": [
        "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "100",
        "--instance", "GPU-T4", "--duration", "8",
        "--scheduler", "cpu=1,target=20", "--retrieval", "ivf:nlist=32,nprobe=8",
    ],
    # GPU: shards with zones, cache, retry, chaos, admission, fallback and
    # routing.
    "run_gpu_shards_all": [
        "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "100",
        "--instance", "GPU-T4", "--duration", "8", "--shards", "2",
        "--zones", "2", "--cache", "lfu,capacity=512", "--retry", "max=2",
        "--chaos", "crash@3:restart=2", "--slo-deadline", "0.01",
        "--admission", "codel,slack=0.002", "--fallback",
        "--routing", "lor,eject=3",
    ],
    "infra_actix_shards_all": [
        "infra-test", "--rps", "300", "--duration", "8",
        "--retry", "max=2,hedge=0.05", "--chaos", "slow@2:factor=4:dur=3",
        "--slo-deadline", "0.005", "--admission", "codel,slack=0.001",
        "--fallback", "budget=0.001", "--cache", "lfu,window=2",
        "--shards", "2",
    ],
    "infra_actix_tenants_retrieval": [
        "infra-test", "--rps", "6000", "--duration", "6", "--tenants",
        "a=noop:1,slo=50,burst=4;b=noop:1,slo=50,canary=0.5;fair=16",
        "--retrieval", "--admission", "slack=0.01", "--fallback",
    ],
    "infra_torchserve": [
        "infra-test", "--server", "torchserve", "--rps", "100",
        "--duration", "5",
    ],
    # The spec file's cache and retry are overridden; zones are added.
    "run_spec_overrides": [
        "run", "--spec", "{spec}", "--cache", "lfu", "--retry", "max=1",
        "--zones", "2",
    ],
    "drill": [
        "drill", "--model", "gru4rec", "--catalog", "2000", "--rps", "30",
        "--duration", "10", "--zones", "2", "--routing", "lor,eject=2",
    ],
    "plan": [
        "plan", "--catalog", "2000", "--rps", "20", "--duration", "10",
        "--models", "gru4rec", "--max-replicas", "2",
    ],
    "help_run": ["run", "--help"],
    "help_infra": ["infra-test", "--help"],
    "help_plan": ["plan", "--help"],
    "help_drill": ["drill", "--help"],
}


def render(name: str, spec_dir: Path) -> str:
    """Everything one case prints, followed by its exit status."""
    spec_path = spec_dir / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DOCUMENT))
    argv = [arg.replace("{spec}", str(spec_path)) for arg in CASES[name]]
    out = io.StringIO()
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = main(argv, out=out)
            except SystemExit as stop:
                code = stop.code
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous
    return out.getvalue() + f"[exit {code}]\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_unchanged(name, tmp_path):
    expected = (EXPECTED_DIR / f"{name}.txt").read_text()
    assert render(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    EXPECTED_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES if len(sys.argv) < 2 else sys.argv[1:]):
            (EXPECTED_DIR / f"{case}.txt").write_text(render(case, Path(scratch)))
            print(f"wrote {case}")
