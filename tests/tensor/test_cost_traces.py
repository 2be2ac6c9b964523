"""Golden pins of the cost traces the asset registry builds.

Every field of every ``CostRecord`` of ``AssetRegistry.trace`` is pinned as
its ``repr``, so a float that moves in its last bit fails the test. The
cases cover the ten benchmarked models under eager, jit and onnx execution
at a small catalog (LightSANs records its eager fallback), the non-neural
kNN baseline, one IVF retrieval model, the int8 quantized scoring head and
one virtualized catalog (``catalog_scale > 1``). The expected files live
under ``tests/tensor/cost_traces/``.

After an intended cost-model change, rewrite the expected files with::

    PYTHONPATH=src python tests/tensor/test_cost_traces.py [CASE...]
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.ann.config import RetrievalConfig
from repro.core.registry import AssetRegistry
from repro.models import BENCHMARK_MODELS
from repro.tensor.ops import CostRecord
from repro.tensor.quantization import quantize_model

EXPECTED_DIR = Path(__file__).with_name("cost_traces")

SMALL_CATALOG = 2000
VIRTUAL_CATALOG = 100_000
EXECUTIONS = ("eager", "jit", "onnx")
FIELDS = tuple(field.name for field in dataclasses.fields(CostRecord))
INT8_SUFFIX = "-int8"

#: case name -> (model, catalog size, retrieval spec or None).
CASES = {name: (name, SMALL_CATALOG, None) for name in BENCHMARK_MODELS}
CASES.update({
    "vmisknn": ("vmisknn", SMALL_CATALOG, None),
    "gru4rec-ivf": ("gru4rec", SMALL_CATALOG, "ivf:nlist=32,nprobe=8"),
    "stamp-int8": ("stamp" + INT8_SUFFIX, SMALL_CATALOG, None),
    "gru4rec-virtual": ("gru4rec", VIRTUAL_CATALOG, None),
    "repeatnet-virtual": ("repeatnet", VIRTUAL_CATALOG, None),
})


class Int8Registry(AssetRegistry):
    """A registry that also builds ``<model>-int8``: the model with its
    catalog scoring swapped for the int8 head."""

    def model(self, name, catalog_size, top_k=21, seed=42, retrieval=None):
        if not name.endswith(INT8_SUFFIX):
            return super().model(name, catalog_size, top_k, seed, retrieval)
        key = (name, catalog_size, top_k, seed, None)
        if key not in self._models:
            source = super().model(name[: -len(INT8_SUFFIX)], catalog_size, top_k, seed)
            self._models[key] = quantize_model(source)
        return self._models[key]


def traces(case: str) -> dict:
    """Every execution's trace of one case: effective mode, fallback flag
    and each record's fields as ``repr`` strings."""
    model, catalog_size, spec = CASES[case]
    retrieval = RetrievalConfig.parse(spec) if spec else None
    registry = Int8Registry()
    document = {}
    for execution in EXECUTIONS:
        trace, effective, jit_failed = registry.trace(
            model, catalog_size, execution, retrieval=retrieval
        )
        document[execution] = {
            "effective": effective,
            "jit_failed": jit_failed,
            "records": [
                [repr(getattr(record, field)) for field in FIELDS]
                for record in trace
            ],
        }
    return {"fields": list(FIELDS), "executions": document}


def dump(document: dict) -> str:
    """JSON with one record per line, so a diff names the record that moved."""
    lines = ["{", f'  "fields": {json.dumps(document["fields"])},', '  "executions": {']
    executions = list(document["executions"].items())
    for index, (execution, entry) in enumerate(executions):
        lines.append(f"    {json.dumps(execution)}: {{")
        lines.append(f'      "effective": {json.dumps(entry["effective"])},')
        lines.append(f'      "jit_failed": {json.dumps(entry["jit_failed"])},')
        records = [f"        {json.dumps(record)}" for record in entry["records"]]
        lines.append('      "records": [')
        lines.append(",\n".join(records))
        lines.append("      ]")
        lines.append("    }" + ("," if index < len(executions) - 1 else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cost_trace_unchanged(case):
    expected = json.loads((EXPECTED_DIR / f"{case}.json").read_text())
    assert traces(case) == expected


if __name__ == "__main__":
    EXPECTED_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES) if len(sys.argv) < 2 else sys.argv[1:]:
        (EXPECTED_DIR / f"{case}.json").write_text(dump(traces(case)))
        print(f"wrote {case}")
