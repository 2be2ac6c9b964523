"""Served (unaccounted) forwards answer exactly like traced ones.

With no cost trace and no jit capture active, ops only compute; inside
``cost_trace()`` they also price themselves. Both paths must return the
same arrays, bit for bit and dtype for dtype, for every registered model
(eager and jit), the IVF retrieval model, the int8 scoring head and a
catalog shard's scorer. Both must also keep IEEE semantics quiet: a
forward that overflows to inf/NaN warns on neither path. The asset
registry checks the first property once per model and refuses a model
that breaks it.
"""

import warnings

import numpy as np
import pytest

from repro.ann import AnnSessionRecModel
from repro.ann.recall import sample_sessions
from repro.core.registry import AssetRegistry
from repro.models import MODEL_REGISTRY, ModelConfig, create_model
from repro.sharding.merge import ShardScorer
from repro.tensor import Tensor, cost_trace, optimize_for_inference
from repro.tensor import functional as F
from repro.tensor import ops
from repro.tensor.quantization import quantize_model

CATALOG = 2000
SESSIONS = sample_sessions(CATALOG, num_sessions=20)
#: Models whose forward cannot be jit-traced (the paper's LightSANs case).
NOT_JITTABLE = {"lightsans"}


def build(name):
    return create_model(name, ModelConfig.for_catalog(CATALOG))


def eager_recommend(model):
    """The forward a server runs (``recommend`` may skip it: noop)."""
    return lambda session: model(
        *(Tensor(array) for array in model.prepare_inputs(session))
    ).numpy()


def jit_recommend(model):
    scripted = optimize_for_inference(model, model.example_inputs())
    return lambda session: scripted(*model.prepare_inputs(session)).numpy()


def assert_lean_equals_accounted(recommend):
    """``recommend(session)`` returns an array or a tuple of arrays."""
    served = [recommend(session) for session in SESSIONS]
    with cost_trace() as trace:
        traced = [recommend(session) for session in SESSIONS]
    assert len(trace) > 0, "the traced pass recorded no op"
    for lean, accounted in zip(served, traced):
        for a, b in zip(arrays_of(lean), arrays_of(accounted)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def arrays_of(answer):
    return answer if isinstance(answer, tuple) else (answer,)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_eager_model(name):
    assert_lean_equals_accounted(eager_recommend(build(name)))


@pytest.mark.parametrize("name", sorted(set(MODEL_REGISTRY) - NOT_JITTABLE))
def test_jit_model(name):
    assert_lean_equals_accounted(jit_recommend(build(name)))


@pytest.mark.parametrize("jit", [False, True], ids=["eager", "jit"])
def test_ivf_retrieval_model(jit):
    model = AnnSessionRecModel(build("gru4rec"), nlist=32, nprobe=8)
    assert_lean_equals_accounted((jit_recommend if jit else eager_recommend)(model))


@pytest.mark.parametrize("jit", [False, True], ids=["eager", "jit"])
def test_int8_head(jit):
    model = quantize_model(build("stamp"))
    assert_lean_equals_accounted((jit_recommend if jit else eager_recommend)(model))


def test_shard_scorer():
    scorer = ShardScorer(build("narm"), shard_index=1, shards=3)
    assert_lean_equals_accounted(scorer.recommend_with_scores)


@pytest.mark.parametrize("jit", [False, True], ids=["eager", "jit"])
def test_overflow_warns_on_neither_path(jit):
    model = build("gru4rec")
    for param in model.parameters():
        param.data *= np.float32(1e30)  # in place: views share the storage
    padded, length = model.prepare_inputs(SESSIONS[0])
    scores = model.score_catalog(model.encode_session(Tensor(padded), Tensor(length)))
    assert not np.isfinite(scores.numpy()).all(), "the forward must overflow"
    recommend = (jit_recommend if jit else eager_recommend)(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_lean_equals_accounted(recommend)


def test_registry_refuses_a_model_that_serves_another_answer(monkeypatch):
    registry = AssetRegistry()
    model = registry.model("gru4rec", CATALOG)
    forward = type(model).forward

    def drifting(self, items, length):
        answer = forward(self, items, length)
        return answer if ops.accounting() else F.scale(answer, 2.0)

    monkeypatch.setattr(type(model), "forward", drifting)
    with pytest.raises(RuntimeError, match="unaccounted forward"):
        registry.trace("gru4rec", CATALOG, "eager")
