"""Primitive kernels and their cost accounting.

Every tensor operation in :mod:`repro.tensor` funnels through :func:`run_op`.
A kernel is registered by name (:func:`kernel`) as two functions: a
*compute* function that runs the real numpy kernel, and a *cost* function
that prices one call as a :class:`CostRecord`. :func:`run_op` has two paths,
chosen by :func:`accounting`:

- **lean**, when no :class:`CostTrace` and no jit graph capture is active
  (every served forward): the compute function only;
- **accounted**, inside :func:`cost_trace` or a jit capture: the compute
  function, then the cost function, whose record :func:`account` finishes
  and appends to the active traces. :func:`account` is the one record
  builder; :class:`repro.tensor.jit.ScriptedModule` uses it too.

Both paths return the same Tensor. The records carry everything the
roofline latency model in :mod:`repro.hardware.latency_model` needs:

- ``flops``          floating point operations performed,
- ``param_bytes``    bytes of *parameters* read (amortizable over a batch),
- ``read_bytes``     bytes of per-request activations read,
- ``write_bytes``    bytes of per-request activations written,
- ``launches``       kernel launches (the per-op dispatch overhead unit),
- ``host_op``        whether the op runs on the host interpreter even when
                     the model is deployed on an accelerator (the SR-GNN /
                     GC-SAN numpy-in-forward bug from the paper),
- ``transfer_bytes`` bytes crossing the host/device boundary for host ops,
- ``catalog_scale``  multiplier for ops whose tensors stand in for a larger
                     virtualized catalog (see
                     :class:`repro.tensor.layers.CatalogEmbedding`).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import Tensor

# ---------------------------------------------------------------------------
# Cost records and traces
# ---------------------------------------------------------------------------


@dataclass
class CostRecord:
    """Cost metadata for one executed kernel."""

    op: str = ""
    launches: int = 1
    flops: float = 0.0
    param_bytes: float = 0.0
    read_bytes: float = 0.0
    write_bytes: float = 0.0
    host_op: bool = False
    transfer_bytes: float = 0.0
    catalog_scale: float = 1.0
    elementwise: bool = False
    batch_invariant: bool = False

    def scaled(self) -> "CostRecord":
        """Return a copy with the catalog scale folded into the raw costs."""
        s = self.catalog_scale
        return CostRecord(
            op=self.op,
            launches=self.launches,
            flops=self.flops * s,
            param_bytes=self.param_bytes * s,
            read_bytes=self.read_bytes * s,
            write_bytes=self.write_bytes * s,
            host_op=self.host_op,
            transfer_bytes=self.transfer_bytes * s,
            catalog_scale=1.0,
            elementwise=self.elementwise,
            batch_invariant=self.batch_invariant,
        )


@dataclass
class CostTrace:
    """An ordered stream of cost records for one model invocation."""

    records: List[CostRecord] = field(default_factory=list)

    def append(self, record: CostRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[CostRecord]:
        return iter(self.records)

    @property
    def total_flops(self) -> float:
        return sum(r.flops * r.catalog_scale for r in self.records)

    @property
    def total_launches(self) -> int:
        return sum(r.launches for r in self.records)

    @property
    def total_param_bytes(self) -> float:
        return sum(r.param_bytes * r.catalog_scale for r in self.records)

    @property
    def total_activation_bytes(self) -> float:
        return sum(
            (r.read_bytes + r.write_bytes) * r.catalog_scale for r in self.records
        )

    @property
    def total_transfer_bytes(self) -> float:
        return sum(r.transfer_bytes * r.catalog_scale for r in self.records)

    @property
    def host_op_count(self) -> int:
        return sum(1 for r in self.records if r.host_op)

    def summary(self) -> Dict[str, float]:
        """Aggregate totals, useful for debugging and reports."""
        return {
            "ops": float(len(self.records)),
            "launches": float(self.total_launches),
            "flops": self.total_flops,
            "param_bytes": self.total_param_bytes,
            "activation_bytes": self.total_activation_bytes,
            "transfer_bytes": self.total_transfer_bytes,
            "host_ops": float(self.host_op_count),
        }


_TRACE_STACK: List[CostTrace] = []


@contextlib.contextmanager
def cost_trace() -> Iterator[CostTrace]:
    """Collect the cost records of all ops executed inside the block."""
    trace = CostTrace()
    _TRACE_STACK.append(trace)
    try:
        yield trace
    finally:
        _TRACE_STACK.remove(trace)


def current_trace() -> Optional[CostTrace]:
    """The innermost active cost trace, or ``None``."""
    return _TRACE_STACK[-1] if _TRACE_STACK else None


# ---------------------------------------------------------------------------
# Graph capture hook (used by repro.tensor.jit)
# ---------------------------------------------------------------------------

_GRAPH_BUILDER = None


def set_graph_builder(builder) -> None:
    """Install (or clear, with ``None``) the active jit graph builder."""
    global _GRAPH_BUILDER
    _GRAPH_BUILDER = builder


def is_capturing() -> bool:
    return _GRAPH_BUILDER is not None


def accounting() -> bool:
    """Whether ops price themselves: a cost trace or a jit capture is active.

    Served forwards run with neither, so they only compute.
    """
    return bool(_TRACE_STACK) or _GRAPH_BUILDER is not None


# ---------------------------------------------------------------------------
# Kernel registry, dispatch and the record builder
# ---------------------------------------------------------------------------

#: Kernel name -> compute function ``(arrays, attrs) -> out``.
KERNELS: Dict[str, Callable] = {}
#: Kernel name -> cost function ``(arrays, attrs, out) -> CostRecord``.
COSTS: Dict[str, Callable] = {}


def kernel(name: str, cost: Callable):
    """Register the decorated compute function as kernel ``name``.

    ``compute(arrays, attrs) -> out`` runs the numpy kernel on the unwrapped
    inputs and returns the output ndarray; nothing else. ``cost(arrays,
    attrs, out) -> CostRecord`` prices one call from the shapes and byte
    counts of its inputs and output and its attrs (the two index-search
    kernels also replay their probe). It runs on the accounted path only,
    and :func:`account` fills in the rest of the record.
    """

    def decorate(compute):
        KERNELS[name] = compute
        COSTS[name] = cost
        return compute

    return decorate


def account(
    op: str,
    record: CostRecord,
    catalog_scale: float,
    batch_invariant: bool,
    reads: Iterable[Tuple[float, bool]],
) -> CostRecord:
    """Finish a kernel's cost record and append it to every active trace
    (outermost first).

    Stamps the op name, catalog scale and batch invariance. ``reads`` are
    the ``(nbytes, shared)`` inputs the op reads: unless the cost function
    booked its bytes itself, shared inputs (parameters AND batch-invariant
    activations, e.g. a normalized copy of the catalog table) count as
    ``param_bytes``, because their reads amortize over a batch like weight
    streaming, and the rest as ``read_bytes``.
    """
    record.op = op
    record.catalog_scale = catalog_scale
    record.batch_invariant = batch_invariant
    if record.param_bytes == 0.0 and record.read_bytes == 0.0:
        for nbytes, shared in reads:
            if shared:
                record.param_bytes += nbytes
            else:
                record.read_bytes += nbytes
    for trace in _TRACE_STACK:
        trace.append(record)
    return record


def _unwrap(inputs: Sequence) -> Tuple[list, float, bool]:
    """(arrays, catalog scale, batch invariance) of an op's inputs.

    The output stands in for the largest virtualized catalog among its
    Tensor inputs, and is batch-invariant when each of them is a parameter
    or batch-invariant. Both tags ride on the output on either path, so a
    tensor computed outside a trace is priced right by a later traced op.
    """
    arrays = []
    scale = 1.0
    invariant = True
    for value in inputs:
        if isinstance(value, Tensor):
            arrays.append(value.data)
            scale = max(scale, value.catalog_scale)
            if not (value.is_param or value.batch_invariant):
                invariant = False
        else:
            arrays.append(value)
    return arrays, scale, invariant


def _reads(inputs: Sequence) -> Iterator[Tuple[float, bool]]:
    """The ``(nbytes, shared)`` reads of an eager op; scalars read nothing."""
    for value in inputs:
        if isinstance(value, Tensor):
            yield value.data.nbytes, value.is_param or value.batch_invariant
        elif isinstance(value, np.ndarray):
            yield value.nbytes, False


def run_op(name: str, inputs: Sequence, attrs: Optional[dict] = None) -> Tensor:
    """Run the registered kernel ``name``, priced when :func:`accounting`.

    ``inputs`` may mix :class:`~repro.tensor.tensor.Tensor`, ndarray and
    Python scalars. Returns a Tensor wrapping the kernel output, tagged with
    the inputs' catalog scale and batch invariance.
    """
    attrs = attrs or {}
    arrays, scale, invariant = _unwrap(inputs)
    # IEEE float semantics (inf/nan propagate) without warning noise, as in
    # the frameworks this substrate stands in for.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = KERNELS[name](arrays, attrs)
        cost = COSTS[name](arrays, attrs, out) if accounting() else None
    result = Tensor(out, catalog_scale=scale, batch_invariant=invariant)
    if cost is not None:
        record = account(name, cost, scale, invariant, _reads(inputs))
        if _GRAPH_BUILDER is not None:
            _GRAPH_BUILDER.add_op(name, inputs, attrs, result, record)
    return result


# ---------------------------------------------------------------------------
# Cost helpers
# ---------------------------------------------------------------------------


def _written(out: np.ndarray, flops: float, elementwise: bool = False) -> CostRecord:
    """One launch doing ``flops`` and writing ``out`` once."""
    return CostRecord(
        flops=float(flops), write_bytes=float(out.nbytes), elementwise=elementwise
    )


def _per_element(flops: float, elementwise: bool = False) -> Callable:
    """Cost function: ``flops`` per output element, the output written once."""
    return lambda arrays, attrs, out: _written(out, out.size * flops, elementwise)


def _free(arrays, attrs, out) -> CostRecord:
    """Views are free in eager PyTorch: no launch, no traffic."""
    return CostRecord(launches=0)


# ---------------------------------------------------------------------------
# Elementwise kernels
# ---------------------------------------------------------------------------

_ELEMENTWISE_NUMPY = {
    "add": (np.add, 1.0),
    "sub": (np.subtract, 1.0),
    "mul": (np.multiply, 1.0),
    "div": (np.divide, 1.0),
    "maximum": (np.maximum, 1.0),
    "minimum": (np.minimum, 1.0),
    "pow": (np.power, 4.0),
}

for _name, (_fn, _factor) in _ELEMENTWISE_NUMPY.items():
    kernel(_name, _per_element(_factor, elementwise=True))(
        lambda arrays, attrs, _fn=_fn: np.asarray(
            _fn(arrays[0], arrays[1]), dtype=np.float32
        )
    )


_UNARY_NUMPY = {
    "neg": (np.negative, 1.0),
    "exp": (np.exp, 6.0),
    "log": (np.log, 6.0),
    "sqrt": (np.sqrt, 2.0),
    "tanh": (np.tanh, 8.0),
    "abs": (np.abs, 1.0),
}

for _name, (_fn, _factor) in _UNARY_NUMPY.items():
    kernel(_name, _per_element(_factor, elementwise=True))(
        lambda arrays, attrs, _fn=_fn: np.asarray(_fn(arrays[0]), dtype=np.float32)
    )


@kernel("sigmoid", _per_element(8.0, elementwise=True))
def _sigmoid_kernel(arrays, attrs):
    x = np.asarray(arrays[0], dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(np.float32)


@kernel("relu", _per_element(1.0, elementwise=True))
def _relu_kernel(arrays, attrs):
    return np.maximum(arrays[0], 0.0).astype(np.float32)


@kernel("gelu", _per_element(12.0, elementwise=True))
def _gelu_kernel(arrays, attrs):
    x = arrays[0]
    c = math.sqrt(2.0 / math.pi)
    return (0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))).astype(np.float32)


@kernel("scale", _per_element(1.0, elementwise=True))
def _scale_kernel(arrays, attrs):
    return (arrays[0] * attrs["factor"]).astype(np.float32)


@kernel("fill_constant", _per_element(0.0, elementwise=True))
def _fill_constant_kernel(arrays, attrs):
    return np.full(attrs["shape"], attrs["value"], dtype=np.float32)


# ---------------------------------------------------------------------------
# Linear algebra kernels
# ---------------------------------------------------------------------------


@kernel(
    "matmul",
    lambda arrays, attrs, out: _written(out, 2.0 * out.size * arrays[0].shape[-1]),
)
def _matmul_kernel(arrays, attrs):
    return np.matmul(arrays[0], arrays[1]).astype(np.float32)


def _affine(arrays) -> np.ndarray:
    out = np.matmul(arrays[0], arrays[1].T)
    if len(arrays) > 2 and arrays[2] is not None:
        out = out + arrays[2]
    return out


@kernel(
    "linear",
    lambda arrays, attrs, out: _written(
        out, 2.0 * out.size * arrays[0].shape[-1] + out.size
    ),
)
def _linear_kernel(arrays, attrs):
    """Fused ``x @ W.T + b`` — the workhorse of every model here."""
    return _affine(arrays).astype(np.float32)


@kernel(
    "linear_act",
    lambda arrays, attrs, out: _written(
        out, 2.0 * out.size * arrays[0].shape[-1] + 9.0 * out.size
    ),
)
def _linear_act_kernel(arrays, attrs):
    """JIT-fused linear + activation, produced by the fusion pass."""
    out = _affine(arrays)
    activation = attrs.get("activation", "relu")
    if activation == "relu":
        out = np.maximum(out, 0.0)
    elif activation == "tanh":
        out = np.tanh(out)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-out))
    return out.astype(np.float32)


@kernel("outer", _per_element(1.0))
def _outer_kernel(arrays, attrs):
    return np.outer(arrays[0], arrays[1]).astype(np.float32)


# ---------------------------------------------------------------------------
# Shape kernels (views are free in eager PyTorch; copies are not)
# ---------------------------------------------------------------------------


@kernel("reshape", _free)
def _reshape_kernel(arrays, attrs):
    return arrays[0].reshape(attrs["shape"])


@kernel("transpose", _free)
def _transpose_kernel(arrays, attrs):
    return np.transpose(arrays[0], attrs.get("axes"))


@kernel("concat", _per_element(0.0, elementwise=True))
def _concat_kernel(arrays, attrs):
    return np.concatenate(arrays, axis=attrs.get("axis", -1)).astype(np.float32)


@kernel("stack", _per_element(0.0, elementwise=True))
def _stack_kernel(arrays, attrs):
    return np.stack(arrays, axis=attrs.get("axis", 0)).astype(np.float32)


@kernel("slice", _per_element(0.0))
def _slice_kernel(arrays, attrs):
    return np.ascontiguousarray(arrays[0][attrs["key"]])


@kernel("pad_rows", _per_element(0.0))
def _pad_rows_kernel(arrays, attrs):
    x = arrays[0]
    pad = attrs["target"] - x.shape[0]
    return np.pad(x, [(0, pad)] + [(0, 0)] * (x.ndim - 1)).astype(np.float32)


# ---------------------------------------------------------------------------
# Reductions, normalization, attention pieces
# ---------------------------------------------------------------------------


def _input_passes(flops_per_element: float, passes: float) -> Callable:
    """Cost function of a kernel that reads its first input ``passes`` times."""

    def cost(arrays, attrs, out):
        x = arrays[0]
        record = _written(out, flops_per_element * x.size)
        record.read_bytes = float(x.nbytes) * passes
        return record

    return cost


def _reduction(reduce: Callable) -> Callable:
    def compute(arrays, attrs):
        out = reduce(arrays[0], axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))
        return np.asarray(out, dtype=np.float32)

    return compute


for _name, _reduce in (("reduce_sum", np.sum), ("reduce_mean", np.mean), ("reduce_max", np.max)):
    kernel(_name, _input_passes(1.0, 1.0))(_reduction(_reduce))


@kernel("softmax", _input_passes(8.0, 3.0))  # max, exp, normalize passes
def _softmax_kernel(arrays, attrs):
    x = arrays[0]
    axis = attrs.get("axis", -1)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return (exp / np.sum(exp, axis=axis, keepdims=True)).astype(np.float32)


@kernel("layer_norm", _input_passes(8.0, 2.0))
def _layer_norm_kernel(arrays, attrs):
    x, gamma, beta = arrays
    eps = attrs.get("eps", 1e-6)
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)


@kernel("masked_fill", _per_element(1.0, elementwise=True))
def _masked_fill_kernel(arrays, attrs):
    x, mask = arrays
    return np.where(mask.astype(bool), np.float32(attrs["value"]), x).astype(np.float32)


@kernel("where", _per_element(1.0, elementwise=True))
def _where_kernel(arrays, attrs):
    cond, a, b = arrays
    return np.where(cond.astype(bool), a, b).astype(np.float32)


# ---------------------------------------------------------------------------
# Embedding / gather / top-k kernels
# ---------------------------------------------------------------------------


def _lookup_cost(arrays, attrs, out) -> CostRecord:
    record = _written(out, 0.0)
    record.param_bytes = float(out.nbytes)  # only touched rows are read
    return record


@kernel("embedding_lookup", _lookup_cost)
def _embedding_lookup_kernel(arrays, attrs):
    table, ids = arrays
    return table[np.asarray(ids, dtype=np.int64)].astype(np.float32)


@kernel("index_select", _per_element(0.0))
def _index_select_kernel(arrays, attrs):
    x, ids = arrays
    idx = np.asarray(ids, dtype=np.int64)
    return np.take(x, idx, axis=attrs.get("axis", 0)).astype(np.float32)


@kernel("scatter_add_rows", lambda arrays, attrs, out: _written(out, arrays[0].size))
def _scatter_add_rows_kernel(arrays, attrs):
    """out[ids[i]] += x[i] over rows — used by graph aggregation."""
    x, ids = arrays
    out = np.zeros((attrs["num_rows"],) + x.shape[1:], dtype=np.float32)
    np.add.at(out, np.asarray(ids, dtype=np.int64), x)
    return out


def _topk_cost(arrays, attrs, out) -> CostRecord:
    scores = arrays[0]
    k = min(attrs["k"], scores.shape[-1])
    return CostRecord(
        flops=2.0 * scores.size + scores.size * math.log2(max(k, 2)),
        read_bytes=float(scores.nbytes),
        write_bytes=float(out.nbytes),
    )


@kernel("topk", _topk_cost)
def _topk_kernel(arrays, attrs):
    scores = arrays[0]
    k = min(attrs["k"], scores.shape[-1])
    part = np.argpartition(-scores, k - 1, axis=-1)
    top = np.take(part, np.arange(k), axis=-1)
    top_scores = np.take_along_axis(scores, top, axis=-1)
    order = np.argsort(-top_scores, axis=-1)
    return np.take_along_axis(top, order, axis=-1).astype(np.int64)


# ---------------------------------------------------------------------------
# Session / sequence kernels
# ---------------------------------------------------------------------------


@kernel("dropout", _per_element(0.0, elementwise=True))
def _dropout_kernel(arrays, attrs):
    """Inference-mode dropout: numerically the identity, but eager PyTorch
    still dispatches a kernel for it. The jit dead-op pass removes it."""
    return arrays[0]


@kernel("mod_index", _per_element(1.0))
def _mod_index_kernel(arrays, attrs):
    return (np.asarray(arrays[0], dtype=np.int64) % attrs["modulus"]).astype(np.int64)


@kernel("sequence_mask", _per_element(1.0))
def _sequence_mask_kernel(arrays, attrs):
    """Boolean validity mask of shape (max_len,) from a scalar length."""
    length = int(np.asarray(arrays[0]).reshape(-1)[0])
    return np.arange(attrs["max_len"]) < length


@kernel("logical_not", _per_element(1.0))
def _logical_not_kernel(arrays, attrs):
    return np.logical_not(arrays[0].astype(bool))


@kernel("gather_row", _per_element(0.0))
def _gather_row_kernel(arrays, attrs):
    """Pick one leading-axis row by a (traced) scalar index tensor."""
    x, index = arrays
    row = int(np.asarray(index).reshape(-1)[0]) + attrs.get("offset", 0)
    return np.ascontiguousarray(x[row])


def _gru_sequence_cost(arrays, attrs, out) -> CostRecord:
    x, w_hh = arrays[0], arrays[2]
    seq_len, in_dim = x.shape
    d = w_hh.shape[1]
    return _written(out, seq_len * (6.0 * d * (in_dim + d) + 30.0 * d))


@kernel("gru_sequence", _gru_sequence_cost)
def _gru_sequence_kernel(arrays, attrs):
    """Fused single-layer GRU over a full sequence (the cuDNN-style path).

    Inputs: x (L, in), w_ih (3d, in), w_hh (3d, d), b_ih (3d,), b_hh (3d,),
    h0 (d,). Output: all hidden states (L, d). One kernel launch, like
    ``torch.nn.GRU`` dispatching to cuDNN.
    """
    x, w_ih, w_hh, b_ih, b_hh, h0 = arrays
    seq_len = x.shape[0]
    d = w_hh.shape[1]
    h = h0.astype(np.float32)
    gi_all = x @ w_ih.T + b_ih  # (L, 3d): the input projections batch nicely
    outputs = np.empty((seq_len, d), dtype=np.float32)
    for t in range(seq_len):
        gh = h @ w_hh.T + b_hh
        gi = gi_all[t]
        reset = 1.0 / (1.0 + np.exp(-(gi[0:d] + gh[0:d])))
        update = 1.0 / (1.0 + np.exp(-(gi[d : 2 * d] + gh[d : 2 * d])))
        candidate = np.tanh(gi[2 * d : 3 * d] + reset * gh[2 * d : 3 * d])
        h = (1.0 - update) * h + update * candidate
        outputs[t] = h
    return outputs


# ---------------------------------------------------------------------------
# Host-side escape hatch (the SR-GNN / GC-SAN numpy-in-forward pattern)
# ---------------------------------------------------------------------------


def host_cost(arrays: Sequence, out: np.ndarray) -> CostRecord:
    """A host op moves every input and its output across the PCIe link."""
    in_bytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return CostRecord(
        read_bytes=float(in_bytes),
        write_bytes=float(out.nbytes),
        host_op=True,
        transfer_bytes=float(in_bytes + out.nbytes),
    )


def host_numpy(
    op_name: str,
    fn: Callable[..., np.ndarray],
    *inputs,
    catalog_scale: Optional[float] = None,
) -> Tensor:
    """Run ``fn`` on raw ndarrays *on the host*, outside the device stream.

    On a GPU deployment this forces a device→host→device round trip; the
    cost model charges PCIe transfer for all input and output bytes plus a
    synchronization stall. This deliberately reproduces the RecBole SR-GNN /
    GC-SAN inference bottleneck the paper reports.

    ``catalog_scale`` tags the output (and the op's cost) as standing in for
    a virtualized catalog — RepeatNet's dense one-hot scatter uses this.
    """
    arrays, scale, _invariant = _unwrap(inputs)
    if catalog_scale is not None:
        scale = catalog_scale
    out = np.asarray(fn(*arrays))
    result = Tensor(out, catalog_scale=scale)
    if accounting():
        record = account(f"host[{op_name}]", host_cost(arrays, out), scale, False, ())
        if _GRAPH_BUILDER is not None:
            _GRAPH_BUILDER.add_host_op(op_name, fn, inputs, result, record)
    return result
