"""Trace-based JIT capture and inference optimization.

This mirrors the ``torch.jit.trace`` + ``torch.jit.optimize_for_inference``
pipeline the paper benchmarks:

1. :func:`trace` runs the module once on example inputs with a
   :class:`~repro.tensor.graph.GraphBuilder` installed, capturing the exact
   dataflow graph of the forward pass. Using tensor *values* to steer Python
   control flow during tracing raises :class:`JitCompilationError` — which is
   precisely how LightSANs fails to compile (Section III-B of the paper).
2. :func:`optimize_for_inference` applies the pass pipeline:
   - **dropout elimination** (inference-mode dropout kernels are identity),
   - **dead-op elimination** (liveness from the output),
   - **constant folding** (param/const-only subgraphs are precomputed; byte
     accounting of folded weights is preserved),
   - **elementwise fusion** (single-consumer chains collapse into one launch
     with intermediates kept in registers),
   - **linear+activation fusion**.
3. :class:`ScriptedModule` re-executes the optimized graph on new inputs.
   Numerics equal eager execution; under a cost trace the recorded cost
   stream reflects the optimized launch/byte counts, which is where the
   paper's JIT speedups come from. Without one it only computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.tensor import ops
from repro.tensor.graph import Graph, GraphBuilder, Node
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor


class JitCompilationError(RuntimeError):
    """The module cannot be traced (dynamic, data-dependent code paths)."""


# ---------------------------------------------------------------------------
# Trace capture
# ---------------------------------------------------------------------------


def trace(module: Module, example_inputs: Sequence[np.ndarray]) -> Graph:
    """Capture the dataflow graph of one forward pass.

    ``example_inputs`` are bound positionally to ``module.forward``. Raises
    :class:`JitCompilationError` if the forward uses tensor values in Python
    control flow.
    """
    if ops.is_capturing():
        raise RuntimeError("nested jit tracing is not supported")
    builder = GraphBuilder()
    tensors = []
    for index, example in enumerate(example_inputs):
        tensor = Tensor(np.asarray(example))
        builder.register_input(tensor, name=f"arg{index}")
        tensors.append(tensor)
    ops.set_graph_builder(builder)
    try:
        output = module(*tensors)
    finally:
        ops.set_graph_builder(None)
    if not isinstance(output, Tensor):
        raise JitCompilationError(
            f"traced forward returned {type(output).__name__}, not a Tensor"
        )
    builder.set_output(output)
    return builder.graph


# ---------------------------------------------------------------------------
# Optimization passes
# ---------------------------------------------------------------------------

_ELEMENTWISE_FUSABLE = {
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "abs",
    "sigmoid",
    "relu",
    "gelu",
    "scale",
    "maximum",
    "minimum",
    "pow",
    "masked_fill",
    "where",
}

_ACTIVATIONS = {"relu": "relu", "tanh": "tanh", "sigmoid": "sigmoid"}

_FOLDABLE = _ELEMENTWISE_FUSABLE | {
    "matmul",
    "linear",
    "transpose",
    "reshape",
    "concat",
    "stack",
    "slice",
    "embedding_lookup",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "softmax",
    "fill_constant",
}


def eliminate_dropout(graph: Graph) -> int:
    """Rewire consumers of dropout nodes to the dropout input."""
    redirect: Dict[int, int] = {}
    kept: List[Node] = []
    for node in graph.nodes:
        if node.kind == "op" and node.op == "dropout":
            source = node.inputs[0]
            redirect[node.id] = redirect.get(source, source)
            continue
        node.inputs = tuple(redirect.get(i, i) for i in node.inputs)
        kept.append(node)
    removed = len(graph.nodes) - len(kept)
    graph.nodes = kept
    if graph.output_id in redirect:
        graph.output_id = redirect[graph.output_id]
    return removed


def eliminate_dead_ops(graph: Graph) -> int:
    """Drop nodes that do not reach the output."""
    by_id = {node.id: node for node in graph.nodes}
    live = set()
    stack = [graph.output_id]
    while stack:
        node_id = stack.pop()
        if node_id in live or node_id is None:
            continue
        live.add(node_id)
        node = by_id.get(node_id)
        if node is not None:
            stack.extend(node.inputs)
    # Host ops may carry side effects in principle; keep only live ones all
    # the same — our host ops are pure functions of their inputs.
    before = len(graph.nodes)
    graph.nodes = [n for n in graph.nodes if n.id in live]
    return before - len(graph.nodes)


def fold_constants(graph: Graph) -> int:
    """Precompute nodes whose inputs are all params/consts.

    The folded result becomes a ``const`` leaf; if any source was a
    parameter the leaf keeps ``is_param=True`` so the latency model still
    amortizes its bytes like weight data.
    """
    by_id = {node.id: node for node in graph.nodes}
    folded = 0
    for node in graph.nodes:
        if node.kind != "op" or node.op not in _FOLDABLE:
            continue
        sources = [by_id[i] for i in node.inputs]
        if not sources or not all(s.is_leaf() and s.kind != "input" for s in sources):
            continue
        node.kind = "const"
        node.array = ops.KERNELS[node.op]([s.array for s in sources], node.attrs)
        node.is_param = any(s.is_param for s in sources)
        node.catalog_scale = max([s.catalog_scale for s in sources] + [1.0])
        node.inputs = ()
        node.op = ""
        node.attrs = {}
        folded += 1
    return folded


def fuse_elementwise(graph: Graph) -> int:
    """Collapse single-consumer chains of elementwise ops into fused nodes.

    A chain ``a -> b -> c`` where each intermediate has exactly one consumer
    becomes one ``fused`` node: one kernel launch, external reads only, a
    single final write. This is the classic pointwise-fusion win that
    ``optimize_for_inference`` delivers.
    """
    consumers = graph.consumers()

    def fusable(node: Node) -> bool:
        return node.kind == "op" and node.op in _ELEMENTWISE_FUSABLE

    # Build maximal chains. A chain extends tail -> consumer while the tail
    # has exactly one consumer, that consumer is fusable, and the tail is not
    # the graph output.
    in_chain: Dict[int, List[Node]] = {}
    chains: Dict[int, List[Node]] = {}  # keyed by tail id
    for node in graph.nodes:
        if not fusable(node) or node.id in in_chain:
            continue
        chain = [node]
        tail = node
        while True:
            outs = consumers.get(tail.id, [])
            if tail.id == graph.output_id or len(outs) != 1:
                break
            candidate = outs[0]
            if not fusable(candidate) or candidate.id in in_chain:
                break
            chain.append(candidate)
            tail = candidate
        if len(chain) < 2:
            continue
        for member in chain:
            in_chain[member.id] = chain
        chains[tail.id] = chain

    if not chains:
        return 0

    # Replace the tail of each chain (the latest position, so every external
    # input is already computed) with one fused node; drop the other members.
    new_nodes: List[Node] = []
    for node in graph.nodes:
        chain = in_chain.get(node.id)
        if chain is None:
            new_nodes.append(node)
            continue
        if node.id != chain[-1].id:
            continue
        new_nodes.append(
            Node(
                id=node.id,
                kind="fused",
                op="fused[" + "+".join(n.op for n in chain) + "]",
                inputs=_external_inputs(chain),
                catalog_scale=max(n.catalog_scale for n in chain),
                batch_invariant=all(n.batch_invariant for n in chain),
                fused=chain,
            )
        )
    removed = len(graph.nodes) - len(new_nodes)
    graph.nodes = new_nodes
    return removed


def _external_inputs(chain: List[Node]) -> Tuple[int, ...]:
    member_ids = {n.id for n in chain}
    externals: List[int] = []
    for node in chain:
        for input_id in node.inputs:
            if input_id not in member_ids and input_id not in externals:
                externals.append(input_id)
    return tuple(externals)


def fuse_linear_activation(graph: Graph) -> int:
    """Fuse ``linear`` directly followed by its only consumer activation."""
    consumers = graph.consumers()
    by_id = {node.id: node for node in graph.nodes}
    fused = 0
    removed_ids = set()
    for node in list(graph.nodes):
        if node.kind != "op" or node.op != "linear" or node.id == graph.output_id:
            continue
        outs = consumers.get(node.id, [])
        if len(outs) != 1:
            continue
        activation = outs[0]
        if activation.kind != "op" or activation.op not in _ACTIVATIONS:
            continue
        if activation.inputs != (node.id,):
            continue
        # The activation node becomes the fused linear_act; the linear dies.
        activation_name = _ACTIVATIONS[activation.op]
        activation.op = "linear_act"
        activation.inputs = node.inputs
        activation.attrs = {"activation": activation_name}
        fused += 1
        removed_ids.add(node.id)
    graph.nodes = [n for n in graph.nodes if n.id not in removed_ids]
    return fused


@dataclass
class OptimizationReport:
    """What each pass removed/created; surfaced in ablation benchmarks."""

    dropout_removed: int = 0
    dead_removed: int = 0
    constants_folded: int = 0
    elementwise_fused: int = 0
    linear_act_fused: int = 0

    def total_eliminated(self) -> int:
        return (
            self.dropout_removed
            + self.dead_removed
            + self.constants_folded
            + self.elementwise_fused
            + self.linear_act_fused
        )


def run_passes(graph: Graph, enable_fusion: bool = True) -> OptimizationReport:
    report = OptimizationReport()
    report.dropout_removed = eliminate_dropout(graph)
    report.dead_removed = eliminate_dead_ops(graph)
    report.constants_folded = fold_constants(graph)
    # Folding can orphan leaves that fed folded nodes.
    report.dead_removed += eliminate_dead_ops(graph)
    if enable_fusion:
        report.linear_act_fused = fuse_linear_activation(graph)
        report.elementwise_fused = fuse_elementwise(graph)
    return report


# ---------------------------------------------------------------------------
# Scripted execution
# ---------------------------------------------------------------------------


class ScriptedModule:
    """Executes an optimized graph on fresh inputs with optimized costs."""

    def __init__(self, module: Module, graph: Graph, report: OptimizationReport):
        self.module = module
        self.graph = graph
        self.report = report
        self._by_id = {node.id: node for node in graph.nodes}

    def parameter_bytes(self) -> int:
        return self.module.parameter_bytes()

    def forward(self, *inputs) -> Tensor:
        if len(inputs) != len(self.graph.input_ids):
            raise ValueError(
                f"expected {len(self.graph.input_ids)} inputs, got {len(inputs)}"
            )
        env: Dict[int, np.ndarray] = {}
        for node_id, value in zip(self.graph.input_ids, inputs):
            env[node_id] = value.data if isinstance(value, Tensor) else np.asarray(value)
        accounted = ops.accounting()
        record = None
        # One errstate for the whole replay: IEEE semantics, as in run_op.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for node in self.graph.nodes:
                if node.kind == "input":
                    continue
                if node.kind in ("param", "const"):
                    env[node.id] = node.array
                    continue
                arrays = [env[i] for i in node.inputs]
                if node.kind == "host":
                    out = np.asarray(node.host_fn(*arrays))
                    if accounted:
                        record = ops.host_cost(arrays, out)
                elif node.kind == "fused":
                    out, record = self._run_fused(node, arrays, accounted)
                else:
                    out = ops.KERNELS[node.op](arrays, node.attrs)
                    if accounted:
                        record = ops.COSTS[node.op](arrays, node.attrs, out)
                if accounted:
                    ops.account(
                        node.op, record, node.catalog_scale,
                        node.batch_invariant, self._reads(node, arrays),
                    )
                env[node.id] = out
        return Tensor(env[self.graph.output_id])

    __call__ = forward

    # -- node execution -----------------------------------------------------

    def _reads(self, node: Node, arrays) -> Iterator[Tuple[float, bool]]:
        """``(nbytes, shared)`` per input: parameter and batch-invariant
        sources are shared by a batch."""
        for node_id, array in zip(node.inputs, arrays):
            source = self._by_id.get(node_id)
            shared = source is not None and (source.is_param or source.batch_invariant)
            yield float(array.nbytes), shared

    @staticmethod
    def _run_fused(node: Node, arrays, accounted: bool):
        """(output, cost record or None) of a fused elementwise chain: one
        launch summing its members' flops, writing only the last output."""
        local: Dict[int, np.ndarray] = dict(zip(node.inputs, arrays))
        flops = 0.0
        for member in node.fused:
            member_arrays = [local[i] for i in member.inputs]
            out = ops.KERNELS[member.op](member_arrays, member.attrs)
            if accounted:
                flops += ops.COSTS[member.op](member_arrays, member.attrs, out).flops
            local[member.id] = out
        if not accounted:
            return out, None
        return out, ops.CostRecord(
            flops=flops, write_bytes=float(out.nbytes), elementwise=True
        )


def optimize_for_inference(
    module: Module,
    example_inputs: Sequence[np.ndarray],
    enable_fusion: bool = True,
) -> ScriptedModule:
    """Trace + optimize a module, mirroring ``torch.jit.optimize_for_inference``.

    Raises :class:`JitCompilationError` for modules with dynamic code paths
    (LightSANs, per the paper).
    """
    graph = trace(module, example_inputs)
    report = run_passes(graph, enable_fusion=enable_fusion)
    return ScriptedModule(module, graph, report)
