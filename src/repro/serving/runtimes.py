"""Alternative inference runtimes — the paper's future-work direction.

"In the future, we plan to extend ETUDE with more inference runtimes such
as ONNX [34] or TensorRT [35]" (Section IV). This module models an
ONNX-Runtime-style executor as a *transform over cost traces*: the numerics
are identical (the same optimized graph executes), but the execution plan
differs from the eager/TorchScript engines in two measurable ways:

1. **static kernel planning** — the whole graph is compiled to a fixed
   execution plan, so per-op dispatch costs a fraction of a dynamic
   dispatcher's (``DISPATCH_FACTOR``);
2. **cross-op fusion beyond single-consumer chains** — elementwise and
   normalization ops merge into their producers where legal, removing
   launches and intermediate activation round trips.

Like ``torch.jit``, ONNX export fails on data-dependent Python control flow
(LightSANs), so the registry falls back to eager for it — consistent with
how ETUDE would observe the real exporter.
"""

from __future__ import annotations

from repro.tensor.ops import CostRecord, CostTrace

#: Static-plan dispatch cost relative to a dynamic dispatcher's launch.
DISPATCH_FACTOR = 0.5

#: Ops an ONNX-style graph optimizer folds into their producer when the
#: producer is a device kernel (elementwise epilogues, normalizations).
_EPILOGUE_OPS = {
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "relu",
    "tanh",
    "sigmoid",
    "gelu",
    "exp",
    "neg",
    "dropout",
    "masked_fill",
    "where",
    "softmax",
    "layer_norm",
}

#: Ops that can absorb an epilogue (produce a real device kernel).
_PRODUCER_OPS = {
    "linear",
    "linear_act",
    "matmul",
    "gru_sequence",
    "embedding_lookup",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "quantized_scoring",
}


def onnx_transform(trace: CostTrace) -> CostTrace:
    """Re-plan a (jit-optimized) cost trace as an ONNX-style executor would.

    Consecutive epilogue records merge into the preceding producer record:
    launches collapse, the intermediate write/read pair stays in registers,
    flops are kept. Host ops and catalog-scale boundaries are never merged
    across (a host op forces a plan break, and merging records of different
    virtual scales would mis-account the extrapolation).
    """
    merged = CostTrace()
    for record in trace:
        previous = merged.records[-1] if merged.records else None
        can_merge = (
            previous is not None
            and record.op.split("[")[0] in _EPILOGUE_OPS | {"fused"}
            and not record.host_op
            and not previous.host_op
            and previous.op.split("[")[0] in _PRODUCER_OPS | {"fused"}
            and previous.catalog_scale == record.catalog_scale
            and previous.batch_invariant == record.batch_invariant
        )
        if can_merge:
            previous.flops += record.flops
            previous.param_bytes += record.param_bytes
            # The epilogue reads the producer's output from registers and
            # its write replaces the producer's: drop the round trip.
            previous.write_bytes = record.write_bytes
            previous.op = f"{previous.op}+{record.op}"
            continue
        merged.append(
            CostRecord(
                op=record.op,
                launches=record.launches,
                flops=record.flops,
                param_bytes=record.param_bytes,
                read_bytes=record.read_bytes,
                write_bytes=record.write_bytes,
                host_op=record.host_op,
                transfer_bytes=record.transfer_bytes,
                catalog_scale=record.catalog_scale,
                elementwise=record.elementwise,
                batch_invariant=record.batch_invariant,
            )
        )
    # Static kernel plan: each remaining device launch costs a fraction of
    # a dynamic dispatcher's (fractional launches are fine for the latency
    # model, which only multiplies them by the per-launch overhead).
    for record in merged.records:
        if not record.host_op:
            record.launches = record.launches * DISPATCH_FACTOR
    return merged
