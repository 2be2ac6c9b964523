"""Int8 model quantization — the paper's first future-work direction.

"We will explore the incorporation of techniques to trade-off prediction
quality with inference latency, such as model quantisation [36] ..."
(Section IV). Since SBR inference latency is dominated by streaming the
C x d catalog table (Section II), quantizing *that table* to int8 cuts the
dominant memory traffic by 4x at a small top-k accuracy cost.

Scheme: symmetric per-row int8 quantization. Each embedding row r stores
``int8 = round(r / scale_r)`` with ``scale_r = max(|r|) / 127``. The scoring
inner product runs on int8 data with fp32 accumulation (the standard
VNNI/dp4a path), so FLOPs stay put while parameter bytes drop 4x (plus the
4-byte row scale).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import ops
from repro.tensor.layers import CatalogEmbedding
from repro.tensor.module import Module, Parameter
from repro.tensor.ops import CostRecord, kernel
from repro.tensor.tensor import Tensor


def quantize_rows(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-row int8 quantization -> (int8 table, fp32 scales)."""
    table = np.asarray(table, dtype=np.float32)
    magnitudes = np.abs(table).max(axis=1)
    scales = np.where(magnitudes > 0, magnitudes / 127.0, 1.0).astype(np.float32)
    quantized = np.clip(
        np.round(table / scales[:, None]), -127, 127
    ).astype(np.int8)
    return quantized, scales


def dequantize_rows(quantized: np.ndarray, scales: np.ndarray) -> np.ndarray:
    return quantized.astype(np.float32) * scales[:, None]


def _quantized_scoring_cost(arrays, attrs, out) -> CostRecord:
    """Parameter traffic is the int8 table (1 B/element) + the fp32 scales —
    one quarter of the fp32 scan that dominates every model's inference."""
    query, table_int8, scales = arrays
    rows, dim = table_int8.shape
    return CostRecord(
        flops=2.0 * rows * dim + rows,
        param_bytes=float(table_int8.nbytes + scales.nbytes),
        read_bytes=float(query.nbytes),
        write_bytes=float(out.nbytes),
    )


@kernel("quantized_scoring", _quantized_scoring_cost)
def _quantized_scoring_kernel(arrays, attrs):
    """Fused int8 MIPS: scores = (q int8-table @ query) * row_scales."""
    query, table_int8, scales = arrays
    # int8 GEMV with fp32 accumulation (numpy: widen then accumulate).
    raw = table_int8.astype(np.float32) @ query.astype(np.float32)
    return (raw * scales).astype(np.float32)


class QuantizedCatalogEmbedding(Module):
    """An int8-quantized scoring view over a :class:`CatalogEmbedding`.

    Lookups of session items dequantize on the fly (tiny); catalog scoring
    runs the fused int8 kernel. The virtual-catalog scale of the source
    embedding is preserved, so the latency model charges the logical C.
    """

    def __init__(self, source: CatalogEmbedding):
        super().__init__()
        self.num_items = source.num_items
        self.embedding_dim = source.embedding_dim
        self.materialized = source.materialized
        self._catalog_scale = source.catalog_scale
        quantized, scales = quantize_rows(source.weight.data)
        self.weight_int8 = Parameter(quantized, name="weight_int8")
        self.row_scales = Parameter(scales, name="row_scales")
        # Scoring views (catalog-scaled), created once so jit capture binds
        # stable parameter leaves.
        scoring_table = Parameter(self.weight_int8.data, name="weight_int8.scoring")
        scoring_table.catalog_scale = self._catalog_scale
        scoring_scales = Parameter(self.row_scales.data, name="row_scales.scoring")
        scoring_scales.catalog_scale = self._catalog_scale
        object.__setattr__(self, "_scoring_table", scoring_table)
        object.__setattr__(self, "_scoring_scales", scoring_scales)
        column_scales = Parameter(
            self.row_scales.data.reshape(-1, 1), name="row_scales.col"
        )
        object.__setattr__(self, "_column_scales", column_scales)

    @property
    def catalog_scale(self) -> float:
        return self._catalog_scale

    def map_item_ids(self, ids) -> np.ndarray:
        ids = np.asarray(ids if not isinstance(ids, Tensor) else ids.data, np.int64)
        if np.any(ids < 0) or np.any(ids >= self.num_items):
            raise ValueError("item id outside catalog")
        return ids % self.materialized

    def forward(self, ids) -> Tensor:
        """Dequantized session-item embeddings (small, per-request)."""
        if isinstance(ids, Tensor):
            rows = ops.run_op("mod_index", (ids,), {"modulus": self.materialized})
        else:
            rows = Tensor(self.map_item_ids(ids))
        int8_rows = ops.run_op("embedding_lookup", (self.weight_int8, rows))
        scale_rows = ops.run_op("embedding_lookup", (self._column_scales, rows))
        return int8_rows * scale_rows

    def score(self, query: Tensor) -> Tensor:
        """Full-catalog int8 inner-product scores for a (d,) query."""
        return ops.run_op(
            "quantized_scoring", (query, self._scoring_table, self._scoring_scales)
        )

    def quantization_error(self, source: CatalogEmbedding) -> float:
        """Mean relative L2 reconstruction error of the materialized rows."""
        restored = dequantize_rows(self.weight_int8.data, self.row_scales.data)
        original = source.weight.data
        norms = np.linalg.norm(original, axis=1)
        errors = np.linalg.norm(restored - original, axis=1)
        return float(np.mean(errors / np.maximum(norms, 1e-12)))


def quantize_model(model) -> "QuantizedSessionRecModel":
    """Wrap a SessionRecModel with an int8 scoring head."""
    from repro.models.base import SessionRecModel

    if not isinstance(model, SessionRecModel):
        raise TypeError("quantize_model expects a SessionRecModel")
    if not getattr(model, "supports_quantized_head", True):
        raise ValueError(
            f"{model.name} fuses scoring into its forward pass and cannot "
            "take a swapped quantized head"
        )
    return QuantizedSessionRecModel(model)


class QuantizedSessionRecModel(Module):
    """A SessionRecModel whose catalog scoring runs the int8 kernel.

    The encoder (GRU/attention/transformer) stays fp32 — it is a vanishing
    share of the cost; the win is the 4x cheaper catalog scan.
    """

    def __init__(self, source):
        super().__init__()
        self.source = source
        self.name = f"{source.name}-int8"
        self.quantized_embedding = QuantizedCatalogEmbedding(source.item_embedding)
        self.top_k = source.top_k
        self.num_items = source.num_items
        self.max_session_length = source.max_session_length

    def forward(self, items: Tensor, length: Tensor) -> Tensor:
        session_repr = self.source.encode_session(items, length)
        scores = self.quantized_embedding.score(session_repr)
        from repro.tensor import functional as F

        return F.topk(scores, self.top_k)

    def recommend(self, session_items) -> np.ndarray:
        padded, length = self.source.prepare_inputs(session_items)
        return self.forward(Tensor(padded), Tensor(length)).numpy()

    def example_inputs(self):
        return self.source.example_inputs()

    def prepare_inputs(self, session_items):
        return self.source.prepare_inputs(session_items)

    def resident_bytes(self) -> float:
        """Quantization shrinks the logical table to 1 byte/element."""
        table_virtual = self.num_items * (self.source.embedding_dim * 1.0 + 4.0)
        other = self.source.parameter_bytes() - self.source.item_embedding.weight.nbytes
        return table_virtual + max(other, 0.0)

    def score_bytes_per_item(self) -> float:
        return self.source.score_bytes_per_item()

    def artifact_metadata(self) -> dict:
        metadata = self.source.artifact_metadata()
        metadata["quantization"] = "int8-per-row"
        return metadata
