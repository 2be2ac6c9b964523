"""IVF-Flat approximate maximum-inner-product search.

Classic two-level structure (faiss ``IVFFlat``):

1. **train**: k-means clusters the catalog embeddings into ``nlist``
   centroids; every item joins its nearest centroid's inverted list;
2. **search**: score the query against all centroids, visit the ``nprobe``
   best lists, and run the exact inner product only on their members.

Per-query traffic drops from ``C * d`` floats to roughly
``(nlist + C * nprobe / nlist) * d`` — at ``nlist = sqrt(C)`` and small
``nprobe``, orders of magnitude less than the exact scan that dominates SBR
inference. The cost model sees exactly that through the ``ivf_search``
kernel's accounting.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import ops
from repro.tensor.layers import CatalogEmbedding
from repro.tensor.module import Module
from repro.tensor.ops import CostRecord, kernel
from repro.tensor.tensor import Tensor


def _kmeans(
    data: np.ndarray, k: int, rng: np.random.Generator, iterations: int = 12
) -> np.ndarray:
    """Lloyd's k-means (vectorized); returns (k, d) centroids."""
    samples = data.shape[0]
    centroids = data[rng.choice(samples, size=k, replace=False)].copy()
    for _iteration in range(iterations):
        # Assign by squared euclidean distance (expanded form).
        distances = (
            (data**2).sum(axis=1, keepdims=True)
            - 2.0 * data @ centroids.T
            + (centroids**2).sum(axis=1)
        )
        assignment = distances.argmin(axis=1)
        for index in range(k):
            members = data[assignment == index]
            if members.shape[0]:
                centroids[index] = members.mean(axis=0)
            else:  # re-seed empty clusters
                centroids[index] = data[rng.integers(samples)]
    return centroids


def _probed_members(arrays, attrs) -> np.ndarray:
    """Catalog rows in the ``nprobe`` lists nearest the query."""
    query = arrays[0]
    index: "IVFFlatIndex" = attrs["index"]
    centroid_scores = index.centroids @ query
    probes = np.argsort(-centroid_scores)[: index.nprobe]
    member_ids = np.concatenate([index.lists[p] for p in probes])
    if member_ids.size == 0:
        data = arrays[1] if len(arrays) > 1 else index.data
        member_ids = np.arange(min(attrs["k"], data.shape[0]), dtype=np.int64)
    return member_ids


def _ivf_search_cost(arrays, attrs, out) -> CostRecord:
    """Parameter traffic is the centroid table plus the probed share of the
    catalog; one launch, like a fused ANN kernel.

    The catalog may be virtualized (``catalog_scale = C / materialized``
    when ``C`` exceeds the materialized cap). The scoring table rides along
    as the second input, so the trace machinery stamps the record with that
    scale; the cost therefore books *member* traffic raw (it represents a
    probed slice of the full virtual catalog and should scale up) and
    divides the per-query constants — centroid table, query and output
    bytes — by the scale so they stay scale-invariant in the totals. At
    ``catalog_scale == 1`` this is exactly the unscaled accounting.
    """
    query = arrays[0]
    index: "IVFFlatIndex" = attrs["index"]
    data = arrays[1] if len(arrays) > 1 else index.data
    d = data.shape[1]
    probed_rows = _probed_members(arrays, attrs).shape[0]
    scale = max(float(index.catalog_scale), 1.0)
    centroid_rows = float(index.logical_nlist)
    return CostRecord(
        flops=2.0 * (centroid_rows / scale + probed_rows) * d,
        param_bytes=centroid_rows * d * 4.0 / scale + probed_rows * d * 4.0,
        read_bytes=float(query.nbytes) / scale,
        write_bytes=float(out.nbytes) / scale,
    )


@kernel("ivf_search", _ivf_search_cost)
def _ivf_search_kernel(arrays, attrs):
    """Fused IVF query: centroid scan + probe + exact scoring of members."""
    query = arrays[0]
    index: "IVFFlatIndex" = attrs["index"]
    data = arrays[1] if len(arrays) > 1 else index.data
    member_ids = _probed_members(arrays, attrs)
    member_scores = data[member_ids] @ query
    take = min(attrs["k"], member_ids.shape[0])
    best = np.argpartition(-member_scores, take - 1)[:take]
    best = best[np.argsort(-member_scores[best])]
    return member_ids[best].astype(np.int64)


class IVFFlatIndex:
    """An inverted-file index over a (possibly virtualized) catalog.

    Training happens in ``__init__``: k-means over the materialized
    embedding rows (deterministic for a fixed ``seed``), then one exact
    assignment pass filling the inverted lists, so every item lands in
    exactly one list. When the catalog is virtualized (``C`` above the
    materialized cap) the index structure covers the materialized rows
    while ``logical_nlist`` and ``catalog_scale`` keep the *cost* accounting
    at full catalog scale — the same split the exact scan uses.

    ``nlist`` is validated against the logical catalog size and clamped to
    the materialized row count structurally; ``None`` picks the faiss rule
    of thumb ``sqrt(materialized)``. ``nprobe`` clamps into
    ``[1, nlist]``.
    """

    def __init__(
        self,
        embedding: CatalogEmbedding,
        nlist: Optional[int] = None,
        nprobe: int = 8,
        seed: int = 31,
        kmeans_iterations: int = 12,
    ):
        self.embedding = embedding
        self.data = embedding.weight.data
        materialized = self.data.shape[0]
        if nlist is None:
            nlist = max(int(np.sqrt(materialized)), 1)
        requested = int(nlist)
        if not 1 <= requested <= embedding.num_items:
            raise ValueError("need 1 <= nlist <= catalog items")
        # The logical list count drives cost and memory accounting at full
        # catalog scale; the structural count is capped by the rows that
        # actually exist to cluster.
        self.logical_nlist = requested
        self.nlist = min(requested, materialized)
        self.nprobe = int(np.clip(nprobe, 1, self.nlist))
        self.catalog_scale = embedding.catalog_scale

        rng = np.random.default_rng(seed)
        self.centroids = _kmeans(
            self.data, self.nlist, rng, iterations=kmeans_iterations
        )
        assignment = (
            (self.data**2).sum(axis=1, keepdims=True)
            - 2.0 * self.data @ self.centroids.T
            + (self.centroids**2).sum(axis=1)
        ).argmin(axis=1)
        self.lists = [
            np.flatnonzero(assignment == index).astype(np.int64)
            for index in range(self.nlist)
        ]

    def probed_fraction(self) -> float:
        """Expected share of the catalog visited per query."""
        sizes = np.asarray([lst.shape[0] for lst in self.lists], dtype=np.float64)
        # Lists are probed by query affinity; the uniform average is a good
        # first-order estimate used for reporting (the cost model charges
        # the actual probed rows per query).
        return float(sizes.mean() * self.nprobe / sizes.sum())

    def with_nprobe(self, nprobe: int) -> "IVFFlatIndex":
        """A cheap view of the same index with a different probe count."""
        clone = object.__new__(IVFFlatIndex)
        clone.__dict__.update(self.__dict__)
        clone.nprobe = int(np.clip(nprobe, 1, self.nlist))
        return clone

    def search(self, query: Tensor, k: int) -> Tensor:
        """Approximate top-k catalog row ids for a ``(d,)`` query tensor.

        Runs the fused ``ivf_search`` kernel through the standard op
        machinery, so cost traces, graph capture and telemetry all see it.
        The scoring table is passed as a second input purely so the trace
        inherits its ``catalog_scale`` tag; numerics only read the query.
        """
        if k < 1:
            raise ValueError("k must be positive")
        result = ops.run_op(
            "ivf_search",
            (query, self.embedding.scoring_weight()),
            {"index": self, "k": int(k)},
        )
        result.catalog_scale = self.catalog_scale
        return result


def recall_at_k(exact_ids: np.ndarray, approx_ids: np.ndarray) -> float:
    """|exact ∩ approx| / |exact| — the standard ANN recall metric."""
    exact = set(np.asarray(exact_ids).tolist())
    if not exact:
        raise ValueError("exact top-k is empty")
    approx = set(np.asarray(approx_ids).tolist())
    return len(exact & approx) / len(exact)


class AnnSessionRecModel(Module):
    """A SessionRecModel whose top-k search runs on an IVF index.

    Wraps any model that exposes a separable scoring head (encoder repr
    dotted against the item table — ``supports_quantized_head``): the
    session encoder is untouched and the final exact scan is replaced by an
    :class:`IVFFlatIndex` probe. The wrapper keeps the full SessionRecModel
    contract (``recommend`` / ``example_inputs`` / ``prepare_inputs`` /
    resident and score-byte accounting), so serving, sharding and the
    planner treat it like any other model.
    """

    #: The ANN head itself is a quantized/swappable scoring head, so the
    #: sharding path can split the catalog under it.
    supports_quantized_head = True

    def __init__(self, source, nlist: Optional[int] = None, nprobe: int = 8):
        super().__init__()
        if not getattr(source, "supports_quantized_head", True):
            raise ValueError(
                f"{source.name} fuses scoring into its forward pass and "
                "cannot take a swapped ANN head"
            )
        self.source = source
        self.name = f"{source.name}-ivf"
        self.index = IVFFlatIndex(source.item_embedding, nlist=nlist, nprobe=nprobe)
        self.top_k = source.top_k
        self.num_items = source.num_items
        self.max_session_length = source.max_session_length
        self.embedding_dim = source.embedding_dim

    @property
    def item_embedding(self):
        """The source model's catalog table (aliased, not re-registered)."""
        return self.source.item_embedding

    def set_nprobe(self, nprobe: int) -> None:
        self.index = self.index.with_nprobe(nprobe)

    def forward(self, items: Tensor, length: Tensor) -> Tensor:
        session_repr = self.source.encode_session(items, length)
        return self.index.search(session_repr, self.top_k)

    def recommend(self, session_items) -> np.ndarray:
        padded, length = self.source.prepare_inputs(session_items)
        return self.forward(Tensor(padded), Tensor(length)).numpy()

    def example_inputs(self):
        return self.source.example_inputs()

    def prepare_inputs(self, session_items):
        return self.source.prepare_inputs(session_items)

    def resident_bytes(self) -> float:
        """Table + inverted lists (ids) + centroids, logical scale."""
        base = self.source.resident_bytes()
        list_ids = self.num_items * 8.0  # one int64 id per item
        centroids = self.index.logical_nlist * self.embedding_dim * 4.0
        return base + list_ids + centroids

    def score_bytes_per_item(self) -> float:
        """ANN never materializes the full score vector."""
        probed = self.index.probed_fraction()
        return self.num_items * probed * 4.0

    def artifact_metadata(self) -> dict:
        metadata = self.source.artifact_metadata()
        metadata["ann"] = {
            "kind": "ivf-flat",
            "nlist": self.index.logical_nlist,
            "nprobe": self.index.nprobe,
        }
        return metadata

    def recall_against_exact(self, sessions) -> float:
        """Mean recall@k of the ANN head vs the exact scan over sessions."""
        recalls = []
        for session in sessions:
            exact = self.source.recommend(session)
            approx = self.recommend(session)
            recalls.append(recall_at_k(exact, approx))
        return float(np.mean(recalls))
