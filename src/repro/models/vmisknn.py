"""VMIS-kNN — a non-neural session-kNN baseline (Kersbergen et al. [13]).

The paper closes with: "our findings also indicate that there is a need to
design custom neural models for high cardinality catalogs. This [is]
indicated by the enormous costs for deploying models on catalogs with
twenty million items, which can be handled much cheaper with non-neural
approaches [13]" — citing the authors' Serenade system, whose core is the
Vector-Multiplication-Indexed Session kNN algorithm.

This module implements that baseline so the claim is measurable here:

- **index** (built offline from a historic click log): for every item, the
  ``m`` most recent historic sessions that contain it (an inverted index);
- **inference**: gather candidate sessions via the index for the items of
  the ongoing session, score session-to-session similarity with
  position-decayed weights, keep the top ``h`` neighbours, and score their
  items by similarity-weighted votes.

The decisive property: inference touches only ``O(k * m + h * len)`` index
entries — **independent of the catalog size C** — which is exactly why it
beats the O(C d) neural scan at twenty million items.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.hyperparams import ModelConfig
from repro.tensor import ops
from repro.tensor.module import Module
from repro.tensor.ops import CostRecord, kernel
from repro.tensor.tensor import Tensor
from repro.workload.statistics import WorkloadStatistics
from repro.workload.synthetic import SyntheticWorkloadGenerator


class SessionIndex:
    """The VMIS-kNN inverted index over a historic click log."""

    def __init__(
        self,
        sessions: Sequence[np.ndarray],
        max_sessions_per_item: int = 500,
    ):
        self.m = max_sessions_per_item
        self.sessions: List[np.ndarray] = [
            np.asarray(session, dtype=np.int64) for session in sessions
        ]
        self.item_index: Dict[int, np.ndarray] = {}
        postings: Dict[int, List[int]] = {}
        click_counts: Dict[int, int] = {}
        for session_id, session in enumerate(self.sessions):
            for item in np.unique(session):
                postings.setdefault(int(item), []).append(session_id)
            for item in session:
                click_counts[int(item)] = click_counts.get(int(item), 0) + 1
        for item, session_ids in postings.items():
            # Keep the most recent m sessions per item (Serenade's cap).
            self.item_index[item] = np.asarray(
                session_ids[-self.m :], dtype=np.int64
            )
        # Popularity fallback for sessions with no index hits.
        ranked = sorted(click_counts.items(), key=lambda pair: -pair[1])
        self.popular_items = np.asarray(
            [item for item, _count in ranked[:1000]], dtype=np.int64
        )

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    def index_bytes(self) -> float:
        """Resident footprint: postings + the historic sessions themselves."""
        postings = sum(ids.nbytes for ids in self.item_index.values())
        history = sum(session.nbytes for session in self.sessions)
        return float(postings + history)

    def candidates_for(self, items: np.ndarray) -> np.ndarray:
        """Union of indexed sessions for the (most recent) session items."""
        chunks = [
            self.item_index[int(item)]
            for item in items
            if int(item) in self.item_index
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))


def _neighbourhood(arrays, attrs) -> Tuple[np.ndarray, List[Tuple[float, int]], int]:
    """(candidate sessions, top neighbours as (similarity, session id),
    index bytes touched) for the query session."""
    query = np.asarray(arrays[0], dtype=np.int64)
    index: SessionIndex = attrs["index"]
    recent = query[-attrs["last_items"]:]
    touched_bytes = sum(
        index.item_index[int(item)].nbytes
        for item in recent
        if int(item) in index.item_index
    )
    candidates = index.candidates_for(recent)

    # Session similarity: position-decayed overlap with the ongoing session.
    weights = {
        int(item): (position + 1) / len(recent)
        for position, item in enumerate(recent)
    }
    scored: List[Tuple[float, int]] = []
    for session_id in candidates:
        session = index.sessions[session_id]
        touched_bytes += session.nbytes
        similarity = sum(weights.get(int(item), 0.0) for item in set(session.tolist()))
        if similarity > 0:
            scored.append((similarity, int(session_id)))
    scored.sort(reverse=True)
    return candidates, scored[: attrs["neighbours"]], touched_bytes


def _vmis_knn_search_cost(arrays, attrs, out) -> CostRecord:
    """The index data actually touched: the postings for the query items
    plus the member items of the scored candidate sessions — no term
    scales with the catalog size."""
    candidates, top_neighbours, touched_bytes = _neighbourhood(arrays, attrs)
    return CostRecord(
        flops=float(len(candidates) * 8 + len(top_neighbours) * 16),
        read_bytes=float(touched_bytes),
        write_bytes=float(out.nbytes),
    )


@kernel("vmis_knn_search", _vmis_knn_search_cost)
def _vmis_knn_search_kernel(arrays, attrs):
    """Fused kNN inference over the session index."""
    index: SessionIndex = attrs["index"]
    k = attrs["k"]
    _candidates, top_neighbours, _touched = _neighbourhood(arrays, attrs)

    # Item votes, weighted by neighbour similarity; query items excluded
    # (next-item prediction, matching the neural heads' behaviour of
    # scoring the full catalog but favouring unseen items contextually).
    votes: Dict[int, float] = {}
    for similarity, session_id in top_neighbours:
        for item in index.sessions[session_id]:
            votes[int(item)] = votes.get(int(item), 0.0) + similarity
    ranked = sorted(votes.items(), key=lambda pair: (-pair[1], pair[0]))
    out = np.asarray([item for item, _v in ranked[:k]], dtype=np.int64)
    if out.shape[0] < k:  # thin candidate pool: back-fill with popularity
        seen = set(out.tolist())
        pad = [
            int(item) for item in index.popular_items if int(item) not in seen
        ][: k - out.shape[0]]
        out = np.concatenate([out, np.asarray(pad, dtype=np.int64)])
    if out.shape[0] < k:  # degenerate index (tiny history): arbitrary fill
        seen = set(out.tolist())
        filler = [i for i in range(k * 2) if i not in seen][: k - out.shape[0]]
        out = np.concatenate([out, np.asarray(filler, dtype=np.int64)])
    return out


class VMISKNN(Module):
    """Non-neural session-kNN with the SessionRecModel serving interface."""

    name = "vmisknn"
    supports_quantized_head = False  # nothing to quantize

    #: Historic sessions indexed when none are supplied.
    DEFAULT_HISTORY_CLICKS = 200_000

    def __init__(
        self,
        config: ModelConfig,
        historic_sessions: Optional[Sequence[np.ndarray]] = None,
        max_sessions_per_item: int = 500,
        neighbours: int = 100,
        last_items: int = 10,
    ):
        super().__init__()
        self.config = config
        self.num_items = config.num_items
        self.max_session_length = config.max_session_length
        self.top_k = config.top_k
        self.neighbours = neighbours
        self.last_items = last_items
        if historic_sessions is None:
            workload = SyntheticWorkloadGenerator(
                WorkloadStatistics.bol_like(config.num_items), seed=config.seed
            )
            log = workload.generate_clicks(self.DEFAULT_HISTORY_CLICKS)
            historic_sessions = log.sessions()
        self.index = SessionIndex(
            historic_sessions, max_sessions_per_item=max_sessions_per_item
        )

    # -- inference ----------------------------------------------------------

    def forward(self, items: Tensor, length: Tensor) -> Tensor:
        """Top-k recommendations; consumes the same padded inputs as the
        neural models so the serving/JIT plumbing is identical."""
        trimmed = ops.run_op(
            "slice", (items,), {"key": slice(None)}
        )  # keep items in the dataflow
        valid = ops.run_op(
            "vmis_knn_unpad", (trimmed, length), {}
        )
        return ops.run_op(
            "vmis_knn_search",
            (valid,),
            {
                "index": self.index,
                "k": self.top_k,
                "neighbours": self.neighbours,
                "last_items": self.last_items,
            },
        )

    def prepare_inputs(self, session_items: Sequence[int]):
        if len(session_items) == 0:
            raise ValueError("session must contain at least one interaction")
        items = list(session_items)[-self.max_session_length :]
        padded = np.zeros(self.max_session_length, dtype=np.int64)
        padded[: len(items)] = np.asarray(items, dtype=np.int64)
        if np.any(padded < 0) or np.any(padded >= self.num_items):
            raise ValueError("session contains item ids outside the catalog")
        return padded, np.asarray([len(items)], dtype=np.int64)

    def recommend(self, session_items: Sequence[int]) -> np.ndarray:
        padded, length = self.prepare_inputs(session_items)
        return self.forward(Tensor(padded), Tensor(length)).numpy()

    def example_inputs(self):
        example = [i % self.num_items for i in range(1, 6)]
        return self.prepare_inputs(example)

    # -- deployment metadata -----------------------------------------------------

    def artifact_metadata(self) -> dict:
        return {
            "model": self.name,
            "num_items": self.num_items,
            "kind": "non-neural-session-knn",
            "indexed_sessions": self.index.num_sessions,
            "neighbours": self.neighbours,
        }

    def resident_bytes(self) -> float:
        """The index, NOT a C x d table — the whole point of the baseline."""
        return self.index.index_bytes()

    def score_bytes_per_item(self) -> float:
        """No C-sized score vector is ever materialized."""
        return 0.0


def _unpad_cost(arrays, attrs, out) -> CostRecord:
    return CostRecord(launches=0, write_bytes=float(out.nbytes))


@kernel("vmis_knn_unpad", _unpad_cost)
def _vmis_knn_unpad_kernel(arrays, attrs):
    items, length = arrays
    n = int(np.asarray(length).reshape(-1)[0])
    return np.ascontiguousarray(np.asarray(items, dtype=np.int64)[:n])
