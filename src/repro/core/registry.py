"""Building and caching serving assets: model -> trace -> service profile.

The expensive part of configuring a run is constructing the model,
(optionally) JIT-optimizing it, tracing one forward pass, and folding the
trace into per-device service-time profiles. All of it is deterministic in
``(model, catalog_size, device, execution, top_k)``, so the registry caches
aggressively — the planner probes dozens of configurations per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ann.config import RetrievalConfig
from repro.hardware.device import DeviceModel
from repro.hardware.latency_model import LatencyModel, ServiceTimeProfile
from repro.models import ModelConfig, SessionRecModel, create_model
from repro.tensor import (
    JitCompilationError,
    cost_trace,
    optimize_for_inference,
)
from repro.tensor.ops import CostTrace
from repro.tensor.tensor import Tensor


@dataclass
class ServingAssets:
    """Everything the cluster needs to deploy one model configuration."""

    model_name: str
    catalog_size: int
    execution_requested: str
    execution_effective: str  # "jit" or "eager" (after fallback)
    model: SessionRecModel
    trace: CostTrace
    profile: ServiceTimeProfile
    resident_bytes: float
    score_bytes_per_item: float
    jit_failed: bool = False

    @property
    def jit_fell_back(self) -> bool:
        return self.execution_requested in ("jit", "onnx") and self.jit_failed


def _retrieval_token(retrieval: Optional[RetrievalConfig]) -> Optional[str]:
    """Memo-key token for a retrieval mode; None when exact (disabled)."""
    if retrieval is None or not retrieval.enabled:
        return None
    return retrieval.spec_string()


class AssetRegistry:
    """Memoized construction of models, traces and profiles."""

    def __init__(self):
        self._models: Dict[Tuple, SessionRecModel] = {}
        self._runners: Dict[Tuple, Tuple[object, str, bool]] = {}
        self._traces: Dict[Tuple, CostTrace] = {}
        self._profiles: Dict[Tuple, ServiceTimeProfile] = {}
        self._recalls: Dict[Tuple, float] = {}

    def model(
        self,
        name: str,
        catalog_size: int,
        top_k: int = 21,
        seed: int = 42,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> SessionRecModel:
        token = _retrieval_token(retrieval)
        key = (name, catalog_size, top_k, seed, token)
        if key not in self._models:
            if token is not None:
                from repro.ann import AnnSessionRecModel

                base = self.model(name, catalog_size, top_k, seed)
                self._models[key] = AnnSessionRecModel(
                    base, nlist=retrieval.nlist, nprobe=retrieval.nprobe
                )
            else:
                config = ModelConfig.for_catalog(
                    catalog_size, top_k=top_k, seed=seed
                )
                self._models[key] = create_model(name, config)
        return self._models[key]

    def measured_recall(
        self,
        name: str,
        catalog_size: int,
        retrieval: RetrievalConfig,
        top_k: int = 21,
        seed: int = 42,
        num_sessions: int = 32,
    ) -> float:
        """Memoized recall@k of the ANN model against the exact scan.

        Measured on the materialized embedding rows with the deterministic
        sessions of :func:`repro.ann.recall.sample_sessions`; for
        virtualized catalogs this is the i.i.d.-rows proxy documented in
        docs/retrieval.md.
        """
        token = _retrieval_token(retrieval)
        if token is None:
            return 1.0
        key = (name, catalog_size, token, top_k, seed, num_sessions)
        if key not in self._recalls:
            from repro.ann.recall import measure_recall

            model = self.model(name, catalog_size, top_k, seed, retrieval)
            self._recalls[key] = measure_recall(
                model, num_sessions=num_sessions
            ).recall
        return self._recalls[key]

    def _runner(
        self,
        name: str,
        catalog_size: int,
        execution: str,
        top_k: int,
        seed: int,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> Tuple[object, str, bool]:
        """(callable(items, length) -> Tensor, effective_mode, jit_failed)."""
        key = (name, catalog_size, execution, top_k, seed, _retrieval_token(retrieval))
        if key in self._runners:
            return self._runners[key]
        model = self.model(name, catalog_size, top_k, seed, retrieval)
        if execution in ("jit", "onnx"):
            try:
                scripted = optimize_for_inference(model, model.example_inputs())
                runner = (scripted, execution, False)
            except JitCompilationError:
                # The paper's LightSANs case (both the TorchScript tracer
                # and the ONNX exporter choke on dynamic code paths): fall
                # back to eager serving.
                runner = (self._eager_runner(model), "eager", True)
        else:
            runner = (self._eager_runner(model), "eager", False)
        self._runners[key] = runner
        return runner

    @staticmethod
    def _eager_runner(model: SessionRecModel):
        def run(items, length):
            return model(Tensor(items), Tensor(length))

        return run

    def trace(
        self,
        name: str,
        catalog_size: int,
        execution: str,
        top_k: int = 21,
        seed: int = 42,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> Tuple[CostTrace, str, bool]:
        """One representative forward-pass cost trace."""
        key = (name, catalog_size, execution, top_k, seed, _retrieval_token(retrieval))
        if key not in self._traces:
            runner, effective, jit_failed = self._runner(
                name, catalog_size, execution, top_k, seed, retrieval
            )
            model = self.model(name, catalog_size, top_k, seed, retrieval)
            items, length = model.example_inputs()
            with cost_trace() as trace:
                traced = runner(items, length).numpy()
            # Served forwards skip the accounting: check once, on the
            # example inputs, that they still give the traced answer.
            served = runner(items, length).numpy()
            if served.dtype != traced.dtype or not np.array_equal(served, traced):
                raise RuntimeError(
                    f"{name} ({effective}): the unaccounted forward returned "
                    f"{served!r}, the traced forward {traced!r}"
                )
            if effective == "onnx":
                from repro.serving.runtimes import onnx_transform

                trace = onnx_transform(trace)
            self._traces[key] = (trace, effective, jit_failed)
        return self._traces[key]

    def profile(
        self,
        name: str,
        catalog_size: int,
        device: DeviceModel,
        execution: str,
        top_k: int = 21,
        seed: int = 42,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> ServiceTimeProfile:
        key = (
            name,
            catalog_size,
            device.name,
            execution,
            top_k,
            seed,
            _retrieval_token(retrieval),
        )
        if key not in self._profiles:
            trace, _effective, _failed = self.trace(
                name, catalog_size, execution, top_k, seed, retrieval
            )
            model = self.model(name, catalog_size, top_k, seed, retrieval)
            self._profiles[key] = LatencyModel(device).profile(
                trace, resident_bytes=model.resident_bytes()
            )
        return self._profiles[key]

    # -- cross-process memo shipping ------------------------------------------

    #: Memo sections that are picklable pure data, safe to ship between
    #: processes. ``_models`` and ``_runners`` are deliberately excluded:
    #: runners hold closures over live model objects, and models are heavy
    #: — both are rebuilt deterministically from the shipped traces.
    MEMO_SECTIONS = ("recalls", "traces", "profiles")

    def export_memos(self, skip: Optional[Dict[str, set]] = None) -> Dict[str, Dict]:
        """Picklable memo entries, minus any keys listed in ``skip``.

        Used by the parallel execution backend: a worker exports only the
        entries it computed since its last shipment, the parent folds them
        into its own cache with :meth:`absorb_memos` so repeated
        candidates are never re-measured.
        """
        skip = skip or {}
        exported: Dict[str, Dict] = {}
        for section in self.MEMO_SECTIONS:
            table = getattr(self, f"_{section}")
            seen = skip.get(section, ())
            delta = {key: value for key, value in table.items() if key not in seen}
            if delta:
                exported[section] = delta
        return exported

    def absorb_memos(self, memos: Dict[str, Dict]) -> int:
        """Fold shipped memo entries into this registry; returns how many
        were new. Existing entries win — every value is deterministic in
        its key, so first-write-wins and last-write-wins agree; keeping
        the incumbent just avoids churn."""
        absorbed = 0
        for section in self.MEMO_SECTIONS:
            delta = memos.get(section)
            if not delta:
                continue
            table = getattr(self, f"_{section}")
            for key, value in delta.items():
                if key not in table:
                    table[key] = value
                    absorbed += 1
        return absorbed

    def assets(
        self,
        name: str,
        catalog_size: int,
        device: DeviceModel,
        execution: str,
        top_k: int = 21,
        seed: int = 42,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> ServingAssets:
        trace, effective, jit_failed = self.trace(
            name, catalog_size, execution, top_k, seed, retrieval
        )
        model = self.model(name, catalog_size, top_k, seed, retrieval)
        return ServingAssets(
            model_name=name,
            catalog_size=catalog_size,
            execution_requested=execution,
            execution_effective=effective,
            model=model,
            trace=trace,
            profile=self.profile(
                name, catalog_size, device, execution, top_k, seed, retrieval
            ),
            resident_bytes=model.resident_bytes(),
            score_bytes_per_item=model.score_bytes_per_item(),
            jit_failed=jit_failed,
        )


#: Process-wide registry (profiles are deterministic; sharing is safe).
GLOBAL_REGISTRY = AssetRegistry()
