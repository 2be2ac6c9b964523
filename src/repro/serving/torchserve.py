"""TorchServe queueing model.

The paper spends several weeks evaluating TorchServe and attributes its
failure "to the overhead of using several Python processes, orchestrated by
a Java frontend" (Section II). The pipeline simulated here:

1. a Java **frontend** accepts the HTTP request (per-request overhead for
   parsing, routing and IPC serialization) and places it in a bounded job
   queue;
2. a small pool of single-threaded Python **workers** (one per vCPU by
   default) pull jobs over IPC; even an empty model costs the worker
   milliseconds of handler/serialization work per request;
3. jobs that waited longer than the **internal 100 ms timeout** are
   answered with an HTTP error when they reach a worker (and the frontend
   rejects outright once the queue is full).

On a 2-vCPU machine this saturates well below 1,000 req/s, producing the
error avalanche and the 100-200 ms p90 of Figure 2.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.hardware.device import DeviceModel
from repro.hardware.latency_model import ServiceTimeProfile
from repro.serving.profiles import TorchServeProfile
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
    ResponseCallback,
)
from repro.simulation import LognormalSource, Signal, Simulator


class TorchServeServer:
    """One TorchServe deployment (frontend + Python worker pool)."""

    def __init__(
        self,
        simulator: Simulator,
        device: DeviceModel,
        service_profile: Optional[ServiceTimeProfile],
        rng: np.random.Generator,
        vcpus: float = 2.0,
        profile: Optional[TorchServeProfile] = None,
        name: str = "torchserve",
    ):
        self.simulator = simulator
        self.device = device
        self.service_profile = service_profile
        self.profile = profile or TorchServeProfile()
        self.jitter = LognormalSource(rng)
        self.name = name

        self._queue: Deque[Tuple[RecommendationRequest, ResponseCallback, float]] = (
            deque()
        )
        self._work_signal = Signal(f"{name}-work")
        self.completed = 0
        self.timed_out = 0
        self.rejected = 0

        workers = max(1, int(vcpus * self.profile.workers_per_vcpu))
        for index in range(workers):
            simulator.spawn(self._python_worker(index))

    # -- intake -------------------------------------------------------------

    def submit(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        frontend_s = self.profile.frontend_overhead_s * self.jitter.lognormal(
            0.0, self.profile.jitter_sigma
        )
        self.simulator.call_in(
            frontend_s, self._enqueue, request, respond
        )

    def _enqueue(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        if len(self._queue) >= self.profile.max_queue_depth:
            self.rejected += 1
            self._fail(request, respond)
            return
        self._queue.append((request, respond, self.simulator.now))
        self._work_signal.fire()

    def _fail(self, request: RecommendationRequest, respond: ResponseCallback) -> None:
        now = self.simulator.now
        respond(
            RecommendationResponse(
                request_id=request.request_id,
                status=HTTP_SERVICE_UNAVAILABLE,
                completed_at=now,
                latency_s=now - request.sent_at,
            )
        )

    def queue_depth(self) -> int:
        return len(self._queue)

    # -- workers ---------------------------------------------------------------

    def _wait_for_work(self) -> Signal:
        if self._work_signal.fired:
            self._work_signal = Signal(f"{self.name}-work")
        return self._work_signal

    def _python_worker(self, index: int):
        timeout = self.profile.queue_timeout_s
        while True:
            if not self._queue:
                yield self._wait_for_work()
                continue
            request, respond, enqueued_at = self._queue.popleft()
            if self.simulator.now - enqueued_at > timeout:
                # The job expired in the queue: answered with an HTTP error
                # without running inference.
                self.timed_out += 1
                self._fail(request, respond)
                continue
            handler_s = self.profile.worker_overhead_s * self.jitter.lognormal(
                0.0, self.profile.jitter_sigma
            )
            inference_s = 0.0
            if self.service_profile is not None:
                inference_s = self.service_profile.latency(1)
            yield handler_s + inference_s
            now = self.simulator.now
            respond(
                RecommendationResponse(
                    request_id=request.request_id,
                    status=HTTP_OK,
                    completed_at=now,
                    latency_s=now - request.sent_at,
                    inference_s=inference_s,
                )
            )
            self.completed += 1
