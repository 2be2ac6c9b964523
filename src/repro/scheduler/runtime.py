"""Wires the dispatcher and tuner into a live deployment.

:class:`SchedulerRuntime` owns the epoch loop: a finite simulator process
that wakes every ``epoch_s`` virtual seconds, snapshots the dispatcher's
per-route latency digests and the GPU fleet's mean flush size, lets the
:class:`~repro.scheduler.tuner.HillClimbTuner` move (at most) one knob,
and pushes the resulting :class:`~repro.serving.batching.BatchingConfig`
onto every GPU pod — including the pod templates, so a chaos-restarted
or scaled-up pod comes back with the *tuned* knobs rather than the
initial ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, TYPE_CHECKING

from repro.scheduler.config import SchedulerConfig
from repro.scheduler.dispatch import QueryDispatcher
from repro.scheduler.tuner import EpochObservation, HillClimbTuner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.kubernetes import ModelDeployment
    from repro.obs import Telemetry

#: Trace-id range for ``sched_tune`` spans (service/chaos spans use other
#: negative ranges; see ``cluster/service.py``).
_TUNE_TRACE_ID_START = -300_000


class SchedulerRuntime:
    """Epoch-driven tuning loop over one heterogeneous deployment."""

    def __init__(
        self,
        simulator,
        config: SchedulerConfig,
        deployment: "ModelDeployment",
        dispatcher: QueryDispatcher,
        tuner: Optional[HillClimbTuner],
        telemetry: Optional["Telemetry"] = None,
    ):
        self.simulator = simulator
        self.config = config
        self.deployment = deployment
        self.dispatcher = dispatcher
        self.tuner = tuner
        self.telemetry = telemetry
        self._next_trace_id = _TUNE_TRACE_ID_START
        self._last_flushes = 0
        self._last_batched = 0

    # -- fleet views ----------------------------------------------------------

    def _gpu_servers(self):
        return [
            pod.server
            for pod in self.deployment.pods
            if pod.server is not None
            and pod.instance_type.device.supports_batching()
        ]

    def _mean_batch(self) -> Optional[float]:
        """Mean GPU flush size since the previous epoch."""
        flushes = sum(server.batch_flushes for server in self._gpu_servers())
        batched = sum(server.batched_requests for server in self._gpu_servers())
        delta_flushes = flushes - self._last_flushes
        delta_batched = batched - self._last_batched
        self._last_flushes = flushes
        self._last_batched = batched
        if delta_flushes <= 0:
            return None
        return delta_batched / delta_flushes

    # -- the epoch loop -------------------------------------------------------

    def epoch_process(self, until: float):
        """Finite tuning loop; spawn on the simulator alongside the load."""
        if self.tuner is None:
            return
        while self.simulator.now + self.config.epoch_s <= until:
            yield self.config.epoch_s
            observation_dict = self.dispatcher.epoch_snapshot(
                self.config.quantile
            )
            observation = EpochObservation(
                count=observation_dict["count"],
                p_tail_ms=observation_dict["p_tail_ms"],
                cpu_p_ms=observation_dict["cpu_p_ms"],
                gpu_p_ms=observation_dict["gpu_p_ms"],
                mean_batch=self._mean_batch(),
            )
            moved = self.tuner.step(observation)
            if moved is not None:
                self._apply()
            if self.telemetry is not None:
                self._emit(observation, moved)

    def _apply(self) -> None:
        """Push the tuner's knobs onto the live fleet."""
        batching = self.tuner.batching()
        for server in self._gpu_servers():
            server.batching = batching
        # Chaos-restarted and scaled-up pods must come back with the tuned
        # knobs, so the templates they boot from change too.
        for holder in (self.deployment, *self.deployment.pods):
            holder.template = replace(holder.template, batching=batching)
        self.dispatcher.short_session = self.tuner.short_session
        self.dispatcher.linger_s = self.tuner.linger_s

    def _emit(self, observation: EpochObservation, moved: Optional[str]) -> None:
        metrics = self.telemetry.metrics
        metrics.counter(
            "scheduler_tune_epochs_total",
            help="tuning epochs evaluated by the scheduler",
        ).inc()
        if moved is not None:
            metrics.counter(
                "scheduler_tune_moves_total",
                labels={"knob": moved},
                help="knob adjustments made by the hill-climbing tuner",
            ).inc()
        metrics.gauge(
            "scheduler_max_batch", unit="requests",
            help="current tuned GPU max batch size",
        ).set(self.tuner.max_batch)
        metrics.gauge(
            "scheduler_linger_s", unit="s",
            help="current tuned GPU batching linger",
        ).set(self.tuner.linger_s)
        span = self.telemetry.trace.begin(
            "sched_tune",
            self._next_trace_id,
            at=self.simulator.now,
            moved=moved or "hold",
            p_tail_ms=observation.p_tail_ms,
            max_batch=self.tuner.max_batch,
            linger_s=self.tuner.linger_s,
            short_session=self.tuner.short_session,
        )
        self._next_trace_id -= 1
        span.finish(at=self.simulator.now)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """The ``RunResult.scheduler`` payload."""
        payload = {
            "config": self.config.spec_string(),
            "cpu_replicas": self.config.cpu_replicas,
            "cpu_instance": self.config.cpu_instance,
            **self.dispatcher.summary(),
        }
        if self.tuner is not None:
            payload["tuner"] = self.tuner.summary()
        return payload
