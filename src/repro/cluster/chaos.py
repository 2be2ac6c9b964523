"""Composable fault-injection schedules for the simulated cluster.

``Cluster.inject_pod_failure`` covers exactly one scenario: one pod, one
crash, one optional restart. Measuring how a deployment behaves at the
edge of its capacity needs richer degradation patterns — the regimes the
DeepRecSys and capacity-driven scale-out studies identify as the ones
that actually determine provisioning. A :class:`ChaosSchedule` composes
timed events over one run:

- :class:`PodCrash` — the classic single-pod crash (+ kubelet restart);
- :class:`CrashStorm` — several pods crashing in quick succession;
- :class:`SlowNode` — one replica's service times degrade by a factor
  (thermal throttling, noisy neighbour) for a window;
- :class:`NetworkDelay` — transient extra latency on the client→server
  leg of the ClusterIP service;
- :class:`ZoneOutage` — a *correlated* failure: every pod in one failure
  domain crashes at the same instant (requires a deployment spread with
  ``zones > 1``, see ``cluster/kubernetes.py``).

Event times are **relative to load start** (the schedule is installed
once the deployment's readiness signal fires), so the same schedule means
the same thing regardless of how long provisioning took.

Determinism: chaos draws no random numbers. An empty schedule — or none —
leaves every code path bit-identical to the pre-chaos simulator; the
degradation hooks multiply by 1.0 / add 0.0 when nominal.

Targets: cluster runs pass ``cluster`` + ``deployment`` (+ ``service``
for :class:`NetworkDelay`); bare-server setups like the Figure 2 infra
test pass ``servers`` instead, where crashes recover in place (no pod
boot sequence to replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.options import convert, format_value
from repro.simulation import Simulator

if TYPE_CHECKING:
    from repro.cluster.kubernetes import Cluster, ModelDeployment
    from repro.cluster.service import ClusterIPService
    from repro.obs.telemetry import Telemetry
    from repro.serving.actix import EtudeInferenceServer


def _parse_optional_s(value: str) -> Optional[float]:
    return None if value.lower() in ("none", "never") else float(value)


_parse_optional_s.expected = "seconds or 'none'"


def _parse_optional_index(value: str) -> Optional[int]:
    return None if value.lower() == "none" else int(value)


_parse_optional_index.expected = "an integer or 'none'"


@dataclass(frozen=True)
class ChaosEvent:
    """One timed fault; ``at_s`` is seconds after load start."""

    at_s: float = 0.0

    kind = "event"
    # Class attribute (deliberately unannotated — not a dataclass field):
    # override to record the run-level span under a domain name instead
    # of the default "chaos_{kind}".
    span_name = None

    def fire(self, controller: "ChaosController") -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class PodCrash(ChaosEvent):
    """Crash one pod; the kubelet restarts it after ``restart_after_s``
    (``None``: stays dead). On bare servers, "restart" is an in-place
    recovery after the same delay."""

    pod_index: int = 0
    restart_after_s: Optional[float] = 20.0
    #: Restrict the crash to one catalog shard's replica group:
    #: ``pod_index`` then counts within that group. On a sharded run this
    #: is how to knock out (part of) one shard and observe partial
    #: coverage; ``None`` on unsharded runs.
    shard: Optional[int] = None

    kind = "crash"

    def fire(self, controller: "ChaosController") -> None:
        controller.crash_pod(self.pod_index, self.restart_after_s, shard=self.shard)
        detail = {"pod_index": self.pod_index}
        if self.shard is not None:
            detail["shard"] = self.shard
        controller.note(self, **detail)


@dataclass(frozen=True)
class CrashStorm(ChaosEvent):
    """``count`` pods crash ``stagger_s`` apart, starting at ``at_s``."""

    count: int = 2
    stagger_s: float = 1.0
    restart_after_s: Optional[float] = 20.0

    kind = "storm"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("storm count must be >= 1")
        if self.stagger_s < 0:
            raise ValueError("stagger_s must be >= 0")

    def fire(self, controller: "ChaosController") -> None:
        for index in range(self.count):
            controller.simulator.call_in(
                index * self.stagger_s,
                lambda i=index: controller.crash_pod(i, self.restart_after_s),
            )
        controller.note(self, count=self.count)


@dataclass(frozen=True)
class SlowNode(ChaosEvent):
    """One replica's service times multiply by ``factor`` for
    ``duration_s`` (``None``: for the rest of the run)."""

    pod_index: int = 0
    factor: float = 3.0
    duration_s: Optional[float] = 30.0

    kind = "slow"

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("slowdown factor must be positive")

    def fire(self, controller: "ChaosController") -> None:
        server = controller.server(self.pod_index)
        if server is None:
            return  # pod not up (crashed or still booting): nothing to slow
        server.set_slowdown(self.factor)
        if self.duration_s is not None:
            controller.simulator.call_in(
                self.duration_s, lambda: server.set_slowdown(1.0)
            )
        controller.note(
            self,
            pod_index=self.pod_index,
            factor=self.factor,
            duration_s=self.duration_s,
        )


@dataclass(frozen=True)
class NetworkDelay(ChaosEvent):
    """Extra one-way latency on the client→server leg for a window."""

    extra_s: float = 0.005
    duration_s: Optional[float] = 30.0

    kind = "netdelay"

    def __post_init__(self):
        if self.extra_s < 0:
            raise ValueError("extra_s must be >= 0")

    def fire(self, controller: "ChaosController") -> None:
        service = controller.service
        if service is None:
            raise ValueError("netdelay chaos requires a ClusterIP service")
        service.extra_latency_s += self.extra_s
        if self.duration_s is not None:

            def restore() -> None:
                service.extra_latency_s = max(
                    service.extra_latency_s - self.extra_s, 0.0
                )

            controller.simulator.call_in(self.duration_s, restore)
        controller.note(
            self, extra_s=self.extra_s, duration_s=self.duration_s
        )


@dataclass(frozen=True)
class ZoneOutage(ChaosEvent):
    """Correlated failure: every pod in one failure domain crashes at the
    same instant (rack power loss, zonal network partition, a rolling
    kernel upgrade gone wrong). Each kubelet restarts its pod *in the
    pod's home zone* after ``restart_after_s`` (``None``: the zone stays
    dark for the rest of the run). Requires a cluster deployment placed
    with ``zones > 1``."""

    zone: str = "z0"
    restart_after_s: Optional[float] = 20.0

    kind = "zone"
    span_name = "zone_outage"

    def __post_init__(self):
        if not self.zone:
            raise ValueError("zone outage needs a zone name")

    def fire(self, controller: "ChaosController") -> None:
        names = controller.crash_zone(self.zone, self.restart_after_s)
        controller.note(
            self,
            zone=self.zone,
            pods=len(names),
            duration_s=self.restart_after_s,
        )


_EVENT_KINDS = {
    "crash": (
        PodCrash,
        {
            "pod": ("pod_index", int),
            "restart": ("restart_after_s", _parse_optional_s),
            "shard": ("shard", _parse_optional_index),
        },
    ),
    "storm": (
        CrashStorm,
        {
            "count": ("count", int),
            "stagger": ("stagger_s", float),
            "restart": ("restart_after_s", _parse_optional_s),
        },
    ),
    "slow": (
        SlowNode,
        {
            "pod": ("pod_index", int),
            "factor": ("factor", float),
            "dur": ("duration_s", _parse_optional_s),
        },
    ),
    "netdelay": (
        NetworkDelay,
        {"add": ("extra_s", float), "dur": ("duration_s", _parse_optional_s)},
    ),
    "zone": (
        ZoneOutage,
        {
            "name": ("zone", str),
            "restart": ("restart_after_s", _parse_optional_s),
        },
    ),
}


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered, immutable collection of chaos events for one run."""

    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self):
        for event in self.events:
            if event.at_s < 0:
                raise ValueError(f"event time must be >= 0: {event}")

    def install(
        self,
        simulator: Simulator,
        *,
        cluster: Optional["Cluster"] = None,
        deployment: Optional["ModelDeployment"] = None,
        service: Optional["ClusterIPService"] = None,
        servers: Optional[Sequence["EtudeInferenceServer"]] = None,
        telemetry: Optional["Telemetry"] = None,
        start_at: Optional[float] = None,
    ) -> "ChaosController":
        """Schedule every event; returns the controller holding the log.

        ``start_at`` anchors the relative event times (default: now — call
        this when the load starts, e.g. right after the readiness signal).
        """
        controller = ChaosController(
            simulator,
            cluster=cluster,
            deployment=deployment,
            service=service,
            servers=servers,
            telemetry=telemetry,
        )
        origin = simulator.now if start_at is None else start_at
        for event in self.events:
            simulator.call_at(
                origin + event.at_s, lambda e=event: e.fire(controller)
            )
        return controller

    @classmethod
    def parse(cls, text: str) -> "ChaosSchedule":
        """Build a schedule from a compact CLI spec.

        Comma-separated events, each ``kind@at[:key=value...]``::

            crash@150:pod=0:restart=20
            storm@200:count=3:stagger=1:restart=none
            slow@100:pod=1:factor=3:dur=30
            netdelay@50:add=0.005:dur=30
            zone@60:name=z0:restart=25
        """
        events: List[ChaosEvent] = []
        for item in filter(None, (p.strip() for p in text.split(","))):
            head, *options = item.split(":")
            kind, at, at_text = head.partition("@")
            if not at or kind not in _EVENT_KINDS:
                raise ValueError(
                    f"bad chaos event {item!r}; expected kind@seconds with "
                    f"kind in {sorted(_EVENT_KINDS)}"
                )
            event_cls, keys = _EVENT_KINDS[kind]
            kwargs: dict = {"at_s": convert("chaos", "time", float, at_text)}
            for option in options:
                key, eq, value = option.partition("=")
                if not eq or key not in keys:
                    raise ValueError(
                        f"bad chaos option {option!r} for {kind!r}; "
                        f"known: {sorted(keys)}"
                    )
                name, cast = keys[key]
                kwargs[name] = convert("chaos", key, cast, value)
            events.append(event_cls(**kwargs))
        return cls(events=tuple(events))

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        parts = []
        for event in self.events:
            _, keys = _EVENT_KINDS[event.kind]
            options = "".join(
                f":{key}={'none' if value is None else format_value(value)}"
                for key, (name, _) in keys.items()
                for value in (getattr(event, name),)
                # shard=None means "not shard-scoped" — omitted so that
                # pre-sharding schedules round-trip to the same string.
                if not (key == "shard" and value is None)
            )
            parts.append(f"{event.kind}@{format_value(event.at_s)}{options}")
        return ",".join(parts)


class ChaosController:
    """Fires a schedule's events against one run's targets and logs them."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        cluster: Optional["Cluster"] = None,
        deployment: Optional["ModelDeployment"] = None,
        service: Optional["ClusterIPService"] = None,
        servers: Optional[Sequence["EtudeInferenceServer"]] = None,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.simulator = simulator
        self.cluster = cluster
        self.deployment = deployment
        self.service = service
        self.servers = list(servers) if servers is not None else None
        self.telemetry = telemetry
        #: Chronological log of fired events (for ``RunResult.resilience``).
        self.fired: List[Dict] = []
        #: Zone outages with their victim pod names, for the availability
        #: section's time-to-recovery accounting.
        self.zone_outages: List[Dict] = []
        self._counters: Dict[str, object] = {}
        self._next_chaos_trace_id = -1

    # -- target helpers -----------------------------------------------------

    def server(self, pod_index: int) -> Optional["EtudeInferenceServer"]:
        if self.deployment is not None:
            pods = self.deployment.pods
            if not pods:
                return None
            return pods[pod_index % len(pods)].server
        if self.servers:
            return self.servers[pod_index % len(self.servers)]
        return None

    def crash_pod(
        self,
        pod_index: int,
        restart_after_s: Optional[float],
        shard: Optional[int] = None,
    ) -> None:
        if self.cluster is not None and self.deployment is not None:
            pods = self.deployment.pods
            if not pods:
                return
            if shard is None:
                target = pod_index % len(pods)
            else:
                # Crash within one shard's replica group (partial-coverage
                # experiments). No pods on that shard: nothing to crash.
                group = [
                    index for index, pod in enumerate(pods) if pod.shard == shard
                ]
                if not group:
                    return
                target = group[pod_index % len(group)]
            self.cluster.inject_pod_failure(
                self.deployment,
                target,
                at_time=self.simulator.now,
                restart_after=restart_after_s,
            )
            return
        # Bare-server runs deploy one server per shard, so a shard-scoped
        # crash targets that server directly.
        server = self.server(pod_index if shard is None else shard)
        if server is None:
            raise ValueError(
                "crash chaos requires a cluster+deployment or bare servers"
            )
        server.crash()
        if restart_after_s is not None:
            self.simulator.call_in(restart_after_s, server.recover)

    def crash_zone(
        self, zone: str, restart_after_s: Optional[float]
    ) -> List[str]:
        """Crash every pod whose node sits in ``zone``, simultaneously.

        Returns the victim pod names (empty when the zone hosts nothing —
        e.g. the deployment was placed with ``zones=1``). The correlated
        loss is also appended to :attr:`zone_outages` so the experiment
        driver can compute time-to-recovery from the pods' readiness
        timestamps.
        """
        if self.cluster is None or self.deployment is None:
            raise ValueError(
                "zone chaos requires a cluster deployment placed with "
                "zones > 1 (bare servers have no failure domains)"
            )
        now = self.simulator.now
        targets = [
            index
            for index, pod in enumerate(self.deployment.pods)
            if pod.zone == zone
        ]
        for index in targets:
            self.cluster.inject_pod_failure(
                self.deployment,
                index,
                at_time=now,
                restart_after=restart_after_s,
            )
        names = [self.deployment.pods[index].name for index in targets]
        self.zone_outages.append(
            {
                "zone": zone,
                "at_s": now,
                "pods": names,
                "restart_after_s": restart_after_s,
            }
        )
        if self.telemetry is not None and names:
            self.telemetry.metrics.counter(
                "availability_zone_outages_total",
                unit="events",
                help="correlated zone-outage events injected",
            ).inc()
            self.telemetry.metrics.counter(
                "availability_pods_lost_total",
                unit="pods",
                help="pods crashed by zone outages",
            ).inc(len(names))
        return names

    # -- bookkeeping --------------------------------------------------------

    def note(self, event: ChaosEvent, **detail) -> None:
        """Log a fired event, bump its counter, record a run-level span."""
        at = self.simulator.now
        self.fired.append({"at_s": at, "kind": event.kind, **detail})
        if self.telemetry is None:
            return
        counter = self._counters.get(event.kind)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "chaos_events_total",
                unit="events",
                labels={"kind": event.kind},
                help="chaos-schedule events fired during the run",
            )
            self._counters[event.kind] = counter
        counter.inc()
        span = self.telemetry.trace.begin(
            event.span_name or f"chaos_{event.kind}",
            self._next_chaos_trace_id,
            **detail,
        )
        self._next_chaos_trace_id -= 1
        end = at + (detail.get("duration_s") or 0.0)
        span.finish(at=end)

    @property
    def events_fired(self) -> int:
        return len(self.fired)
