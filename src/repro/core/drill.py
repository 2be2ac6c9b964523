"""Scripted failure drills: outage → degradation envelope → recovery.

A capacity plan that has never been through an outage is a guess. The
drill runs one experiment with a :class:`~repro.cluster.chaos.ZoneOutage`
injected mid-load, then windows the per-second series around the outage
into *before* / *during* / *after* and reports the degradation envelope:
how far p90 moved, what fraction of requests kept getting 200s, the
worst catalog coverage served, and the time-to-recovery once the
kubelets brought the zone back.

Used by the ``repro drill`` CLI command, its acceptance test
(``make failover-smoke``), and the planner's ``--survive-zones``
verification runs. See ``docs/availability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.experiment import ExperimentRunner
from repro.core.spec import SLO, ExperimentSpec
from repro.metrics.results import RunResult

#: Seconds granted after the zone restarts before the "after" window
#: opens — restarted pods re-trace their JIT graph on first requests.
RECOVERY_MARGIN_S = 5.0


@dataclass
class DrillWindow:
    """Aggregates over one slice of the run's per-second series."""

    name: str
    seconds: int = 0
    sent: int = 0
    ok: int = 0
    errors: int = 0
    #: Median of the window's per-second p90s (same estimator as
    #: ``LatencySeries.p90_at_load``), None when nothing completed.
    p90_ms: Optional[float] = None

    @property
    def ok_fraction(self) -> float:
        answered = self.ok + self.errors
        return self.ok / answered if answered else 0.0

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "ok_fraction": round(self.ok_fraction, 6),
            "p90_ms": self.p90_ms,
        }


@dataclass
class DrillReport:
    """Outcome of one failure drill."""

    zone: str
    outage_at_s: float
    restart_after_s: Optional[float]
    before: DrillWindow
    during: DrillWindow
    after: DrillWindow
    #: Max over the run's zone outages; None = the zone never came back.
    time_to_recovery_s: Optional[float]
    #: Worst catalog coverage of any merged 200 (1.0 on unsharded runs).
    min_coverage: float
    #: 200s / answered over the whole run.
    ok_fraction: float
    #: Did the fleet keep serving through the outage? (during-window 200
    #: fraction at or above the floor, coverage never below it.)
    survived: bool
    #: Did it come back? (finite TTR and the after-window p90 back under
    #: the SLO limit.)
    recovered: bool
    result: RunResult = field(repr=False, default=None)

    def to_dict(self) -> Dict:
        return {
            "zone": self.zone,
            "outage_at_s": self.outage_at_s,
            "restart_after_s": self.restart_after_s,
            "windows": [
                w.to_dict() for w in (self.before, self.during, self.after)
            ],
            "time_to_recovery_s": self.time_to_recovery_s,
            "min_coverage": self.min_coverage,
            "ok_fraction": round(self.ok_fraction, 6),
            "survived": self.survived,
            "recovered": self.recovered,
        }


def _window(name: str, series, lo: float, hi: float) -> DrillWindow:
    """Aggregate the series seconds ``lo <= s < hi`` (absolute time)."""
    window = DrillWindow(name=name)
    p90s: List[float] = []
    for second, sent, ok, errors, p90 in zip(
        series.seconds, series.offered_rps, series.ok, series.errors,
        series.p90_ms,
    ):
        if not lo <= second < hi:
            continue
        window.seconds += 1
        window.sent += sent
        window.ok += ok
        window.errors += errors
        if p90 is not None:
            p90s.append(p90)
    if p90s:
        p90s.sort()
        window.p90_ms = p90s[len(p90s) // 2]
    return window


def run_failure_drill(
    spec: ExperimentSpec,
    slo: SLO = SLO(),
    *,
    zones_down: int = 1,
    outage_at_s: Optional[float] = None,
    restart_after_s: Optional[float] = 20.0,
    coverage_floor: float = 1.0,
    ok_floor: float = 0.99,
    runner: Optional[ExperimentRunner] = None,
) -> DrillReport:
    """Run ``spec`` with zones ``z0..z{N-1}`` crashing mid-load and report
    the degradation envelope.

    The spec must be placed over more failure domains than go down
    (``zones > zones_down``) — with nothing left standing, "survival" is
    undefined; and at ``zones=1`` every pod reports zone ``""``, so the
    outage would hit nothing, which is a configuration error, not a
    passing drill. A pre-existing chaos schedule on the spec is rejected
    for the same reason: the drill owns the failure script.
    """
    if zones_down < 1:
        raise ValueError("zones_down must be >= 1")
    if spec.zones <= zones_down:
        raise ValueError(
            f"a drill with {zones_down} zone(s) down needs a spec with "
            f"zones >= {zones_down + 1} (got {spec.zones})"
        )
    if spec.chaos is not None:
        raise ValueError(
            "the drill injects its own zone outage; run plain chaos "
            "schedules through `repro run --chaos ...` instead"
        )
    if outage_at_s is None:
        outage_at_s = spec.duration_s / 3.0
    if outage_at_s <= 0 or outage_at_s >= spec.duration_s:
        raise ValueError("outage_at_s must fall inside the run")

    restart = (
        f"restart={restart_after_s:g}"
        if restart_after_s is not None
        else "restart=none"
    )
    zones = [f"z{index}" for index in range(zones_down)]
    chaos = ",".join(
        f"zone@{outage_at_s:g}:name={name}:{restart}" for name in zones
    )
    drilled = replace(spec, chaos=chaos, collect_series=True)
    runner = runner or ExperimentRunner(seed=spec.seed)
    result = runner.run(drilled)

    availability = result.availability or {}
    started = availability.get("load_started_at_s") or 0.0
    outage_abs = started + outage_at_s
    ttr = availability.get("time_to_recovery_s")
    # The "after" window opens once the zone is measurably back (pod
    # readiness, not the restart trigger — kubelet boot time is real)
    # plus the JIT re-warmup margin; a zone that never comes back leaves
    # no after window.
    if ttr is not None:
        back_abs = outage_abs + ttr + RECOVERY_MARGIN_S
    elif restart_after_s is not None:
        back_abs = outage_abs + restart_after_s + RECOVERY_MARGIN_S
    else:
        back_abs = started + spec.duration_s
    series = result.series
    before = _window("before", series, started, outage_abs)
    during = _window("during", series, outage_abs, back_abs)
    after = _window("after", series, back_abs, started + spec.duration_s)

    sharding = result.sharding or {}
    min_coverage = float(sharding.get("min_coverage", 1.0))
    answered = result.ok_requests + result.error_requests
    ok_fraction = result.ok_requests / answered if answered else 0.0

    survived = (
        during.ok_fraction >= ok_floor and min_coverage >= coverage_floor
    )
    recovered = (
        ttr is not None
        and after.p90_ms is not None
        and after.p90_ms <= slo.p90_latency_ms
    )
    return DrillReport(
        zone=",".join(zones),
        outage_at_s=outage_at_s,
        restart_after_s=restart_after_s,
        before=before,
        during=during,
        after=after,
        time_to_recovery_s=ttr,
        min_coverage=min_coverage,
        ok_fraction=ok_fraction,
        survived=survived,
        recovered=recovered,
        result=result,
    )
