"""Opt-in heterogeneous-scheduler configuration (``--scheduler``).

Uses the shared option grammar of :mod:`repro.options`; ``"off"`` means
*disabled*, so default runs stay bit-identical.

The scheduler reproduces the DeepRecSys serving idea on top of the paper's
fleet model: one deployment mixes a GPU primary fleet with a pool of CPU
pods, short-session and tight-slack requests are dispatched to the CPU
pool (they cannot afford a GPU batching linger), and everything else is
accumulated into GPU batches whose size/linger knobs start from the
paper's hardcoded 1,024-request / 2 ms constants and are then hill-climbed
online against the observed latency tail.

Grammar::

    off                               # disabled (default runs use None)
    cpu=1                             # 1 CPU pod beside the GPU fleet
    cpu=2,short=6,target=25,q=90      # mix ratio + routing + tuning knobs

Keys (all optional, ``key=value`` separated by commas):

``cpu``      CPU pods added beside the primary fleet (default 1; 0 keeps
             the fleet homogeneous but still enables the batching tuner)
``instance`` CPU instance type for the pool (default ``CPU``)
``short``    sessions with at most this many clicks route to CPU
             (default 4; 0 disables size-based routing)
``slack``    extra seconds of deadline slack required before a request may
             wait for a GPU batch (default 0: a request routes to CPU as
             soon as its remaining slack cannot cover the current linger)
``batch``    initial GPU max batch size (default 1024, the paper constant)
``linger``   initial GPU batching linger in seconds (default 0.002)
``tune``     ``on``/``off`` — online hill-climbing tuner (default on)
``epoch``    tuning epoch length in seconds (default 5)
``target``   latency-tail target in milliseconds the tuner climbs against
             (default 50, the study's p90 SLO)
``q``        which percentile the tuner watches (default 90)
``tol``      relative tolerance band around ``target`` within which the
             knobs are left alone (default 0.15)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.options import format_options, on_off, parse_options

#: key -> (attribute, converter) for the ``key=value`` grammar.
_KEYS = {
    "cpu": ("cpu_replicas", int),
    "instance": ("cpu_instance", str),
    "short": ("short_session", int),
    "slack": ("slack_s", float),
    "batch": ("max_batch", int),
    "linger": ("linger_s", float),
    "tune": ("tune", on_off),
    "epoch": ("epoch_s", float),
    "target": ("target_p_ms", float),
    "q": ("quantile", float),
    "tol": ("tolerance", float),
}


@dataclass(frozen=True)
class SchedulerConfig:
    """Heterogeneous CPU/GPU dispatch + self-tuning batching for one fleet.

    ``enabled`` is False only for the parsed ``"off"`` form
    (``cpu_replicas=0, tune=False``), which leaves every run bit-identical
    to a config-less run — the opt-in contract shared with admission,
    routing, the cache, sharding and retrieval.
    """

    cpu_replicas: int = 1
    cpu_instance: str = "CPU"
    short_session: int = 4
    slack_s: float = 0.0
    max_batch: int = 1024
    linger_s: float = 0.002
    tune: bool = True
    epoch_s: float = 5.0
    target_p_ms: float = 50.0
    quantile: float = 90.0
    tolerance: float = 0.15

    def __post_init__(self) -> None:
        if self.cpu_replicas < 0:
            raise ValueError("cpu must be >= 0")
        if not self.cpu_instance:
            raise ValueError("instance must be a non-empty instance name")
        if self.short_session < 0:
            raise ValueError("short must be >= 0")
        if self.slack_s < 0:
            raise ValueError("slack must be >= 0")
        if self.max_batch < 1:
            raise ValueError("batch must be >= 1")
        if self.linger_s < 0:
            raise ValueError("linger must be >= 0")
        if self.epoch_s <= 0:
            raise ValueError("epoch must be > 0")
        if self.target_p_ms <= 0:
            raise ValueError("target must be > 0 (milliseconds)")
        if not 0 < self.quantile <= 100:
            raise ValueError("q must be within (0, 100]")
        if self.tolerance <= 0:
            raise ValueError("tol must be > 0")

    @property
    def enabled(self) -> bool:
        """True when the scheduler changes anything at all."""
        return self.cpu_replicas > 0 or self.tune

    @classmethod
    def parse(cls, text: str) -> "SchedulerConfig":
        """Parse the compact ``--scheduler`` grammar.

        ``""`` means defaults (one CPU pod, tuner on); ``"off"`` / ``"none"``
        disables; otherwise comma-separated ``key=value`` pairs. Unknown
        keys raise ``ValueError`` naming the accepted ones.
        """
        if text.strip() in ("off", "none"):
            return cls(cpu_replicas=0, tune=False)
        return cls(**parse_options(text, _KEYS, what="scheduler"))

    def spec_string(self) -> str:
        """The canonical compact form; ``parse`` round-trips it."""
        options = format_options(self, _KEYS)
        if options == ["cpu=0", "tune=off"]:
            return "off"
        return ",".join(options) or "cpu=1"

    def initial_batching(self) -> Tuple[int, float]:
        """The (max_batch, linger_s) pair GPU pods start from."""
        return self.max_batch, self.linger_s
