"""Health-aware routing policies for the ClusterIP service.

The paper's service is a plain round-robin over the *instantaneously*
known ready pods — an idealization on two counts. Real load balancers
(Envoy, HAProxy, the k8s endpoint controller) neither learn about a dead
pod instantly nor keep hammering a pod that answers nothing but 503s:

- ``endpoint_lag_s`` models endpoint-propagation delay: after a pod drops
  out of readiness, the router keeps it in rotation for that long (the
  window in which real systems send traffic into a dead backend);
- **least-outstanding-requests** (``lor``) routes each request to the
  candidate with the fewest in-flight requests, which automatically
  steers around slow or degraded replicas;
- **passive outlier ejection** (the circuit breaker): a pod returning
  ``eject_after`` *consecutive* 503s leaves the rotation for
  ``cooldown_s``; it then re-enters via a single half-open probe request —
  a 200 restores it, another 503 re-ejects it for a fresh cooldown.
  Passive ejection is exactly what closes the endpoint-lag window:
  observed failures act faster than any readiness probe.

Fail-open rule: when every candidate is ejected, ejection is ignored and
the router falls back to the plain rotation (mirroring Envoy's
``max_ejection_percent`` guardrail) — a misconfigured breaker must never
turn a degraded service into a fully dead one.

Determinism: routing draws no random numbers; with no policy configured
the service executes exactly the pre-routing code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.options import format_options, parse_options

DISCIPLINES = ("rr", "lor")

#: Spec key -> (field, converter) for :meth:`RoutingPolicy.parse`.
_KEYS = {
    "eject": ("eject_after", int),
    "cooldown": ("cooldown_s", float),
    "lag": ("endpoint_lag_s", float),
}


def partition_by_shard(pods: Sequence) -> Dict[int, List]:
    """Group a pod list by shard index, preserving deployment order.

    The scatter-gather service routes each shard leg within its own pod
    group — every routing discipline (rr / lor / ejection) then applies
    per shard, because balancing across shards would be meaningless: a
    request must reach *every* shard exactly once. Pods without a shard
    attribute (plain deployments) all land in group 0.
    """
    groups: Dict[int, List] = {}
    for pod in pods:
        groups.setdefault(getattr(pod, "shard", 0), []).append(pod)
    return groups


@dataclass(frozen=True)
class RoutingPolicy:
    """Declarative routing behaviour for one ClusterIP service."""

    discipline: str = "rr"
    #: Consecutive 503s that eject a pod (None = ejection disabled).
    eject_after: Optional[int] = None
    #: How long an ejected pod sits out before its half-open probe.
    cooldown_s: float = 10.0
    #: Endpoint-propagation delay: a pod that left readiness stays in the
    #: routing view this long (0 = the paper's instantaneous view).
    endpoint_lag_s: float = 0.0

    def __post_init__(self):
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, got {self.discipline!r}"
            )
        if self.eject_after is not None and self.eject_after < 1:
            raise ValueError("eject_after must be >= 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if self.endpoint_lag_s < 0:
            raise ValueError("endpoint_lag_s must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "RoutingPolicy":
        """Build a policy from a compact CLI spec.

        Comma-separated: an optional bare discipline (``rr`` / ``lor``)
        plus ``key=value`` options, e.g. ``"lor,eject=3,cooldown=15,lag=2"``.
        Empty string = plain round-robin.
        """
        return cls(
            **parse_options(
                text, _KEYS, what="routing",
                positional=("discipline", DISCIPLINES),
            )
        )

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        return ",".join([self.discipline] + format_options(self, _KEYS))


__all__ = ["RoutingPolicy", "DISCIPLINES", "partition_by_shard"]
