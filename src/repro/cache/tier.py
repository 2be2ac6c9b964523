"""The serving-side cache tiers and the singleflight table.

Architecture (see ``docs/caching.md``):

- **Local tier** — one per pod, in-process. A hit is answered within the
  server's HTTP-overhead latency: no queueing, no admission, no worker or
  GPU batch slot.
- **Remote tier** (optional) — one shared store per deployment, standing
  in for a memcached/Redis sidecar. Lookups charge a network round trip
  through :class:`~repro.hardware.latency_model.NetworkHop`; a remote hit
  back-fills the local tier.
- **Singleflight** — concurrent misses on one key park behind the first
  ("leader") computation instead of each occupying capacity; when the
  leader's inference completes, every parked follower is answered from it.

Everything is keyed through :class:`~repro.cache.keys.SessionKeyer`, so a
model redeploy (new artifact version) invalidates all prior entries
without an explicit flush.

Determinism contract: a :class:`CacheConfig` with zero capacity in both
tiers reports ``enabled == False`` and the serving layer builds no cache
at all — no extra RNG draws, no extra simulator events, bit-identical to
a run with no cache configured (same contract as admission/fallback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.keys import CacheKey, SessionKeyer
from repro.cache.policy import MISSING, POLICIES, EvictionPolicy, make_policy
from repro.options import format_options, parse_options

#: A parked coalesced request: (request, respond, joined_at).
FlightWaiter = Tuple[Any, Any, float]

#: Spec key -> (field, converter) for :meth:`CacheConfig.parse`.
_KEYS = {
    "capacity": ("capacity", int),
    "policy": ("policy", str),
    "window": ("window", int),
    "ttl": ("ttl_s", float),
    "remote": ("remote_capacity", int),
    "rttl": ("remote_ttl_s", float),
}


@dataclass(frozen=True)
class CacheConfig:
    """Declarative knobs for the recommendation cache."""

    #: Entries held by each pod's in-process tier (0 = no local tier).
    capacity: int = 4096
    #: Eviction policy for both tiers: ``lru`` / ``lfu`` / ``segmented``.
    policy: str = "lru"
    #: Session-prefix window: keys are the last ``window`` clicks.
    window: int = 8
    #: Local-tier TTL in virtual seconds (0 = entries never expire).
    ttl_s: float = 60.0
    #: Entries in the shared remote tier (0 = no remote tier).
    remote_capacity: int = 0
    #: Remote-tier TTL in virtual seconds (0 = never expire).
    remote_ttl_s: float = 300.0

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.remote_capacity < 0:
            raise ValueError("remote_capacity must be >= 0")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {self.policy!r}; "
                f"choose from {', '.join(POLICIES)}"
            )
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.ttl_s < 0 or self.remote_ttl_s < 0:
            raise ValueError("TTLs must be >= 0 (0 = no expiry)")

    @property
    def enabled(self) -> bool:
        """Whether this config builds any cache at all.

        Zero capacity in both tiers is the contractual off-switch: the
        serving layer then takes the exact pre-cache code paths.
        """
        return self.capacity > 0 or self.remote_capacity > 0

    @classmethod
    def parse(cls, text: str) -> "CacheConfig":
        """Build a config from a compact CLI spec.

        ``"lfu,capacity=8192,window=4,ttl=30,remote=65536,rttl=300"`` —
        a bare policy name selects the eviction policy; every ``key=value``
        is optional; the empty string (bare ``--cache``) means all
        defaults.
        """
        return cls(
            **parse_options(
                text, _KEYS, what="cache", positional=("policy", POLICIES)
            )
        )

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        options = format_options(self, _KEYS, skip=("policy",))
        return ",".join([self.policy] + options)


class RemoteCacheTier:
    """The shared (deployment-wide) cache store.

    One instance is shared by every pod of a deployment; the *network
    cost* of reaching it is charged by the serving layer, not here — this
    object is pure storage plus hit accounting.
    """

    def __init__(self, config: CacheConfig):
        if config.remote_capacity < 1:
            raise ValueError("remote tier requires remote_capacity >= 1")
        self.config = config
        self.store: EvictionPolicy = make_policy(
            config.policy,
            config.remote_capacity,
            config.remote_ttl_s if config.remote_ttl_s > 0 else None,
        )
        self.hits = 0
        self.misses = 0
        self.fills = 0

    def lookup(self, key: CacheKey, now: float) -> Any:
        value = self.store.get(key, now)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def fill(self, key: CacheKey, value: Any, now: float) -> None:
        self.store.put(key, value, now)
        self.fills += 1

    def __len__(self) -> int:
        return len(self.store)


class RecommendationCache:
    """One pod's cache front: local tier + remote handle + flight table."""

    def __init__(
        self,
        config: CacheConfig,
        version: str,
        remote: Optional[RemoteCacheTier] = None,
    ):
        if not config.enabled:
            raise ValueError("RecommendationCache requires a non-zero capacity")
        self.config = config
        self.keyer = SessionKeyer(version, config.window)
        self.local: Optional[EvictionPolicy] = None
        if config.capacity > 0:
            self.local = make_policy(
                config.policy,
                config.capacity,
                config.ttl_s if config.ttl_s > 0 else None,
            )
        self.remote = remote
        self._flights: Dict[CacheKey, List[FlightWaiter]] = {}
        self.hits_local = 0
        self.hits_remote = 0
        self.misses = 0
        self.fills = 0
        self.coalesced = 0

    # -- keys ------------------------------------------------------------

    def key_for(
        self,
        session_items: Sequence[int],
        version: Optional[str] = None,
    ) -> CacheKey:
        """Build a key; ``version`` scopes it to one tenant+arm keyspace."""
        return self.keyer.key_for(session_items, version=version)

    def set_version(self, version: str) -> None:
        """Redeploy invalidation: future keys use the new artifact."""
        self.keyer.set_version(version)

    # -- lookups and fills -------------------------------------------------

    def lookup_local(self, key: CacheKey, now: float) -> Any:
        if self.local is None:
            return MISSING
        value = self.local.get(key, now)
        if value is not MISSING:
            self.hits_local += 1
        return value

    def lookup_remote(self, key: CacheKey, now: float) -> Any:
        if self.remote is None:
            return MISSING
        value = self.remote.lookup(key, now)
        if value is not MISSING:
            self.hits_remote += 1
        return value

    def fill_local(self, key: CacheKey, value: Any, now: float) -> None:
        if self.local is not None:
            self.local.put(key, value, now)

    def fill(self, key: CacheKey, value: Any, now: float) -> None:
        """Store a freshly computed answer in every configured tier."""
        self.fills += 1
        if self.local is not None:
            self.local.put(key, value, now)
        if self.remote is not None:
            self.remote.fill(key, value, now)

    # -- singleflight ------------------------------------------------------

    def flight_exists(self, key: CacheKey) -> bool:
        return key in self._flights

    def begin_flight(self, key: CacheKey) -> None:
        """Register a leader computation for ``key`` (counts as a miss)."""
        self.misses += 1
        self._flights[key] = []

    def join_flight(self, key: CacheKey, waiter: FlightWaiter) -> None:
        """Park a concurrent miss behind the in-flight leader."""
        self.coalesced += 1
        self._flights.setdefault(key, []).append(waiter)

    def finish_flight(self, key: CacheKey) -> List[FlightWaiter]:
        """Close a flight, returning the parked followers (may be empty)."""
        return self._flights.pop(key, [])

    def in_flight(self) -> int:
        return len(self._flights)

    # -- accounting --------------------------------------------------------

    def local_size(self) -> int:
        return len(self.local) if self.local is not None else 0

    @property
    def hits(self) -> int:
        return self.hits_local + self.hits_remote

    @property
    def lookups(self) -> int:
        """Requests that consulted the cache (hits + leader misses);
        coalesced followers are counted separately."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> Dict[str, int]:
        stats = {
            "hits_local": self.hits_local,
            "hits_remote": self.hits_remote,
            "misses": self.misses,
            "fills": self.fills,
            "coalesced": self.coalesced,
            "evictions": self.local.evictions if self.local is not None else 0,
            "expirations": self.local.expirations if self.local is not None else 0,
        }
        return stats


__all__ = [
    "CacheConfig",
    "RemoteCacheTier",
    "RecommendationCache",
    "FlightWaiter",
]
