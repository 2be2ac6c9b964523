"""Which opt-in features cannot share one deployment, and why.

Every pair of opt-in features composes unless it is declared here. The
matrix is checked by :func:`check_composition`, which the experiment
driver calls before it builds any asset, ``Cluster.deploy_model`` calls
for direct callers, and the Figure 2 infra test calls for the features it
models; the planner skips candidates that :func:`conflict` rejects. Feature names are the ``ExperimentSpec`` field names; the
scheduler's auxiliary CPU pool counts as ``scheduler``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Type

#: (feature, feature) -> why the two do not compose.
INCOMPATIBLE = {
    ("tenants", "sharding"): (
        "a tenant fleet does not compose with catalog sharding: "
        "every pod must host every tenant's full catalog"
    ),
    ("tenants", "scheduler"): (
        "a tenant fleet does not compose with the heterogeneous "
        "scheduler's auxiliary pool"
    ),
    ("tenants", "retrieval"): (
        "a tenant fleet does not compose with ANN retrieval: "
        "per-tenant index builds are not modeled"
    ),
    ("scheduler", "sharding"): (
        "the heterogeneous scheduler does not compose with catalog "
        "sharding: CPU pods must hold the full catalog to answer any "
        "request the dispatcher sends them"
    ),
}


def conflict(enabled: Mapping[str, bool]) -> Optional[str]:
    """The declared reason why two features ``enabled`` marks as on do
    not compose, or None."""
    for (first, second), reason in INCOMPATIBLE.items():
        if enabled.get(first) and enabled.get(second):
            return reason
    return None


def check_composition(
    enabled: Mapping[str, bool], error: Type[Exception]
) -> None:
    """Raise ``error`` with the reason of the first incompatible pair."""
    reason = conflict(enabled)
    if reason is not None:
        raise error(reason)


__all__ = ["INCOMPATIBLE", "check_composition", "conflict"]
