"""Bare-server test fixtures: a one-op service profile, a request, and a
deterministic click-stream replay.

``replay`` submits one request per session prefix at a fixed spacing,
runs the simulation and returns the responses by request id. Replaying
the same prefixes against two set-ups (cache on and off, sharded and
not, co-located and alone) compares them request for request.
"""

import numpy as np

from repro.hardware import CPU_E2, LatencyModel
from repro.serving.request import RecommendationRequest
from repro.tensor.ops import CostRecord, CostTrace
from repro.workload.statistics import WorkloadStatistics
from repro.workload.synthetic import SyntheticWorkloadGenerator


def make_profile(device=CPU_E2.device, fixed_bytes=1e6, item_bytes=1e5):
    """The service profile of one linear op reading ``fixed_bytes`` of
    parameters and writing ``item_bytes``."""
    trace = CostTrace()
    trace.append(
        CostRecord(op="linear", param_bytes=fixed_bytes, write_bytes=item_bytes)
    )
    return LatencyModel(device).profile(trace)


def make_request(request_id, now=0.0, items=(1, 2, 3), deadline_s=None):
    return RecommendationRequest(
        request_id=request_id,
        session_id=request_id,
        session_items=np.asarray(items, dtype=np.int64),
        sent_at=now,
        deadline_s=deadline_s,
    )


def click_prefixes(catalog, count, seed, alpha_clicks=1.85):
    """The first ``count`` session prefixes of a synthetic workload, one
    per click, as the load generator issues them."""
    workload = SyntheticWorkloadGenerator(
        WorkloadStatistics(
            catalog_size=catalog, alpha_length=1.85, alpha_clicks=alpha_clicks
        ),
        seed=seed,
    )
    prefixes = []
    for session in workload.iter_sessions():
        for click_end in range(1, len(session) + 1):
            prefixes.append(np.asarray(session[:click_end], dtype=np.int64))
            if len(prefixes) == count:
                return prefixes


def replay(simulator, submit, prefixes, spacing_s=0.002):
    """Send one request per prefix through ``submit(request, respond)``,
    ``spacing_s`` apart; run the simulation; return responses by id."""
    responses = {}

    def sender():
        for request_id, prefix in enumerate(prefixes):
            submit(
                make_request(request_id, simulator.now, prefix),
                lambda response, rid=request_id: responses.__setitem__(
                    rid, response
                ),
            )
            yield spacing_s

    simulator.spawn(sender())
    simulator.run()
    return responses
