"""The run fingerprints that bit-identity tests compare."""

import contextlib
import hashlib
import struct

import numpy as np

from repro.metrics.collector import MetricsCollector


def run_fingerprint(result):
    """Request tallies, summary percentiles and the per-second p90 and ok
    series of a ``RunResult``."""
    return (
        result.total_requests, result.ok_requests, result.error_requests,
        result.p50_ms, result.p90_ms, result.p99_ms,
        tuple(result.series.p90_ms), tuple(result.series.ok),
    )


@contextlib.contextmanager
def answer_stream():
    """Hash every response the load generators record inside the block.

    Yields a sha256 that folds in, in completion order, each response's
    request id, status, the exact bits of its ``latency_s`` and the item
    ids it returned. Two runs whose served answers differ anywhere, even
    with the same latencies, end with different digests.
    """
    digest = hashlib.sha256()
    record = MetricsCollector.record

    def folding_record(collector, sent_at, response):
        items = b"" if response.items is None else np.asarray(response.items, np.int64).tobytes()
        digest.update(
            struct.pack("<qqdq", response.request_id, response.status,
                        response.latency_s, len(items))
        )
        digest.update(items)
        return record(collector, sent_at, response)

    MetricsCollector.record = folding_record
    try:
        yield digest
    finally:
        MetricsCollector.record = record
