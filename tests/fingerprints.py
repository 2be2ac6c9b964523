"""The run fingerprint that bit-identity tests compare."""


def run_fingerprint(result):
    """Request tallies, summary percentiles and the per-second p90 and ok
    series of a ``RunResult``."""
    return (
        result.total_requests, result.ok_requests, result.error_requests,
        result.p50_ms, result.p90_ms, result.p99_ms,
        tuple(result.series.p90_ms), tuple(result.series.ok),
    )
