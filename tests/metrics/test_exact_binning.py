"""Exact binning: the edge table places every double where the log formula does.

``LatencyDigest.record`` looks samples up in a table of exact bin edges
instead of evaluating ``math.log10`` per sample. The formula below is the
definition of a bin; the table must agree with it on every double, which
is checked densely around every edge (where rounding could bite) and on
random samples spanning both clamps.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.percentile import (
    MAX_LATENCY,
    MIN_LATENCY,
    LatencyDigest,
    bin_edges,
    num_bins,
)

ULPS = 64


def reference_index(latency: float, bins_per_decade: int = 50) -> int:
    """The per-sample formula the digest used before the edge table."""
    bins = int(math.log10(MAX_LATENCY / MIN_LATENCY) * bins_per_decade) + 2
    clamped = min(max(latency, MIN_LATENCY), MAX_LATENCY)
    position = math.log10(clamped / MIN_LATENCY) * bins_per_decade
    return min(int(position) + 1, bins - 1)


def recorded_index(latency: float, bins_per_decade: int = 50) -> int:
    """The bin ``record`` actually increments."""
    digest = LatencyDigest(bins_per_decade)
    digest.record(latency)
    (index,) = [i for i, count in enumerate(digest._counts) if count]
    return index


def neighbours(x: float, ulps: int = ULPS):
    """``x`` and the ``ulps`` non-negative doubles on either side of it."""
    out = [x]
    below = above = x
    for _ in range(ulps):
        below = math.nextafter(below, 0.0)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


def test_table_has_one_edge_per_inner_bin():
    for bins_per_decade in (10, 50):
        edges = bin_edges(bins_per_decade)
        assert len(edges) == num_bins(bins_per_decade) - 2
        assert list(edges) == sorted(set(edges))


def test_every_edge_and_its_neighbours_match_the_formula():
    for bins_per_decade in (10, 50):
        points = [0.0, MIN_LATENCY, MAX_LATENCY]
        points += list(bin_edges(bins_per_decade))
        for edge in points:
            for x in neighbours(edge):
                assert recorded_index(x, bins_per_decade) == reference_index(
                    x, bins_per_decade
                ), (bins_per_decade, x)


def test_each_edge_is_the_smallest_double_of_its_bin():
    for k, edge in enumerate(bin_edges(50), start=2):
        assert reference_index(edge) == k
        assert reference_index(math.nextafter(edge, 0.0)) == k - 1


samples = st.one_of(
    st.floats(min_value=0.0, max_value=2e3, allow_nan=False),
    st.floats(min_value=0.0, max_value=2e-5, allow_nan=False),
    st.floats(min_value=9e2, max_value=2e3, allow_nan=False),
    st.sampled_from([0.0, MIN_LATENCY, MAX_LATENCY, 1e-9, 1e6]),
)


@settings(max_examples=2000, deadline=None)
@given(samples)
def test_random_samples_match_the_formula(latency):
    assert recorded_index(latency) == reference_index(latency)
