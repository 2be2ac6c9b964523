"""Block-drawn lognormals are bit-identical to scalar ``Generator.lognormal``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import LognormalSource

SIGMAS = (0.0, 0.08, 0.15, 0.3, 1.0, 2.5)


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_matches_scalar_draws_at_each_sigma(seed, sigma):
    scalar = np.random.default_rng(seed)
    source = LognormalSource(np.random.default_rng(seed))
    for _ in range(4 * LognormalSource.BLOCK_SIZE + 3):
        assert source.lognormal(0.0, sigma) == float(scalar.lognormal(0.0, sigma))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    warm_up=st.integers(0, 2 * LognormalSource.BLOCK_SIZE),
    draws=st.lists(
        st.tuples(st.sampled_from([0.0, -1.0, 0.5]), st.sampled_from(SIGMAS)),
        min_size=1,
        max_size=60,
    ),
)
def test_interleaved_sigmas_across_block_boundaries(seed, warm_up, draws):
    # The warm-up puts the interleaved draws at a random offset into the
    # block, so many examples straddle a refill.
    scalar = np.random.default_rng(seed)
    source = LognormalSource(np.random.default_rng(seed))
    for mean, sigma in [(0.0, 0.3)] * warm_up + draws:
        assert source.lognormal(mean, sigma) == float(scalar.lognormal(mean, sigma))


def test_keyword_arguments_match_generator_signature():
    scalar = np.random.default_rng(3)
    source = LognormalSource(np.random.default_rng(3))
    assert source.lognormal(mean=0.0, sigma=0.3) == float(
        scalar.lognormal(mean=0.0, sigma=0.3)
    )
