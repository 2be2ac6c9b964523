"""Property-based tests on the serving stack and schedules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CPU_E2, GPU_T4
from repro.loadgen import (
    ConstantSchedule,
    DiurnalSchedule,
    FlashSaleSchedule,
    RampSchedule,
    StepSchedule,
)
from repro.serving import BatchingConfig, EtudeInferenceServer
from repro.serving.request import RecommendationRequest
from repro.simulation import Simulator
from tests.replay import make_profile


schedules = st.one_of(
    st.floats(1, 2000).map(RampSchedule),
    st.floats(1, 2000).map(ConstantSchedule),
    st.tuples(st.floats(1, 500), st.floats(1, 500)).map(
        lambda pair: StepSchedule(((0.0, pair[0]), (0.5, pair[1])))
    ),
    st.tuples(st.floats(1, 100), st.floats(100, 2000)).map(
        lambda pair: DiurnalSchedule(low_rps=pair[0], high_rps=pair[1])
    ),
    st.floats(1, 500).map(lambda base: FlashSaleSchedule(baseline_rps=base)),
)


class TestScheduleProperties:
    @given(schedules, st.floats(0, 2000), st.floats(1, 1000))
    @settings(max_examples=80)
    def test_rates_are_positive_integers(self, schedule, elapsed, duration):
        rate = schedule.rate_at(elapsed, duration)
        assert isinstance(rate, int)
        assert rate >= 1

    @given(st.floats(1, 2000), st.floats(1, 1000))
    @settings(max_examples=40)
    def test_ramp_bounded_by_target(self, target, duration):
        schedule = RampSchedule(target)
        for fraction in (0.0, 0.25, 0.5, 1.0, 2.0):
            assert schedule.rate_at(duration * fraction, duration) <= max(
                int(np.ceil(target)), 1
            )


class TestServerConservation:
    @given(
        st.integers(1, 60),
        st.floats(0.0, 0.01),
        st.integers(0, 100),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_request_answered_exactly_once(
        self, count, spacing, seed, use_gpu
    ):
        """Any burst pattern against either device path: request count in
        equals response count out, each exactly once."""
        sim = Simulator()
        device = GPU_T4.device if use_gpu else CPU_E2.device
        server = EtudeInferenceServer(
            sim,
            device,
            make_profile(device, 1e7, 1e5),
            np.random.default_rng(seed),
            batching=BatchingConfig(max_batch_size=16, max_delay_s=0.002),
        )
        seen = []

        def client():
            for index in range(count):
                request = RecommendationRequest(
                    request_id=index,
                    session_id=index,
                    session_items=np.array([1], dtype=np.int64),
                    sent_at=sim.now,
                )
                server.submit(request, lambda r: seen.append(r.request_id))
                if spacing:
                    yield spacing
            if False:
                yield

        sim.spawn(client())
        sim.run()
        assert sorted(seen) == list(range(count))

    @given(st.integers(2, 40), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_gpu_batches_never_exceed_cap(self, count, seed):
        sim = Simulator()
        cap = 1 + seed % 7
        server = EtudeInferenceServer(
            sim,
            GPU_T4.device,
            make_profile(GPU_T4.device, 1e8, 1e5),
            np.random.default_rng(seed),
            batching=BatchingConfig(max_batch_size=cap, max_delay_s=0.001),
        )
        batches = []

        def client():
            for index in range(count):
                request = RecommendationRequest(
                    request_id=index,
                    session_id=index,
                    session_items=np.array([1], dtype=np.int64),
                    sent_at=sim.now,
                )
                server.submit(request, lambda r: batches.append(r.batch_size))
            if False:
                yield

        sim.spawn(client())
        sim.run()
        assert len(batches) == count
        assert max(batches) <= cap
