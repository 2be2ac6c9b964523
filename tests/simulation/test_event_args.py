"""Argument-carrying events: ``call_at(time, fn, *args)``."""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator


class Payload:
    pass


def test_cancel_releases_fn_and_args():
    sim = Simulator()
    payload = Payload()
    alive = weakref.ref(payload)
    handle = sim.call_in(1.0, print, payload)
    del payload
    handle.cancel()
    assert handle.fn is None and handle.args is None
    gc.collect()
    assert alive() is None
    sim.run()


def test_args_are_passed_at_fire_time():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda *args: seen.append((sim.now, args)), "a", 2)
    sim.call_in(0.5, seen.append, "first")
    sim.run()
    assert seen == ["first", (1.0, ("a", 2))]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=30))
def test_args_events_fire_in_the_same_order_as_closure_events(delays):
    closures, with_args = Simulator(), Simulator()
    closure_log, args_log = [], []

    def chain(sim, log, label, depth, use_args):
        log.append((sim.now, label))
        if depth:
            if use_args:
                delay = delays[depth % len(delays)]
                sim.call_in(delay, chain, sim, log, label, depth - 1, True)
            else:
                sim.call_in(
                    delays[depth % len(delays)],
                    lambda: chain(sim, log, label, depth - 1, False),
                )

    for label, delay in enumerate(delays):
        closures.call_in(
            delay, lambda label=label: chain(closures, closure_log, label, 2, False)
        )
        with_args.call_in(delay, chain, with_args, args_log, label, 2, True)
    closures.run()
    with_args.run()
    assert args_log == closure_log


class TestNonFiniteTimes:
    """Regression: a NaN time used to be accepted and fire out of order."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_call_in_rejects_non_finite_delay(self, bad):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_in(bad, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_call_at_rejects_non_finite_time(self, bad):
        sim = Simulator()
        with pytest.raises(ValueError, match="finite"):
            sim.call_at(bad, lambda: None)

    def test_negative_infinite_delay_still_clamps_to_now(self):
        sim = Simulator()
        fired = []
        sim.call_in(-math.inf, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_rejected_nan_leaves_order_and_clock_intact(self):
        sim = Simulator()
        fired = []
        for at in (1.0, 0.5, 2.0):
            sim.call_at(at, lambda at=at: fired.append((at, sim.now)))
        with pytest.raises(ValueError):
            sim.call_in(math.nan, lambda: fired.append("nan"))
        assert sim.run() == 2.0
        assert fired == [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
