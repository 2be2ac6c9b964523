"""The discrete-event simulator core.

A tiny, fast simpy-like engine: a heap of timestamped callbacks plus
generator-based processes. Determinism: ties on the heap break by insertion
sequence number, and all randomness used by simulation actors flows through
:class:`~repro.simulation.random_streams.RandomStreams`.

Units: ``Simulator.now`` is **virtual time in seconds**, starting at 0.0
when the simulator is created; it advances only when events fire and has no
relation to the wall clock (a ten-minute benchmark simulates in wall-clock
seconds). Every delay yielded by a process, every ``call_in`` offset and
every ``call_at``/``run(until=...)`` deadline is likewise in virtual
seconds. All timestamps elsewhere in the repo (metrics, access logs,
telemetry spans) are readings of this clock — see ``docs/observability.md``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.simulation.events import Signal

Process = Generator[Any, Any, None]

_INF = float("inf")


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    The event calls ``fn(*args)``: schedulers pass a bound method and its
    arguments instead of building a closure per event.

    Cancellation is O(1): the heap entry stays in place but is skipped —
    without advancing the clock — when it reaches the top, so a cancelled
    timer can never extend a run past its natural end.
    """

    __slots__ = ("fn", "args", "cancelled", "fired", "_simulator")

    def __init__(
        self, simulator: "Simulator", fn: Callable[..., None], args: tuple
    ):
        self.fn: Optional[Callable[..., None]] = fn
        self.args: Optional[tuple] = args
        self.cancelled = False
        self.fired = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Cancel the event (idempotent); a cancelled event never fires.

        Cancelling after the event fired is a no-op — crucially it must
        not touch the simulator's cancelled-event count, which only
        tracks dead entries still sitting in the heap.
        """
        if not self.cancelled and not self.fired:
            self.cancelled = True
            # Release the callback and its arguments immediately.
            self.fn = None
            self.args = None
            self._simulator._cancelled_events += 1


class Simulator:
    """Virtual clock + event heap + process scheduler."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self._live_processes = 0
        self._cancelled_events = 0

    # -- low-level scheduling ---------------------------------------------------

    def call_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at virtual ``time``.

        ``time`` must be finite and not in the past: a NaN would corrupt
        the heap order and the clock.
        """
        if not self.now <= time < _INF:
            if time < self.now:
                raise ValueError(
                    f"cannot schedule in the past ({time} < {self.now})"
                )
            raise ValueError(f"event time must be finite, got {time}")
        handle = EventHandle(self, fn, args)
        _heappush(self._heap, (time, self._sequence, handle))
        self._sequence += 1
        return handle

    def call_in(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay`` seconds from now (negative = now)."""
        if delay < 0.0:
            delay = 0.0
        return self.call_at(self.now + delay, fn, *args)

    # -- processes ----------------------------------------------------------------

    def spawn(self, process: Process) -> None:
        """Start a generator-based process immediately."""
        self._live_processes += 1
        self.call_in(0.0, self._step, process)

    def _step(self, process: Process, send_value: Any = None) -> None:
        try:
            yielded = process.send(send_value)
        except StopIteration:
            self._live_processes -= 1
            return
        if isinstance(yielded, (int, float)):
            delay = float(yielded)
            if delay < 0.0:
                delay = 0.0
            # call_in inlined: one frame less on the hottest path.
            self.call_at(self.now + delay, self._step, process)
        elif isinstance(yielded, Signal):
            yielded.add_waiter(partial(self._wake, process, yielded))
        else:
            raise TypeError(
                f"process yielded {type(yielded).__name__}; "
                "expected a delay (seconds) or a Signal"
            )

    def _wake(self, process: Process, signal: Signal) -> None:
        """Resume ``process`` with the payload of the signal it waited on."""
        self.call_in(0.0, self._step, process, signal.payload)

    # -- running -------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.
        """
        heap = self._heap
        while heap:
            time, _seq, handle = heap[0]
            if handle.cancelled:
                # Dead timer: discard without advancing the clock.
                _heappop(heap)
                self._cancelled_events -= 1
                continue
            if until is not None and time > until:
                self.now = until
                return self.now
            _heappop(heap)
            self.now = time
            handle.fired = True
            handle.fn(*handle.args)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending_events(self) -> int:
        """Scheduled events that will still fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled_events
