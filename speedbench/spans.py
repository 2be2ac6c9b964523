"""In-memory span recorder that instruments ``repro`` from the outside.

The tracer never edits the program: it swaps a public method on its
class (or a module-level function) for a wrapper that records a span
around the original call, and puts the original back on ``restore()``.
A span is ``(name, parent, start, end, request_id)``; the parent is the
span that was open on the call stack when the wrapped call began, so the
spans of one wall-clock call chain nest exactly the way the calls did.

Counters (``count``) record how often a function ran without timing it;
they are used where a span per call would cost more than the call.
"""

from __future__ import annotations

import collections
import functools
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, parent index or -1, start s, end s, request_id or None)
Span = Tuple[str, int, float, float, Optional[int]]


def _request_id(args: tuple, index: Optional[int]) -> Optional[int]:
    if index is None or index >= len(args):
        return None
    return getattr(args[index], "request_id", None)


class Tracer:
    """Records spans and counts for wrapped functions; restorable."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, request_id: Optional[int] = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, perf_counter(), 0.0, request_id))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        end = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close in call order")
        name, parent, start, _, request_id = self.spans[index]
        self.spans[index] = (name, parent, start, end, request_id)

    # -- instrumentation ---------------------------------------------------

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until ``restore()``."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original, own))

    def wrap(self, owner, attr: str, name: str, request_arg: Optional[int] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``request_arg`` is the positional index (``self`` included) of an
        argument carrying a ``request_id``, stored on the span.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.begin(name, _request_id(args, request_arg))
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(index)

            return wrapper

        self.patch(owner, attr, make)

    def count(self, owner, attr: str, name: str, hit: Optional[Callable] = None) -> None:
        """Count calls of ``owner.attr`` under ``name``.

        ``hit(result)`` additionally counts ``name + ".hits"`` when true.
        """
        counts = self.counts

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = original(*args, **kwargs)
                if hit is not None and hit(result):
                    counts[name + ".hits"] += 1
                return result

            return wrapper

        self.patch(owner, attr, make)

    def count_yields(self, owner, attr: str, name: str) -> None:
        """Count the items a generator method yields."""
        counts = self.counts

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                for item in original(*args, **kwargs):
                    counts[name] += 1
                    yield item

            return wrapper

        self.patch(owner, attr, make)

    def capture(self, cls: type, into: list) -> None:
        """Append every instance ``cls.__init__`` builds to ``into``."""

        def make(original):
            @functools.wraps(original)
            def wrapper(self_, *args, **kwargs):
                original(self_, *args, **kwargs)
                into.append(self_)

            return wrapper

        self.patch(cls, "__init__", make)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def closed_spans(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping or repeated intervals are counted once.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for name, parent, start, end, _rid in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, _parent, start, end, _rid) in enumerate(spans):
        result.append((end - start) - covered_length(children.get(index, ()), start, end))
    return result


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total self time, calls, and outermost calls.

    A call is *outermost* when its parent span has a different name, so a
    recursive or delegating method (one ``recommend`` calling another) is
    one call, while its self time is still split correctly.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = collections.defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "outer_calls": 0}
    )
    for index, (name, parent, _s, _e, _rid) in enumerate(spans):
        entry = out[name]
        entry["self_s"] += selfs[index]
        entry["calls"] += 1
        if parent < 0 or spans[parent][0] != name:
            entry["outer_calls"] += 1
    return dict(out)
