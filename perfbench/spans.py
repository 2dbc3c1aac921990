"""In-memory span recorder for the traced run.

Tracing rebinds each traced function's name in every ``nsim`` module that
holds it, so calls are caught where the callers look them up (for example
``nsim.evaluation.fit`` and ``nsim.estimator.predict_many``), not only where
the function is defined.  Spans keep (name, start, end, parent) in a list
and are aggregated when a pass ends; nothing is written while tracing.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


class Recorder:
    """Spans of one single-threaded pass.

    A counter hook is called as ``hook(recorder, span_id, args, kwargs,
    result, error)`` after the span has ended; ``result`` is None when the
    call raised.  Work too slow to do between calls (the oracle's
    neighbour counts) is queued with ``defer`` and run by ``finish``, so it
    lands in no span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._deferred: list = []
        self.seen: set = set()  # keys that hooks have already counted in this pass

    def wrap(self, name: str, func, hook=None):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span_id)
            span.start = self.clock()
            try:
                result = func(*args, **kwargs)
            except Exception as error:
                span.end = self.clock()
                self._stack.pop()
                if hook is not None:
                    hook(self, span_id, args, kwargs, None, error)
                raise
            span.end = self.clock()
            self._stack.pop()
            if hook is not None:
                hook(self, span_id, args, kwargs, result, None)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def defer(self, span_id: int, compute) -> None:
        """Queue ``compute() -> dict`` whose counts are added to the span."""
        self._deferred.append((span_id, compute))

    def finish(self) -> None:
        for span_id, compute in self._deferred:
            self.spans[span_id].counts.update(compute())
        self._deferred.clear()

    def ancestor(self, span_id: int, name: str) -> int | None:
        """Id of the nearest enclosing span called ``name``, if any."""
        parent = self.spans[span_id].parent
        while parent is not None and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap one another; the covered time is the length of the
    union of their intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total duration ``s``, total self time ``self_s``,
    ``calls``, and the sum of every count the hooks attached."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += span.end - span.start
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


@contextmanager
def installed(recorder: Recorder, targets):
    """Rebind every target while the block runs, then restore the originals.

    ``targets`` holds ``(span_name, owner, attribute, hook)``: the function
    ``getattr(owner, attribute)`` is wrapped, and every loaded ``nsim``
    module attribute bound to that same object is rebound too.
    """
    restore = []
    try:
        for span_name, owner, attribute, hook in targets:
            original = getattr(owner, attribute)
            wrapper = recorder.wrap(span_name, original, hook)
            holders = [owner] + [
                module
                for module_name, module in list(sys.modules.items())
                if (module_name == "nsim" or module_name.startswith("nsim."))
                and module is not owner
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield recorder
    finally:
        for holder, name, original in reversed(restore):
            setattr(holder, name, original)
