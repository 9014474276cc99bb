"""Spans around calls into micpq's layers, recorded from outside the program.

A :class:`Tracer` replaces a public function by a timing wrapper in every
namespace that looks it up: its own module, and each module that
imported it by name (``micpq.trainer.loss_and_gradients`` is the name
the training loop calls).  Spans stay in memory; each records the span
that was open when it started, so a query's refine step can be told
apart from the index build's batch encode, and a span's self time is
its duration minus its children's.
"""
from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent_id: int | None
    parent: str | None
    start: float
    seconds: float
    rows: int


def _rows(args) -> int:
    """Leading dimension of the first array-like argument (0 if none)."""
    for arg in args:
        shape = getattr(arg, "shape", None) or getattr(getattr(arg, "values", None), "shape", None)
        if shape:
            return int(shape[0])
    return 0


class Tracer:
    def __init__(self, duration=lambda span: span.seconds) -> None:
        """``duration(span)`` is how the summaries read a span's length."""
        self.duration = duration
        self.spans: list[Span] = []
        self._open: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, span: str, *targets: tuple[object, str]) -> None:
        """Time calls of ``module.attr`` for each (module, attr) target as
        span ``span``.  A target the program no longer has is skipped."""
        for module, attr in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._timed(span, original))
            self._patched.append((module, attr, original))

    def _timed(self, span: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent_id, parent = self._open[-1] if self._open else (None, None)
            span_id = next(self._ids)
            self._open.append((span_id, span))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.spans.append(
                    Span(span_id, span, parent_id, parent, start, elapsed, _rows(args))
                )

        return timed

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def select(self, name: str, parents=None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (parents is None or s.parent in parents)
        ]

    def median_ms(self, name: str, parents=None) -> float:
        """Median duration of a span in ms; 0 when the workload never calls it."""
        spans = self.select(name, parents)
        return float(np.median([self.duration(s) for s in spans])) * 1e3 if spans else 0.0

    def median_self_ms(self, name: str) -> float:
        """Median of a span's duration minus its child spans', in ms."""
        children = defaultdict(float)
        for s in self.spans:
            if s.parent_id is not None:
                children[s.parent_id] += self.duration(s)
        own = [self.duration(s) - children[s.id] for s in self.select(name)]
        return float(np.median(own)) * 1e3 if own else 0.0

    def total_s(self, name: str, parents=None) -> float:
        return sum(self.duration(s) for s in self.select(name, parents))

    def ms_per_1k_rows(self, name: str, parents) -> float:
        spans = self.select(name, parents)
        rows = sum(s.rows for s in spans)
        return sum(self.duration(s) for s in spans) * 1e6 / rows if rows else 0.0


def count_python_calls(fn, *args, **kwargs) -> tuple[object, int]:
    """Run ``fn`` and count the Python function calls it makes, ``fn``
    included, with a profiler hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls
