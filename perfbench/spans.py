"""In-memory spans around calls into the hotgate package.

A Tracer wraps a function wherever a hotgate module binds that same object
(analysis, for instance, imports trap_model functions by name), records one
span per call with its name, start, end and parent, and puts every original
object back when the traced block ends.  Spans stay in memory; the caller
summarises them once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    counts: dict[str, float] = field(default_factory=dict)


CountFn = Callable[[object], dict[str, float]]


def hotgate_modules() -> list:
    """The hotgate package and every submodule imported so far."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hotgate" or n.startswith("hotgate."))]


class Tracer:
    """Collects spans from the functions it wraps; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        """fn with a span per call; count turns its result into span counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Mapping[str, tuple[Callable, CountFn | None]]) -> Iterator["Tracer"]:
        """Wrap each target function in every hotgate module that binds it.

        targets maps a span name to (function, counter or None).  Every
        binding is restored on exit, also when the block raises.
        """
        patched = []
        try:
            modules = hotgate_modules()
            for name, (fn, count) in targets.items():
                wrapper = self.wrap(name, fn, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out
