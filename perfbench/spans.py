"""Spans around lwec's public functions, recorded from outside the library.

`traced()` swaps every public function of the listed lwec modules for a
wrapper in every module that holds a reference to it (so `lwec.harness.kmeans`
and `lwec.graphcut.kmeans` are both wrapped), and puts the originals back on
exit. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

MODULES = ("ensemble", "validity", "coassoc", "evidence", "graphcut", "kmeans", "harness", "cli")

OP = "bench.op"


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    result: object = None
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of every traced op; `digests` maps a span name to a function of
    the call's result whose value is kept as the span's `info`."""

    def __init__(self, digests: dict):
        self.spans: list[Span] = []
        self.digests = digests
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, name in self.digests

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep:
                span.result = result
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; library spans nest under it.

        Kept results are digested once the root span has ended, outside its
        time, and then dropped, so no large result outlives its op.
        """
        self._op = op_id
        first = len(self.spans)
        span = Span(OP, perf_counter(), 0.0, -1, op_id)
        self._stack.append(first)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            for inner in self.spans[first:]:
                if inner.result is not None:
                    inner.info, inner.result = self.digests[inner.name](inner.result), None


@contextmanager
def traced(tracer: Tracer, package):
    """Install wrappers on every public lwec function for the duration of the block."""
    modules = {short: sys.modules[f"{package.__name__}.{short}"] for short in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for name, value in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                wrappers[id(value)] = (value, tracer.wrap(f"{short}.{name}", value))
    patched = []
    for module in (package, *modules.values()):
        for name, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
                patched.append((module, name, value))
    try:
        yield
    finally:
        for module, name, value in patched:
            setattr(module, name, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]
