"""In-memory span tracer: per-layer call counts, self time and counters.

A span is one call into a layer, from the wrapper's entry to its return.
Spans nest on one call stack (the campaign is single-threaded), so the
part of a span's interval that its children cover is simply the sum of
their durations, and a layer's self time is its spans' durations minus
that.  Individual spans are not kept: the tracer aggregates as it goes,
per layer and per (parent layer, layer) edge, and reports the
aggregates when the campaign ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Aggregating span recorder; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        # One frame per open span: [layer, start_ns, child_ns].
        self.stack: list[list[Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self, layer: str) -> None:
        self.stack.append([layer, self.clock(), 0])

    def end(self) -> None:
        layer, start, child = self.stack.pop()
        duration = self.clock() - start
        self.calls[layer] += 1
        self.self_ns[layer] += duration - child
        self.total_ns[layer] += duration
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            self.edges[(parent[0], layer)] += duration
        else:
            self.edges[("", layer)] += duration

    @property
    def current(self) -> str | None:
        """The innermost open layer, or ``None`` outside every span."""
        return self.stack[-1][0] if self.stack else None

    def wrap(self, layer: str, func: Callable) -> Callable:
        """``func`` inside a ``layer`` span.

        A call made while ``layer`` is already the innermost span (say,
        a sampler method calling its sibling) joins the open span
        instead of opening a nested one, so call counts stay one per
        entry into the layer.
        """
        stack = self.stack

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            self.begin(layer)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()

        return spanned

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def report(self) -> list[str]:
        """Human-readable per-layer totals, then the span-tree edges."""
        lines = [f"{'layer':<24} {'calls':>9} {'self_s':>9} {'total_s':>9}"]
        opened = [layer for layer, calls in self.calls.items() if calls]
        for layer in sorted(opened, key=lambda name: -self.self_ns[name]):
            lines.append(
                f"{layer:<24} {self.calls[layer]:>9} {self.self_s(layer):>9.3f} "
                f"{self.total_ns[layer] / 1e9:>9.3f}"
            )
        lines.append(f"{'parent > layer':<44} {'total_s':>9}")
        for (parent, layer), ns in sorted(self.edges.items(), key=lambda item: -item[1]):
            lines.append(f"{(parent or '(root)') + ' > ' + layer:<44} {ns / 1e9:>9.3f}")
        return lines
