"""In-memory span tracing of drafttree's layers, from outside the package.

A ``Tracer`` wraps library functions so that each call records one span:
name, start and end (``perf_counter_ns``), the enclosing span, the episode the
call belongs to, and an optional tag. ``rebound`` installs such wrappers by
rebinding module attributes at the library's own call sites (for example
``drafttree.engine.build_tree``, which ``run_episode`` looks up at call time)
and restores the originals on exit, so nothing inside ``src/`` changes.

Spans stay in memory until ``summarize`` turns them into per-layer totals and
``write_tsv`` writes them out. A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns

NO_SPAN = -1


class Tracer:
    """Span list plus the per-call counters the hooks collect."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent span index, episode index, tag)
        self.spans: list[tuple | None] = []
        # one [row label, episode seed, committed token stream] per episode
        self.episodes: list[list] = []
        self.episode = NO_SPAN
        self.counts: Counter = Counter()
        self.windows: set[tuple[int, ...]] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None, tag=None):
        """Return ``fn`` recording a span per call.

        ``before(*args)`` runs ahead of the span and ``after(result, *args)``
        once it has closed, so hook work is not charged to the layer.
        ``tag(*args)`` labels the span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = tag(*args, **kwargs) if tag is not None else ""
            parent = stack[-1] if stack else NO_SPAN
            episode = self.episode
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, episode, label)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced


@contextlib.contextmanager
def rebound(bindings):
    """Set ``(module, attribute, value)`` bindings; restore them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    try:
        for module, attr, value in bindings:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and call durations in us."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _episode, _tag in spans:
        if parent != NO_SPAN:
            child_ns[parent] += end - start
    layers: dict[str, dict] = {}
    for index, (name, start, end, _parent, _episode, _tag) in enumerate(spans):
        duration = end - start
        layer = layers.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "us": []})
        layer["calls"] += 1
        layer["total_ns"] += duration
        layer["self_ns"] += duration - child_ns[index]
        layer["us"].append(duration / 1e3)
    for layer in layers.values():
        layer["us"].sort()
    return layers


def write_tsv(path, spans: list[tuple]) -> None:
    """One span per line: index, name, start_ns, end_ns, parent, episode, tag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\tepisode\ttag\n")
        for index, span in enumerate(spans):
            fh.write("\t".join(str(v) for v in (index, *span)) + "\n")
