"""Span tracing of fracscale's public functions, installed from outside.

A traced pass replaces module attributes (``fracscale.octree.build_mesh``,
the same name imported into ``fracscale.pipeline``, ...) with wrappers that
record one span per call: name, start, end, parent span and the grid point
the call belongs to.  Hot leaf functions (the polygon clipper and the sparse
LU) are not spans; each call adds a count and its seconds to the innermost
open span, so a desk grid's ~10^5 clips cost a counter update each.  A
leaf must not call another leaf, because leaf seconds are subtracted from
the enclosing span's self time.  Spans stay in memory and are written once,
when the run ends.

Nothing here is imported by fracscale itself; untraced passes run the
unmodified modules.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call of a wrapped function; times are ``time.perf_counter`` seconds."""

    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    point: str = ""
    attrs: dict = field(default_factory=dict)
    # leaf name -> [calls, seconds] made directly inside this span
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "point": self.point, "attrs": self.attrs,
            "leaves": self.leaves,
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by children and leaves.

    Child intervals are clipped to the parent and merged before subtracting,
    so overlapping or overhanging children are not counted twice.  Leaf
    seconds (clips, factorizations) recorded on a span are subtracted too.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        leaf_s = sum(sec for _, sec in span.leaves.values())
        out.append(span.duration - covered - leaf_s)
    return out


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.point = ""
        # leaf calls made while no span is open
        self.orphans: dict = {}

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span.

        before(tracer, args, kwargs) runs ahead of the call (it may set the
        grid point); after(span, result, args, kwargs) stores attributes.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = Span(name, self.clock(), parent=parent, point=self.point)
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self.stack.pop()
            if after is not None:
                after(span, result, args, kwargs)
            return result

        return wrapper

    def leaf(self, name: str, fn, after=None):
        """Wrap fn so each call adds a count and its seconds to the open span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self.clock()
            result = fn(*args, **kwargs)
            elapsed = self.clock() - t0
            if self.stack:
                span = self.spans[self.stack[-1]]
                slot = span.leaves.setdefault(name, [0, 0.0])
            else:
                span = None
                slot = self.orphans.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += elapsed
            if after is not None and span is not None:
                after(span, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_json(idx), sort_keys=True) + "\n")


@contextmanager
def installed(patches):
    """Set (module, attribute, replacement) triples, restoring them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_time_table(spans: list[Span], orphans: dict | None = None) -> list[tuple]:
    """Rows (name, calls, total_s, self_s) per span name and per leaf, by self time."""
    rows: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own
        for leaf, (calls, sec) in span.leaves.items():
            lrow = rows.setdefault(leaf, [0, 0.0, 0.0])
            lrow[0] += calls
            lrow[1] += sec
            lrow[2] += sec
    for leaf, (calls, sec) in (orphans or {}).items():
        lrow = rows.setdefault(leaf, [0, 0.0, 0.0])
        lrow[0] += calls
        lrow[1] += sec
        lrow[2] += sec
    table = [(name, calls, total, own) for name, (calls, total, own) in rows.items()]
    table.sort(key=lambda row: -row[3])
    return table
