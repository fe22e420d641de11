"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent) plus the iteration it belongs to and
a few counts taken at the same boundary.  Spans are kept in a list and
written out once, when the run ends.  Public functions of the package are
wrapped from here, so the program under test is never edited: a wrapped
name is replaced in every module that holds it, because several modules
import functions by name.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    iteration: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append(sp)
    return kids


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its children cover."""
    return span.duration - covered_length(
        [(c.start, c.end) for c in children], span.start, span.end
    )


class Tracer:
    """Records spans; ``iteration`` labels every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self.clock(), None, parent, self.iteration)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` inside a span; ``annotate(args, kwargs, result)`` returns
        counts to store on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    sp.attrs.update(annotate(args, kwargs, result))
                return result

        return traced

    def patch(self, owner, attr: str, name: str, holders=(), annotate=None) -> None:
        """Wrap ``owner.attr`` and swap the wrapper in for every attribute of
        ``owner`` and of ``holders`` that refers to the original object."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, annotate)
        for holder in (owner, *holders):
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, value))
                    setattr(holder, key, wrapped)

    def unpatch(self) -> None:
        while self._restore:
            holder, key, value = self._restore.pop()
            setattr(holder, key, value)

    def dump(self, path, header: dict) -> None:
        payload = dict(header, spans=[asdict(sp) for sp in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)
