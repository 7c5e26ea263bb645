"""In-memory spans around calls into each layer's public functions.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that record a span per call: name, start, end, parent span and op id.
Spans stay in memory until the run ends; :meth:`Tracer.dump` writes them
out.  Nothing in ``src/`` is edited: wrappers are installed on the
module or class attribute the caller looks the function up through, and
removed again by :meth:`Tracer.uninstall`.

A span's self time is its duration minus the part of its interval that
its children cover (:func:`self_times`).  Per op, the self times of all
its spans add up to the op's root span — :func:`op_breakdown` checks
that, which catches spans that escaped their parent or overlap.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: object = None   # op id; set on root spans, inherited below
    tag: object = None  # what the call found, e.g. "built" or "hit"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op=None) -> int | None:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int | None) -> Span | None:
        if index is None:
            return None
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        return span

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.
        ``on_result(span, result)`` may set the span's op or tag."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span = tracer.end(index)
                if span is not None and on_result is not None \
                        and result is not None:
                    on_result(span, result)

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.op, s.tag]
                       for s in self.spans], fh)


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def roots(spans: list[Span]) -> list[int]:
    """The root span index of every span."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span.parent is None else out[span.parent])
    return out


#: An op's self times must add up to its latency within this share of it.
SELF_TIME_TOLERANCE = 0.01


def op_breakdown(spans: list[Span],
                 tolerance: float = SELF_TIME_TOLERANCE) -> dict:
    """Per op: every span's self time summed by name, and whether those
    self times add up to the op's root duration within ``tolerance``
    (a share of the root duration).

    Returns ``{op: {"total": s, "self": {name: s}, "inclusive":
    {name: s}, "ok": bool}}`` for every root span whose op is set.
    Parents always precede their children in ``spans``.
    """
    selfs = self_times(spans)
    root_of = roots(spans)
    ops: dict[object, dict] = {}
    for i, span in enumerate(spans):
        root = spans[root_of[i]]
        if root.op is None:
            continue
        entry = ops.setdefault(root.op, {
            "total": root.end - root.start, "self": {}, "inclusive": {},
            "ok": True})
        entry["self"][span.name] = entry["self"].get(span.name, 0.0) \
            + selfs[i]
        entry["inclusive"][span.name] = \
            entry["inclusive"].get(span.name, 0.0) + span.end - span.start
    for entry in ops.values():
        summed = sum(entry["self"].values())
        entry["ok"] = abs(summed - entry["total"]) \
            <= tolerance * entry["total"] + 1e-9
    return ops
