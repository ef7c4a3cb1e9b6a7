"""In-memory span recorder used by the traced benchmark run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one started, or -1 at the top level.  Spans
live in one list and are written out once, when the traced run ends.
Besides spans the recorder keeps point-in-time marks (the public ``on_step``
and ``on_outer`` hooks) and a count of the argument shapes seen by the
tensor ops of the op table.
"""

from __future__ import annotations

import functools
import time


class Recorder:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.marks: list[list] = []
        self.shapes: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, shape_key=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``shape_key(args, kwargs)``, when given, names the argument shapes of
        the call; the recorder counts each distinct key.
        """
        spans, stack, clock, shapes = self.spans, self._open, self.clock, self.shapes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if shape_key is not None:
                key = shape_key(args, kwargs)
                shapes[key] = shapes.get(key, 0) + 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def mark(self, kind: str) -> None:
        self.marks.append([kind, self.clock()])

    def to_json(self) -> dict:
        return {"spans": self.spans, "marks": self.marks, "shapes": self.shapes}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def nearest_ancestor(spans, names) -> list[int]:
    """For each span, the index of the closest enclosing span (itself
    included) whose name is in ``names``, or -1.

    Relies on parents being recorded before their children, which holds
    because a span takes its index when it starts.
    """
    out: list[int] = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name in names:
            out.append(i)
        else:
            out.append(out[parent] if parent >= 0 else -1)
    return out
