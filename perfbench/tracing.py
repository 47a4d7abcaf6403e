"""Span recorder for the traced benchmark run.

The traced run rebinds the public names one cubelink layer calls in another
to timing wrappers.  Every wrapped call while recording is on leaves a span
(name, start, end, parent) in memory.  `self_times` reduces spans to per-name
call counts and self times: a span's duration minus the part its child spans
cover, so the self times of one call tree add up to its root's duration.
"""

from __future__ import annotations

import time
from typing import Callable

clock_ns = time.perf_counter_ns


class Tracer:
    """In-memory spans of the wrapped calls made while `recording` is on."""

    def __init__(self) -> None:
        self.recording = False
        # one [name, start_ns, end_ns, parent_index] row per span
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            row = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(idx)
            row[1] = clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock_ns()
                stack.pop()

        return traced

    def rebind(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr (a module global or a class method) by a
        wrapper recording spans called `name`."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def write(self, path) -> None:
        """Spans as tab-separated rows: index, name, start_ns, end_ns,
        parent index (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


def self_times(spans: list[list], roots: set[str]) -> dict:
    """Reduce spans to call counts and self seconds by span name, plus the
    total duration and number of root spans named in `roots` (the timed
    calls) and the total duration of the other roots (set-up work).  The
    self times of all spans add up to op_s + setup_s."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    op_ns = setup_ns = ops = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
        if parent < 0 and name in roots:
            op_ns += end - start
            ops += 1
        elif parent < 0:
            setup_ns += end - start
    return {"calls": calls, "self_s": self_s, "op_s": op_ns / 1e9,
            "setup_s": setup_ns / 1e9, "ops": ops}
