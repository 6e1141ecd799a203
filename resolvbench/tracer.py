"""In-memory spans around wrapped functions, and the per-name summary.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one started, or -1.  Traced commands run
on one thread, so spans nest and one stack of open spans serves.
Spans stay in memory until the traced process writes them out once, at
its end.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Records spans and named counters for the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``.

        ``count(args, kwargs, result)`` returns counter increments, added
        after the span closes.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] += value
            return result
        return traced


def install(tracer: Tracer, targets, modules):
    """Wrap each target, and every alias of it that ``modules`` hold.

    ``targets`` holds ``(module, path, span_name, count)`` where ``path``
    is ``"function"`` or ``"Class.method"``.  ``from .x import f`` copies
    ``f`` into the importing module, so each module in ``modules`` whose
    attribute *is* the original is patched too.  Returns the
    ``(owner, attribute, original)`` list that ``uninstall`` restores.
    """
    patched = []
    for module, path, name, count in targets:
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(tracer.wrap(name, original.__func__, count))
        else:
            replacement = tracer.wrap(name, original, count)
        holders = [owner] + [m for m in modules if m is not owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    patched.append((holder, key, original))
    return patched


def uninstall(patched) -> None:
    for holder, key, original in reversed(patched):
        setattr(holder, key, original)


def summarize(spans) -> dict:
    """``{name: {"calls", "total_s", "self_s"}}`` over finished spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
