"""In-memory span tracer wrapped around the program's public functions.

``Tracer.install`` replaces every public function of the given modules, at
every module attribute that names it, with a wrapper that records one span
per call: name, start, end and the index of the enclosing span.  Spans stay
in memory until ``write`` is called at the end of the run.  Nothing in the
program itself is changed; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import time

NAME, START, END, PARENT, ATTRS = range(5)


class Hook:
    """Per-function extras: ``label`` names a sub-span from the arguments,
    ``describe`` turns the return value into attributes kept on the span."""

    def __init__(self, label=None, describe=None):
        self.label = label
        self.describe = describe


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self.paused = False
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn, hook: Hook | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = name
            if hook and hook.label:
                span_name = f"{name}.{hook.label(args, kwargs)}"
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook and hook.describe:
                span[ATTRS] = hook.describe(args, kwargs, result)
            return result

        return traced

    def install(self, modules, package: str, hooks: dict | None = None) -> None:
        """Wrap each public function defined in ``package`` wherever one of
        ``modules`` names it; one wrapper per function, named
        ``<defining module>.<function>``."""
        hooks = hooks or {}
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(package):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self.wrap(name, value, hooks.get(name))
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered_length(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def aggregate(spans) -> dict:
    """Per span name: calls, busy_s (wall time inside the name, counting a
    recursive call once), self_s, and the number of direct child spans."""
    selfs = self_times(spans)
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "children": 0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = s[PARENT]
        if p >= 0:
            stats[spans[p][NAME]]["children"] += 1
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            st["busy_s"] += s[END] - s[START]
    return stats
