"""In-memory spans around the calls into sepscope's modules.

The child process of a traced operation builds one :class:`Tracer`, lets it
replace selected module attributes with timing wrappers (the attribute the
program calls a function through, e.g. ``sepscope.estimator.next_points``),
and writes every span once, as JSON, when the operation ends.

The parent turns span files into per-layer figures with :func:`self_times`:
a span's self time is its duration minus the part of that interval its
child spans cover (child intervals are merged first, so two worker threads
running children at once are not counted twice).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    """Records spans ``(id, parent, name, t0, t1, thread, run, counts)``.

    A span opened on a thread with no open span of its own (a worker of the
    estimator's thread pool) takes the innermost open span of the main
    thread as its parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``counts(args, kwargs, result)`` returns the span's counts (rows in
        and out, evaluations); it runs after the span has closed.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        record = {
            "id": sid,
            "parent": parent,
            "name": name,
            "t0": t0,
            "t1": t1,
            "thread": threading.get_ident(),
            "run": self.run_id,
            "counts": counts(args, kwargs, result) if counts else {},
        }
        self.spans.append(record)  # list.append is atomic under the GIL
        return result

    def wrap(self, module, attr: str, name: str, counts=None):
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans) -> dict:
    """Map span id to self time in seconds, for the spans of one file."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"])
        - _covered(children.get(s["id"], ()), s["t0"], s["t1"])
        for s in spans
    }
