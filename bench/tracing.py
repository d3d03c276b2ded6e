"""Spans around the harness's calls into tablebounds, and what they add up to.

A span is one call from the harness into a public function of one layer:
``[name, start, end, parent, query, tags]``. Names are ``<layer>.<op>``; the
root span of each query is named ``query`` and belongs to the harness. Spans
are kept in memory for the whole run and summarised at the end.

The untraced run uses ``NullTracer``, whose ``call`` is a plain call, so both
runs execute the same harness code.
"""

from __future__ import annotations

import json
from time import perf_counter

LAYERS = ("table", "lattice", "bounds", "positivity", "oracle", "io", "cli")


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def tag(self, **tags):
        pass

    def query(self, qid, fn, *args):
        return fn(*args)


class SpanTracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._qid = -1
        self._last = -1

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = [name, start, end, parent, self._qid, None]
            self._last = idx

    def tag(self, **tags):
        """Attach counts to the span that closed last."""
        span = self.spans[self._last]
        span[5] = {**(span[5] or {}), **tags}

    def query(self, qid, fn, *args):
        self._qid = qid
        try:
            return self.call("query", fn, *args)
        finally:
            self._qid = -1

    def dump(self, path, max_query):
        """Write the spans of queries ``0 .. max_query - 1`` as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, qid, tags) in enumerate(self.spans):
                if 0 <= qid < max_query:
                    row = {"id": i, "name": name, "start": start, "end": end,
                           "parent": parent, "query": qid}
                    if tags:
                        row["tags"] = tags
                    fh.write(json.dumps(row) + "\n")


def summarize(spans):
    """Self time per layer, query wall time, and per-name durations/tags.

    Only spans inside a query count. A span's self time is its duration minus
    the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, qid, tags in spans:
        if parent >= 0:
            child[parent] += end - start
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    wall = harness = 0.0
    by_name = {}
    for i, (name, start, end, parent, qid, tags) in enumerate(spans):
        if qid < 0:
            continue
        dur = end - start
        if name == "query":
            wall += dur
            harness += dur - child[i]
            continue
        layer = name.split(".", 1)[0]
        busy[layer] += dur - child[i]
        calls[layer] += 1
        by_name.setdefault(name, []).append((dur, tags))
    return {"busy": busy, "calls": calls, "wall": wall, "harness": harness,
            "by_name": by_name}


def mean_duration(by_name, name, scale):
    """Mean duration of the spans called ``name``, times ``scale``; 0 if none."""
    items = by_name.get(name, ())
    return scale * sum(d for d, _ in items) / len(items) if items else 0.0


def linear_fit(xs, ys):
    """Least-squares intercept and slope of ys against xs."""
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return my, 0.0
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - slope * mx, slope
