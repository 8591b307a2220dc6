"""Traced `gridfair measure`: layer spans recorded from outside the package.

Run as ``python perfbench/tracer.py SPANS.json measure ...``. Before the CLI
starts, the module-level names that ``gridfair.harness`` and
``gridfair.metrics`` call, plus ``RenderPlan.render``,
``AlignmentTable.matrix`` and ``RelevanceJudgments.grades``, are replaced by
wrappers that record one span per call: name, start, end, parent span,
thread and request id (taken from the call's arguments, else inherited from
the parent). Spans stay in memory and are written when the CLI returns.

:func:`summarize` turns a spans file into the per-layer metrics. A layer's
self time is its spans' durations minus the time their child spans cover.
When spans of several threads are open at once, the wall time of that
interval is split evenly between them, so the layer self times plus
``harness.self_s`` (wall time with no layer span open) add up to the wall.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("io", "layout", "core", "browse", "metrics")
BASES = ("geometric", "cascade")
ADJUSTMENTS = ("none", "row-skip", "slow-decay")

# (module, attribute, layer) of every wrapped module-level name.
FUNCTIONS = (
    ("gridfair.harness", "parse_run", "io"),
    ("gridfair.harness", "parse_alignment", "io"),
    ("gridfair.harness", "parse_qrels", "io"),
    ("gridfair.harness", "write_results", "io"),
    ("gridfair.harness", "wrap", "layout"),
    ("gridfair.harness", "truncate", "layout"),
    ("gridfair.harness", "rewrap", "layout"),
    ("gridfair.harness", "attention", "browse"),
    ("gridfair.harness", "group_exposure", "metrics"),
    ("gridfair.harness", "awrf", "metrics"),
    ("gridfair.harness", "awrf_system", "metrics"),
    ("gridfair.harness", "drop_unknown", "metrics"),
    ("gridfair.harness", "eel", "metrics"),
    ("gridfair.harness", "target_exposure", "metrics"),
    ("gridfair.harness", "population_estimator", "metrics"),
    ("gridfair.metrics", "attention", "browse"),
    ("gridfair.metrics", "render", "layout"),
    ("gridfair.metrics", "group_exposure", "metrics"),
    ("gridfair.metrics", "drop_unknown", "metrics"),
)
METHODS = (
    ("gridfair.harness", "RenderPlan", "render", "layout"),
    ("gridfair.core", "AlignmentTable", "matrix", "core"),
    ("gridfair.core", "RelevanceJudgments", "grades", "core"),
)


class Tracer:
    """In-memory span recorder, safe to call from several threads."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, request, thread]
        self.calls = defaultdict(list)  # name -> call arguments kept for counting
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, func):
        try:
            params = list(inspect.signature(func).parameters)
        except (TypeError, ValueError):
            params = []
        request_at = params.index("request") if "request" in params else None
        keep = name in _KEEP_ARGS
        spans, lock, local = self.spans, self._lock, self._local
        calls = self.calls[name]

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            request = _request_of(args, request_at)
            if request is None and parent is not None:
                request = spans[parent][4]
            span = [name, 0.0, 0.0, parent, request, threading.get_ident()]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep:
                calls.append((index, request, args, result))
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        import importlib

        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(f"{layer}.{attr}", getattr(module, attr)))
        for module_name, cls_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.wrap(f"{layer}.{attr}", getattr(cls, attr)))


# Spans whose arguments are kept (by reference) so that counts and distinct
# inputs can be worked out after the wall clock stops.
_KEEP_ARGS = {
    "metrics.target_exposure",
    "browse.attention",
    "core.matrix",
    "core.grades",
    "layout.render",
    "io.parse_run",
    "io.parse_alignment",
    "io.parse_qrels",
    "io.write_results",
}


def _request_of(args, request_at):
    if request_at is not None and len(args) > request_at:
        return args[request_at]
    for arg in args:
        origin = getattr(arg, "origin", None)  # GridLayout
        if origin is not None:
            return origin.request
        request = getattr(arg, "request", None)  # Ranking
        if isinstance(request, str):
            return request
    return None


def _counts(tracer: Tracer) -> dict:
    """Work counts and reuse ratios from the kept call arguments."""
    from gridfair.browse import continuations

    calls = tracer.calls
    out = {}

    targets = calls["metrics.target_exposure"]
    out["metrics.eel_target_calls"] = len(targets)
    out["metrics.eel_target_docs"] = sum(len(args[1]) for _, _, args, _ in targets)

    attention = calls["browse.attention"]
    distinct = set()
    for _, _, (grid, rel, spec), _ in attention:
        if spec.base == "geometric" or rel is None:
            cont = (spec.alpha,) * grid.n_displayed
        else:
            grades = type(rel).grades.__wrapped__(rel, grid.origin.request, grid.items)
            cont = tuple(continuations(grades, spec).tolist())
        distinct.add((tuple(grid.row_lengths.tolist()), spec, cont))
    out["browse.attention_calls"] = len(attention)
    out["browse.distinct_ratio"] = len(distinct) / len(attention) if attention else 0.0

    pairs = set()
    matrix_rows = grades_lookups = 0
    for _, request, args, _ in calls["core.matrix"]:
        items = args[1]
        matrix_rows += len(items)
        pairs.update((request, doc) for doc in items)
    for _, _, args, _ in calls["core.grades"]:
        request, items = args[1], args[2]
        grades_lookups += len(items)
        pairs.update((request, doc) for doc in items)
    out["core.matrix_rows"] = matrix_rows
    out["core.grades_lookups"] = grades_lookups
    out["core.lookup_reuse"] = (matrix_rows + grades_lookups) / len(pairs) if pairs else 0.0

    renders = calls["layout.render"]
    shown = sum(grid.n_displayed for _, _, _, grid in renders)
    given = sum(len(args[1].items) for _, _, args, _ in renders)
    out["layout.render_calls"] = len(renders)
    out["layout.displayed_ratio"] = shown / given if given else 0.0

    parsed = [c for name in ("io.parse_run", "io.parse_alignment", "io.parse_qrels")
              for c in calls[name]]
    out["io.parse_bytes"] = sum(os.path.getsize(args[0]) for _, _, args, _ in parsed)
    out["io.rows_written"] = sum(len(args[0]) for _, _, args, _ in calls["io.write_results"])
    # Attention spans by browsing model, for the per-model self times.
    out["attention_specs"] = [
        (index, spec.base, spec.adjustment) for index, _, (_, _, spec), _ in attention
    ]
    return out


def _attributed_self_times(spans, wall_start, wall_end):
    """Per-span self time, plus its share of wall time when threads overlap.

    Returns (busy, share): ``busy[i]`` is span i's duration minus its
    children's; ``share[i]`` splits each instant evenly between the spans
    that are innermost on some thread at that instant.
    """
    busy = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            busy[s[3]] -= s[2] - s[1]
    # From each event on, the thread runs the given innermost span (or none).
    events = []
    for i, s in enumerate(spans):
        events.append((s[1], 1, s[5], i))
        events.append((s[2], 0, s[5], s[3]))
    events.sort(key=lambda e: (e[0], e[1]))
    share = [0.0] * len(spans)
    active = {}
    last = wall_start
    for t, _, thread, index in events:
        if active and t > last:
            part = (t - last) / len(active)
            for span in active.values():
                share[span] += part
        last = max(last, t)
        if index is None:
            active.pop(thread, None)
        else:
            active[thread] = index
    return busy, share


def summarize(data: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (see ``perfbench/README.md``)."""
    spans = data["spans"]
    wall = data["wall_end"] - data["wall_start"]
    busy, share = _attributed_self_times(spans, data["wall_start"], data["wall_end"])
    by_name = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    combos = {f"browse.attention.{b}.{a}_s": 0.0 for b in BASES for a in ADJUSTMENTS}
    for s, part in zip(spans, share):
        by_name[s[0]] += part
        layer_self[s[0].split(".", 1)[0]] += part
    counts = data["counts"]
    for index, base, adjustment in counts["attention_specs"]:
        combos[f"browse.attention.{base}.{adjustment}_s"] += share[index]
    parse_s = sum(by_name[f"io.parse_{kind}"] for kind in ("run", "alignment", "qrels"))
    out = {
        "trace.wall_s": wall,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "harness.self_s": wall - sum(share),
        "harness.parallelism": sum(busy) / wall,
        "metrics.eel_target_s": by_name["metrics.target_exposure"],
        "metrics.eel_target_calls": counts["metrics.eel_target_calls"],
        "metrics.eel_target_docs": counts["metrics.eel_target_docs"],
        "browse.attention_s": by_name["browse.attention"],
        "browse.attention_calls": counts["browse.attention_calls"],
        **combos,
        "browse.distinct_ratio": counts["browse.distinct_ratio"],
        "core.matrix_s": by_name["core.matrix"],
        "core.matrix_rows": counts["core.matrix_rows"],
        "core.grades_s": by_name["core.grades"],
        "core.grades_lookups": counts["core.grades_lookups"],
        "core.lookup_reuse": counts["core.lookup_reuse"],
        "layout.render_s": layer_self["layout"],
        "layout.render_calls": counts["layout.render_calls"],
        "layout.displayed_ratio": counts["layout.displayed_ratio"],
        "metrics.exposure_s": by_name["metrics.group_exposure"],
        "metrics.awrf_s": by_name["metrics.awrf"] + by_name["metrics.awrf_system"],
        "metrics.population_s": by_name["metrics.population_estimator"],
        "io.parse_run_s": by_name["io.parse_run"],
        "io.parse_alignment_s": by_name["io.parse_alignment"],
        "io.parse_qrels_s": by_name["io.parse_qrels"],
        "io.parse_mb_per_s": counts["io.parse_bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "io.write_s": by_name["io.write_results"],
        "io.rows_written": counts["io.rows_written"],
    }
    return out


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from gridfair import cli

    wall_start = time.perf_counter()
    code = cli.main(cli_argv)
    wall_end = time.perf_counter()
    data = {
        "wall_start": wall_start,
        "wall_end": wall_end,
        "spans": tracer.spans,
        "counts": _counts(tracer),
    }
    text = json.dumps(data)
    # Everything after the sweep, serializing included, is tracing cost that
    # the caller subtracts from this process's wall time.
    post_s = time.perf_counter() - wall_end
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text[:-1] + f', "post_s": {post_s!r}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
