"""Spans and counts recorded around the calls one nullcover module makes into
another, installed from outside the package.

`install()` replaces the module attributes (and two methods) listed below
with wrappers that record a span per call: name, start, end and the parent
span.  Because the package looks these names up at call time, its own calls
go through the wrappers.  `IntervalAccumulator.add`, called millions of times
per build, only bumps a counter.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

# (module, attribute, span name); the attribute is looked up in `module`,
# which is the caller's module wherever the callee lives in another one
SPANS = [
    ("nullcover.bias_sets", "make_field", "gf.make_field"),
    ("nullcover.bias_sets", "kth_power_codes", "gf.kth_power_codes"),
    ("nullcover.bias_sets", "linear_bias", "groups.linear_bias"),
    ("nullcover.bias_sets", "sumset", "groups.sumset"),
    ("nullcover.bias_sets", "build_bias_complement", "bias_sets.build_bias_complement"),
    ("nullcover.bias_sets", "verify_coverage_bound", "bias_sets.verify_coverage_bound"),
    ("nullcover.bias_sets", "PatchTemplate.cyclic_uncovered", "bias_sets.cyclic_uncovered"),
    ("nullcover.engine", "greedy_piece_cover", "covering.greedy_piece_cover"),
    ("nullcover.covering", "random_cover_complement", "covering.random_cover"),
    ("nullcover.covering", "dyadic_cover_complement", "covering.dyadic_cover"),
    ("nullcover.covering", "pixel_cover_mask", "covering.pixel_cover_mask"),
    ("nullcover.covering", "family_hausdorff_cover_count", "covering.hausdorff_cover_count"),
    ("nullcover.engine", "_directed_hausdorff_intervals", "fractal.directed_hausdorff"),
    ("nullcover.fractal", "hausdorff_content_dyadic", "fractal.content"),
    ("nullcover.fractal", "uniform_large_subset", "fractal.largeness"),
    ("nullcover.engine", "merge_intervals", "elementary.merge_intervals"),
    ("nullcover.engine", "rrp_run", "engine.rrp_run"),
    ("nullcover.engine", "_covered_union", "engine.covered_union"),
    ("nullcover.engine", "verify_rrp_trace", "engine.verify_rrp"),
    ("nullcover.engine", "full_measure_run", "engine.full_measure_run"),
    ("nullcover.engine", "verify_full_measure_trace", "engine.verify_full_measure"),
    ("nullcover.cli", "_emit", "cli.emit"),
]

COUNTS = [
    "gf.elements_powered",
    "groups.wht_elements",
    "groups.sumset_calls",
    "groups.sumset_elements",
    "bias_sets.templates_built",
    "bias_sets.templates_distinct",
    "bias_sets.cyclic_uncovered_calls",
    "covering.pieces",
    "covering.draws",
    "covering.covers",
    "elementary.accumulator_adds",
    "cli.bytes_out",
]


def _count_after(name: str, counts: dict, args: tuple, result) -> None:
    """Counters kept at the span boundaries."""
    if name == "gf.kth_power_codes":
        counts["gf.elements_powered"] += args[0].q - 1
    elif name == "groups.linear_bias":
        counts["groups.wht_elements"] += args[0].group.order
    elif name == "groups.sumset":
        counts["groups.sumset_calls"] += 1
        counts["groups.sumset_elements"] += args[0].group.order
    elif name == "bias_sets.cyclic_uncovered":
        counts["bias_sets.cyclic_uncovered_calls"] += 1
    elif name == "covering.greedy_piece_cover":
        counts["covering.pieces"] += len(result)
    elif name == "covering.random_cover":
        counts["covering.draws"] += result[1].draws
        counts["covering.covers"] += 1
    elif name == "cli.emit" and args[1]:
        counts["cli.bytes_out"] += os.path.getsize(args[1])


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNTS}
        self.templates: set = set()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _count_after(name, counts, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["bias_sets.templates_distinct"] = len(self.templates)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def install() -> Recorder:
    rec = Recorder()
    for module_name, attr, name in SPANS:
        owner = importlib.import_module(module_name)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        setattr(owner, path[-1], rec.wrap(name, getattr(owner, path[-1])))

    engine = importlib.import_module("nullcover.engine")
    build_template = engine.build_patch_template

    @functools.wraps(build_template)
    def counted_template(*args, **kwargs):
        tpl = build_template(*args, **kwargs)
        rec.counts["bias_sets.templates_built"] += 1
        rec.templates.add((tpl.params.k, tpl.params.s, tpl.params.d))
        return tpl

    engine.build_patch_template = counted_template

    accumulator = importlib.import_module("nullcover.elementary").IntervalAccumulator
    add = accumulator.add
    counts = rec.counts

    def counted_add(self, a, b):
        counts["elementary.accumulator_adds"] += 1
        return add(self, a, b)

    accumulator.add = counted_add
    return rec


def self_times(spans: list[list]) -> dict[str, float]:
    """Per name: summed span durations minus the time their children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out
