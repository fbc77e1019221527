"""Per-layer tracing from outside the library.

Wrappers replace each traced function wherever a tvdist module holds a
reference to it, so calls made between modules (product -> ratios, cli ->
files, ...) and within one (sparsify_wrt_intervals -> _interval_keys) are
both seen.  Modules are reached through sys.modules: the attribute
`tvdist.sparsify` is the function of that name, not the module.  The two
table classes are traced through their validating __post_init__.

Each call records one span (name, parent, start, end and counts) in memory;
spans are written out once, at the end of the run.  A span's self time is
its duration minus that of its direct children.  A function the library no
longer has is skipped, and its metrics read zero.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def _table_sizes(cond) -> int:
    return sum(len(r) for r in cond.per_state)


def _report(result):
    return result[0] if isinstance(result, tuple) else result


def _prune_mass(args, kwargs, result) -> float:
    ratio = args[0]
    if result is ratio:
        return 0.0
    tiny = kwargs.get("tiny", args[1] if len(args) > 1 else sys.modules["tvdist.sparsify"].NEGLIGIBLE_MASS)
    return float(np.sum(ratio.masses[ratio.masses < tiny]))


def _occupied(keys) -> int:
    return int(keys.size and 1 + np.count_nonzero(keys[1:] != keys[:-1]))


# Each counter maps (args, kwargs, result) to the extra stats of one call.
_IN_OUT = lambda a, k, r: {"entries_in": len(a[0]), "entries_out": len(r)}  # noqa: E731
_IN = lambda a, k, r: {"entries_in": len(a[0])}  # noqa: E731
_OUT = lambda a, k, r: {"entries_out": len(r)}  # noqa: E731
_NONE = lambda a, k, r: {}  # noqa: E731
_ESTIMATE = lambda a, k, r: {  # noqa: E731
    "iterations": _report(r).iterations,
    "max_support": _report(r).max_support,
}

#: (defining module, attribute, metric prefix, counter)
FUNCTIONS = [
    ("tvdist.ratios", "ratio_of", "ratios.ratio_of", _IN_OUT),
    (
        "tvdist.ratios",
        "indp_product",
        "ratios.indp_product",
        lambda a, k, r: {"entries_in": len(a[0]) * len(a[1]), "entries_out": len(r)},
    ),
    ("tvdist.ratios", "tv_of_ratio", "ratios.tv_of_ratio", _IN),
    ("tvdist.sparsify", "build_partition", "sparsify.build_partition", lambda a, k, r: {"cells": r.interval_count}),
    (
        "tvdist.sparsify",
        "_interval_keys",
        "sparsify.cell_keys",
        lambda a, k, r: {"entries_in": len(a[1]), "entries_out": _occupied(r)},
    ),
    ("tvdist.sparsify", "sparsify_wrt_intervals", "sparsify.sparsify_wrt_intervals", _IN_OUT),
    (
        "tvdist.sparsify",
        "_prune_negligible",
        "sparsify.prune",
        lambda a, k, r: {"entries_in": len(a[0]), "entries_out": len(r), "mass": _prune_mass(a, k, r)},
    ),
    ("tvdist.product", "estimate_product_tv", "product.estimate_product_tv", _ESTIMATE),
    ("tvdist.product", "product_lower_bound", "product.product_lower_bound", _NONE),
    ("tvdist.markov", "estimate_markov_tv", "markov.estimate_markov_tv", _ESTIMATE),
    ("tvdist.markov", "markov_lower_bound", "markov.markov_lower_bound", _NONE),
    (
        "tvdist.markov",
        "concatenate",
        "markov.concatenate",
        lambda a, k, r: {"entries_in": _table_sizes(a[2]), "entries_out": len(r)},
    ),
    (
        "tvdist.markov",
        "kernel_conditional_ratio",
        "markov.kernel_conditional_ratio",
        lambda a, k, r: {"entries_out": _table_sizes(r)},
    ),
    ("tvdist.oracle", "exact_ratio_product", "oracle.exact_ratio_product", _OUT),
    ("tvdist.oracle", "exact_ratio_markov", "oracle.exact_ratio_markov", _OUT),
    ("tvdist.files", "parse_instance", "files.parse_instance", _NONE),
    ("tvdist.files", "emit_report", "files.emit_report", _NONE),
    ("tvdist.files", "instance_digest", "files.instance_digest", _NONE),
    ("tvdist.cli", "main", "cli.main", _NONE),
]

#: (defining module, class, metric prefix): construction, i.e. validation.
CLASSES = [
    ("tvdist.ratios", "RatioDist", "ratios.RatioDist"),
    ("tvdist.ratios", "DiscreteDist", "ratios.DiscreteDist"),
]
_CLASS_COUNTER = lambda a, k, r: {"entries_in": len(a[0])}  # noqa: E731

#: The stats each prefix reports, in BENCHMARK.json order.
STATS = {
    "ratios.ratio_of": ("calls", "self_s", "entries_in", "entries_out"),
    "ratios.indp_product": ("calls", "self_s", "entries_in", "entries_out"),
    "ratios.RatioDist": ("calls", "self_s", "entries_in"),
    "ratios.DiscreteDist": ("calls", "self_s", "entries_in"),
    "ratios.tv_of_ratio": ("calls", "self_s", "entries_in"),
    "sparsify.build_partition": ("calls", "self_s", "cells"),
    "sparsify.cell_keys": ("calls", "self_s", "entries_in", "entries_out"),
    "sparsify.sparsify_wrt_intervals": ("calls", "self_s", "entries_in", "entries_out"),
    "sparsify.prune": ("calls", "self_s", "entries_in", "entries_out", "mass"),
    "product.estimate_product_tv": ("calls", "self_s", "iterations", "max_support"),
    "product.product_lower_bound": ("calls", "self_s"),
    "markov.estimate_markov_tv": ("calls", "self_s", "iterations", "max_support"),
    "markov.markov_lower_bound": ("calls", "self_s"),
    "markov.concatenate": ("calls", "self_s", "entries_in", "entries_out"),
    "markov.kernel_conditional_ratio": ("calls", "self_s", "entries_out"),
    "oracle.exact_ratio_product": ("calls", "self_s", "entries_out"),
    "oracle.exact_ratio_markov": ("calls", "self_s", "entries_out"),
    "files.parse_instance": ("calls", "self_s"),
    "files.emit_report": ("calls", "self_s"),
    "files.instance_digest": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"self_s": "s", "mass": "prob"}
#: Run-level metrics of the traced run, in seconds per pass.
TRACE_METRICS = ("trace.pass_s", "trace.overhead_s")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit)."""
    names = [(f"{prefix}.{stat}", UNITS.get(stat, "count")) for prefix, stats in STATS.items() for stat in stats]
    return names + [(name, "s") for name in TRACE_METRICS]


class Tracer:
    """Installs the wrappers for one pass at a time and keeps every span."""

    def __init__(self) -> None:
        self.names = [prefix for _, _, prefix, _ in FUNCTIONS] + [prefix for _, _, prefix in CLASSES]
        self.passes: list[list] = []  # one span list per traced pass
        self._spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int, counter):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = done = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                counts = {}
                if done:
                    try:
                        counts = counter(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError):
                        counts = {}
                spans[sid] = (index, parent, t0, t1, counts)
            return result

        return traced

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        self._spans = []
        self._stack.clear()
        modules = [m for name, m in sorted(sys.modules.items()) if name == "tvdist" or name.startswith("tvdist.")]
        for index, (mod_name, attr, _, counter) in enumerate(FUNCTIONS):
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            traced = self._wrap(original, index, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, traced)
        for offset, (mod_name, cls_name, _) in enumerate(CLASSES):
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None or "__post_init__" not in cls.__dict__:
                continue
            self._swap(cls, "__post_init__", self._wrap(cls.__post_init__, len(FUNCTIONS) + offset, _CLASS_COUNTER))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.passes.append(self._spans)

    def pass_stats(self, spans: list) -> dict[str, dict[str, float]]:
        """Per-prefix totals over one pass: calls, self time and counts."""
        child = [0.0] * len(spans)
        for index, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {prefix: dict.fromkeys(STATS[prefix], 0) for prefix in self.names}
        for sid, (index, _, t0, t1, counts) in enumerate(spans):
            row = stats[self.names[index]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[sid]
            for key, value in counts.items():
                row[key] += value
        return stats

    def write(self, path) -> None:
        """All spans as JSON lines: [pass, id, parent, name, start, end, counts]."""
        with open(path, "w") as out:
            for k, spans in enumerate(self.passes):
                for sid, (index, parent, t0, t1, counts) in enumerate(spans):
                    out.write(json.dumps([k, sid, parent, self.names[index], t0, t1, counts]) + "\n")
