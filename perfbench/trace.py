"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own side, around calls into each
verisel module's public functions: the functions are swapped, for the
length of a ``with instrument(...)`` block, for wrappers that open a span
on entry and close it on return. Nothing inside ``src/`` changes.

A span has a name, a start and an end (seconds since the recorder was
made), its parent span's id, a count of the work it covered (records,
pools, slates, candidates) and a few attributes (the rule, the pipeline
mode, the job count). Functions called thousands of times per pool are
aggregated: one span per (parent, name, attributes) whose ``calls`` and
``dur`` add up every call, and whose start and end are the first call's
start and the last call's end. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._aggregates: dict[tuple, dict] = {}
        self._t0 = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def open(self, name: str, attrs: Optional[dict] = None, aggregate: bool = False) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        attrs = attrs or {}
        now = self._now()
        span = None
        if aggregate:
            key = (parent, name, tuple(sorted(attrs.items())))
            span = self._aggregates.get(key)
        if span is None:
            span = {
                "id": len(self.spans), "name": name, "parent": parent,
                "start": now, "end": now, "dur": 0.0, "count": 0, "calls": 0,
                "attrs": attrs,
            }
            self.spans.append(span)
            if aggregate:
                self._aggregates[key] = span
        span["_entered"] = now
        self._stack.append(span)
        return span

    def close(self, span: dict, count: int = 1) -> None:
        now = self._now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        span["end"] = now
        span["dur"] += now - span.pop("_entered")
        span["count"] += count
        span["calls"] += 1

    @contextmanager
    def span(self, name: str, count: int = 1, **attrs):
        s = self.open(name, attrs)
        try:
            yield s
        finally:
            self.close(s, count)

    def add(self, name: str, dur: float, count: int = 1, **attrs) -> None:
        """A span measured elsewhere (in a child process), ending now."""
        s = self.open(name, attrs)
        s["_entered"] -= dur
        s["start"] -= dur
        self.close(s, count)

    def root(self, span: dict) -> str:
        """Name of the top-level span above this one."""
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span["name"]

    def self_times(self, root: Optional[str] = None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed count, over
        the spans under the top-level span named root (default: all).

        Self time is a span's duration minus its children's durations.
        """
        child_dur: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_dur[s["parent"]] = child_dur.get(s["parent"], 0.0) + s["dur"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if root is not None and self.root(s) != root:
                continue
            row = out.setdefault(
                s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
            )
            row["calls"] += s["calls"]
            row["total_s"] += s["dur"]
            row["self_s"] += s["dur"] - child_dur.get(s["id"], 0.0)
            row["count"] += s["count"]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _records(problems) -> int:
    return sum(len(p.candidates) for p in problems)


# (module, function, aggregate?, attributes of a call, count of its work).
# The count functions see (args, kwargs, result).
TARGETS: list[tuple[str, str, bool, Callable, Callable]] = [
    ("verisel.cli", "main", False,
     lambda a, k: {"command": next((x for x in (_arg(a, k, 0, "argv") or [])
                                    if x in ("evaluate", "curve", "simulate")), "")},
     lambda a, k, r: 1),
    ("verisel.synth", "generate_pool", False, lambda a, k: {},
     lambda a, k, r: _records(r)),
    ("verisel.records", "ingest", False,
     lambda a, k: {"canon": _arg(a, k, 1, "canon", "exact")},
     lambda a, k, r: _records(r)),
    ("verisel.records", "write_records", False, lambda a, k: {},
     lambda a, k, r: _records(a[0])),
    ("verisel.records", "emit_report", False,
     lambda a, k: {"fmt": _arg(a, k, 1, "fmt", "json")}, lambda a, k, r: 1),
    ("verisel.core", "canonicalize_answer", True,
     lambda a, k: {"mode": _arg(a, k, 1, "mode", "exact")}, lambda a, k, r: 1),
    ("verisel.core", "cluster_by_answer", True, lambda a, k: {}, lambda a, k, r: 1),
    ("verisel.selection", "select_answer", True,
     lambda a, k: {"method": _arg(a, k, 1, "method")}, lambda a, k, r: 1),
    ("verisel.ranking", "group_from_problem", True, lambda a, k: {},
     lambda a, k, r: 1),
    ("verisel.ranking", "bt_loss", True, lambda a, k: {}, lambda a, k, r: 1),
    ("verisel.ranking", "bt_loss_gradient", True, lambda a, k: {},
     lambda a, k, r: 1),
    ("verisel.evaluate", "bootstrap_accuracy", False,
     lambda a, k: {"method": a[1].method, "n": a[1].n,
                   "jobs": _arg(a, k, 2, "jobs", 1)},
     lambda a, k, r: len(a[0]) * r.draws),
    ("verisel.evaluate", "budget_curve", False,
     lambda a, k: {"jobs": k.get("jobs", 1)}, lambda a, k, r: len(r)),
    ("verisel.costs", "pipeline_flops", True,
     lambda a, k: {"mode": _arg(a, k, 3, "mode")},
     lambda a, k, r: len(_arg(a, k, 2, "stats"))),
]


def _wrap(recorder: Recorder, name: str, func, aggregate, attrs_of, count_of):
    def wrapper(*args, **kwargs):
        span = recorder.open(name, attrs_of(args, kwargs), aggregate)
        count = 0
        try:
            result = func(*args, **kwargs)
            count = count_of(args, kwargs, result)
            return result
        finally:
            recorder.close(span, count)

    wrapper.__wrapped__ = func
    return wrapper


@contextmanager
def instrument(recorder: Recorder):
    """Swap every TARGETS function, wherever a verisel module bound it, for
    a span-recording wrapper; put the originals back on exit."""
    import importlib

    swapped = []
    try:
        for module_name, func_name, aggregate, attrs_of, count_of in TARGETS:
            func = getattr(importlib.import_module(module_name), func_name)
            span_name = f"{module_name.split('.', 1)[1]}.{func_name}"
            wrapper = _wrap(recorder, span_name, func, aggregate, attrs_of, count_of)
            for mod in [m for n, m in sys.modules.items()
                        if n == "verisel" or n.startswith("verisel.")]:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, func))
        yield recorder
    finally:
        for mod, attr, func in reversed(swapped):
            setattr(mod, attr, func)
