"""Spans around the library's public functions, installed from outside.

``Tracer.install`` wraps every function in ``FUNCTIONS`` and rebinds the
wrapper in each ``linfmeasure`` module that holds the original, since
``limits`` imports ``slice_function`` from ``exprs`` and both ``quadrature``
and ``fubini`` import ``union_disjointify`` from ``boxes``.  It also wraps
two ``SliceEvaluator`` methods and counts ``Box`` and ``IntervalUnion``
constructions.  Nothing under ``src/`` changes, and ``uninstall`` restores
every original.

A span records its name, start, end, parent span and task.  A traced
function called again inside its own span (``normalize`` and
``normalize_global`` recurse) runs untraced, so each top-level call is one
span.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _limit_counts(args, kwargs, result) -> dict:
    sched = args[3] if len(args) > 3 else kwargs.get("sched")
    if sched is None:
        from linfmeasure.limits import DEFAULT_SCHEDULE as sched
    visited = {t.truncation for t in result.trace}
    return {
        "limits.slices_visited": len(result.trace),
        "limits.bounds_skipped": len(sched.M_values) - len(visited),
    }


def _cells_found(result) -> int:
    return len(result) if isinstance(result, list) else 0


# (module, attribute, span name, counters taken from (args, kwargs, result))
FUNCTIONS = (
    ("exprs", "slice_function", "exprs.slice_function", None),
    ("exprs", "support", "exprs.support", None),
    ("quadrature", "normalize", "quadrature.normalize",
     lambda a, k, r: {"quadrature.normalize.terms": len(r)}),
    ("quadrature", "to_constant_pieces", "quadrature.to_constant_pieces",
     lambda a, k, r: {"quadrature.to_constant_pieces.pieces": len(r or ())}),
    ("quadrature", "pieces_disjoint", "quadrature.pieces_disjoint",
     lambda a, k, r: {"quadrature.pieces_disjoint.pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    ("limits", "integrate_cell", "limits.integrate_cell", _limit_counts),
    ("limits", "integrate_global", "limits.integrate_global", None),
    ("boxes", "union_disjointify", "boxes.union_disjointify",
     lambda a, k, r: {"boxes.union_disjointify.boxes_in": len(a[0].boxes),
                      "boxes.union_disjointify.boxes_out": len(r.boxes)}),
    ("boxes", "union_measure", "boxes.union_measure", None),
    ("cells", "patch_measure", "cells.patch_measure", None),
    ("cells", "cell_decompose", "cells.cell_decompose",
     lambda a, k, r: {"cells.cell_decompose.cells": len(r)}),
    ("cells", "sigma_cover", "cells.sigma_cover",
     lambda a, k, r: {"cells.sigma_cover.cells": _cells_found(r)}),
    ("cells", "nz_set", "cells.nz_set", None),
    ("fubini", "normalize_global", "fubini.normalize_global",
     lambda a, k, r: {"fubini.normalize_global.terms": len(r)}),
    ("fubini", "iterated_integrate", "fubini.iterated_integrate", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_load_problem", "cli.load_problem", None),
)

# (module, class, method, span name)
METHODS = (
    ("quadrature", "SliceEvaluator", "__init__", "quadrature.evaluator_build"),
    ("quadrature", "SliceEvaluator", "integral_at", "quadrature.integral_at"),
)

# (module, class, counter): counted through the dataclass __post_init__
CONSTRUCTORS = (
    ("boxes", "Box", "boxes.box.constructed"),
    ("intervals", "IntervalUnion", "intervals.union.constructed"),
)

SPAN_NAMES = tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS)
COUNTER_NAMES = (
    "quadrature.normalize.terms",
    "quadrature.to_constant_pieces.pieces",
    "quadrature.pieces_disjoint.pairs",
    "limits.slices_visited",
    "limits.bounds_skipped",
    "boxes.union_disjointify.boxes_in",
    "boxes.union_disjointify.boxes_out",
    "cells.cell_decompose.cells",
    "cells.sigma_cover.cells",
    "fubini.normalize_global.terms",
) + tuple(c[2] for c in CONSTRUCTORS)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, task)
        self.counters: Counter = Counter()
        self.task = ""
        self._stack: list = []
        self._active: set = set()
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "linfmeasure" or name.startswith("linfmeasure.")
        }
        for module, attr, span, count in FUNCTIONS:
            original = getattr(mods[f"linfmeasure.{module}"], attr)
            wrapper = self._wrap(span, original, count)
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for module, cls_name, attr, span in METHODS:
            cls = getattr(mods[f"linfmeasure.{module}"], cls_name)
            self._patch(cls, attr, self._wrap(span, cls.__dict__[attr], None))
        for module, cls_name, counter in CONSTRUCTORS:
            cls = getattr(mods[f"linfmeasure.{module}"], cls_name)
            self._patch(cls, "__post_init__", self._counted(counter, cls.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counted(self, counter, original):
        counters = self.counters

        def counted(obj):
            counters[counter] += 1
            return original(obj)

        return counted

    def _wrap(self, name, fn, count):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                spans[index] = (name, start, end, parent, self.task)
            if count is not None:
                self.counters.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge(self, data: dict) -> None:
        """Adds spans and counters exported by a child process; its
        top-level spans join the current task."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, self.task))
        self.counters.update(data["counters"])

    def totals(self, exclude: str) -> tuple:
        """(calls, self seconds) per span name, leaving out spans whose task
        starts with ``exclude``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, task) in enumerate(self.spans):
            if task.startswith(exclude):
                continue
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        return calls, self_s

    def top_level(self, first: int) -> dict:
        """Durations of the spans from index ``first`` on that have no
        parent, by name."""
        out: dict = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent < 0:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start and end in seconds from the
        first span, parent line number (-1 for none) and task."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, task in self.spans:
                row = [name, round(start - origin, 7), round(end - origin, 7), parent, task]
                handle.write(json.dumps(row) + "\n")
