"""Library inputs and timed calls for each spec.

``make_task`` turns a spec into a zero-argument ``call`` (the timed part)
and a ``summarize`` function that reduces the call's result to the
JSON-ready form ``reference.py`` produces.  Library functions are reached
through their module attributes (``limits.integrate_global``, not a name
imported here), so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from linfmeasure import boxes, cells, cli, exprs, fubini, library, limits, quadrature
from linfmeasure.intervals import INF

from specs import PROBLEM_FILE, cell_key, fmt

FUBINI_SPLITS = (
    fubini.CoordinateSplit("finite", (0,)),
    fubini.CoordinateSplit("finite", (0, 2)),
    fubini.CoordinateSplit("even"),
)


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], object]


@dataclass
class ChildResult:
    code: int
    stdout: str


class CliRunner:
    """Runs the command line in fresh interpreters, one at a time.

    Each child is reaped with ``os.wait4`` so its own CPU time and peak
    resident set are read; with a tracer attached, children run under
    ``child.py cli-trace`` and their spans are merged into the tracer.
    """

    def __init__(self, root: Path, out_dir: Path, env: dict):
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.tracer = None
        self.peak_kb = 0
        self._spans = out_dir / "cli-child-spans.json"

    def run(self, argv: list) -> ChildResult:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "linfmeasure", *argv]
        else:
            child = str(Path(__file__).with_name("child.py"))
            cmd = [sys.executable, child, "cli-trace", str(self._spans), *argv]
        with open(self.out_dir / "cli-child-stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.merge(json.loads(self._spans.read_text()))
        return ChildResult(proc.returncode, out.decode())


# ---------------------------------------------------------------------------
# inputs


def make_union(specs: list) -> boxes.BoxUnion:
    return boxes.BoxUnion(tuple(boxes.Box.make(b["explicit"], tail=b["tail"]) for b in specs))


def make_cylinder_function(fn: dict) -> exprs.Expr:
    if fn["family"] == "prod":
        factors = [exprs.piecewise_const(c, [(interval, height)]) for c, interval, height in fn["factors"]]
        return exprs.mul(exprs.indicator(boxes.BoxUnion.of(boxes.unit_cell())), *factors)
    return exprs.scale(fn["coef"], exprs.indicator(make_union(fn["boxes"])))


def _shifted_spike(spec: dict, base: exprs.Expr):
    """(s * base)(x + z) and the anchor of the cell at -z that holds it."""
    z = boxes.SparseVector.of(spec["shift"])
    f = exprs.translate(exprs.scale(spec["scale"], base), z)
    return f, exprs.Anchor(entries=-z, cell_origin=-z)


def _cell_keys(found) -> list:
    if isinstance(found, cells.NotSigmaFinite):
        return [f"not sigma-finite: {found.reason}"]
    return sorted(cell_key(c.base.entries) for c in found)


def _piece_volume(u: boxes.BoxUnion):
    total = 0
    for b in u.boxes:
        vol = 1
        for _, constraint in b.explicit:
            vol *= constraint.total_length
        total += vol
    return total


def _integral(r) -> dict:
    return {"status": r.status, "value": fmt(r.value)}


def _cli_summary(argv: list, r: ChildResult) -> dict:
    command = argv[0]
    if command == "measure":
        return {"exit": r.code, "stdout": r.stdout.strip()}
    report = json.loads(r.stdout)
    if command == "verify":
        return {"exit": r.code, "passed": report["passed"], "checks": report["checks"]}
    if command == "integrate":
        return {"exit": r.code, **{k: report["result"][k] for k in ("status", "value")}}
    return {"exit": r.code, "rows": [[t["n"], t["M"], t["value"]] for t in report["table"]]}


# ---------------------------------------------------------------------------


def make_task(spec: dict, root: Path, runner: Optional[CliRunner] = None) -> Task:
    kind = spec["kind"]
    call: Callable[[], object]
    summarize: Callable[[object], object]

    if kind == "spike_global":
        f, _ = _shifted_spike(spec, library.spike_series())
        call = lambda: limits.integrate_global(f)
        summarize = lambda r: {
            **_integral(r),
            "cells": [cell_key(c.base.entries) for c in r.cells_used],
            "trace": {f"{t.n}@{fmt(t.truncation)}": fmt(t.value) for t in r.trace},
        }
    elif kind == "spike_slice":
        f, anchor = _shifted_spike(spec, library.spike_series())
        quad = quadrature.QuadratureSpec()
        if spec["M"] is not None:
            quad = quad.with_truncation(spec["M"])
        n = spec["n"]
        call = lambda: quadrature.integrate_slice(exprs.slice_function(f, anchor, n), quad)
        summarize = lambda r: {"value": fmt(r.value)}
    elif kind == "support_scan":
        f, anchor = _shifted_spike(spec, library.spike_support_indicator())
        n_values = range(spec["n_max"] + 1)
        call = lambda: limits.slice_scan(f, anchor, n_values, (INF,))
        summarize = lambda rows: {"values": [fmt(r.value) for r in sorted(rows, key=lambda r: r.n)]}
    elif kind == "union_measure":
        u = make_union(spec["boxes"])
        call = lambda: boxes.union_measure(u)
        summarize = lambda m: {"value": fmt(m)}
    elif kind == "cells":
        u = make_union(spec["boxes"])
        query = cells.NZQuery(
            set=u,
            shift=boxes.SparseVector.of(spec["shift"]),
            delta=spec["delta"],
            window=[boxes.LatticeVector.of(w) for w in spec["window"]],
        )
        call = lambda: (
            cells.patch_measure(u),
            cells.cell_decompose(u),
            cells.sigma_cover(u),
            cells.nz_set(query),
        )
        summarize = lambda r: {
            "patch": fmt(r[0]),
            "decompose": {cell_key(c.base.entries): fmt(_piece_volume(p)) for c, p in r[1]},
            "sigma": _cell_keys(r[2]),
            "nz": sorted(cell_key(z.entries) for z in r[3]),
        }
    elif kind == "cylinder":
        f = make_cylinder_function(spec["function"])
        t = boxes.SparseVector.of(spec["shift"])
        call = lambda: (
            limits.integrate_global(f),
            limits.invariance_check(f, t),
            fubini.fubini_check(f, list(FUBINI_SPLITS)),
        )
        summarize = lambda r: {
            "integrate": _integral(r[0]),
            "invariance": {
                "passed": r[1].passed,
                "direct": fmt(r[1].direct.value),
                "translated": fmt(r[1].translated.value),
                "difference": fmt(r[1].difference),
            },
            "fubini": {
                "passed": r[2].passed,
                "rows": [[fmt(row.iterated.value), fmt(row.direct.value)] for row in r[2].rows],
            },
        }
    elif kind == "slice_stages":
        n = spec["n"]

        def call():
            g = exprs.slice_function(library.spike_series(), exprs.ZERO_ANCHOR, n)
            ev = quadrature.SliceEvaluator(g)
            pieces = quadrature.to_constant_pieces(ev.terms)
            return ev, quadrature.pieces_disjoint(pieces)

        summarize = lambda r: {"disjoint": r[1], "untruncated": fmt(r[0].untruncated_integral())}
    elif kind == "cli":
        argv = spec["argv"]
        call = lambda: runner.run(argv)
        summarize = lambda r: _cli_summary(argv, r)
    elif kind == "cli_inprocess":
        argv = [str(root / a) if a == PROBLEM_FILE else a for a in spec["argv"]]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return ChildResult(code, buf.getvalue())

        summarize = lambda r: _cli_summary(argv, r)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return Task(spec["name"], call, summarize)
