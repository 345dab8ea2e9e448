"""Command-line front end.

Problem files are JSON: named sets, functions, anchors, splits, schedules,
and verification suites.  Rationals are written as strings "p/q" so values
round-trip exactly; every exact value in a report is printed as a rational,
never a float.  Reports are deterministic for a given file and version
(timings are deliberately omitted).

Exit codes: 0 success, 1 not-integrable/diverged/failed verification,
2 usage or parse error, 3 inconclusive.  A reader that closes stdout early
(``| head``) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from . import __version__
from .boxes import Box, BoxUnion, LatticeVector, SparseVector
from .cells import Cell, compatibility_check, patch_measure
from .errors import LinfMeasureError
from .exprs import (
    Abs,
    Anchor,
    Clamp,
    Const,
    Coord,
    Expr,
    Indicator,
    Piecewise,
    Prod,
    Scale,
    Sum,
    Translate,
    ZERO_ANCHOR,
)
from .fubini import CoordinateSplit, fubini_check
from .intervals import INF, Interval, IntervalUnion
from .library import BUILTIN_FUNCTIONS
from .limits import (
    DEFAULT_SCHEDULE,
    MAX_SCHEDULE_VALUES,
    IntegralResult,
    LimitSchedule,
    integrate_cell,
    integrate_global,
    invariance_check,
    slice_scan,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class ProblemError(LinfMeasureError):
    """A problem file could not be parsed; the message names the location."""


def _rat(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ProblemError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemError(f"{where}: malformed rational {value!r} ({exc})")
    raise ProblemError(
        f"{where}: expected a rational string 'p/q' or integer, got {value!r}"
    )


def _lookup(table: dict, kind: str, name: Any, where: str = "") -> Any:
    """The entry called name, or a ProblemError listing the available names."""
    if isinstance(name, str) and name in table:
        return table[name]
    prefix = f"{where}: " if where else ""
    raise ProblemError(
        f"{prefix}unknown {kind} {name!r}; "
        f"available: {', '.join(sorted(table)) or 'none'}"
    )


def _required(task: dict, key: str, where: str) -> Any:
    if key not in task:
        raise ProblemError(f"{where}.{key}: missing")
    return task[key]


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemError(f"{where}: expected an object")
    return value


def _list(task: dict, key: str, where: str, default: tuple = ()) -> Sequence:
    """task[key], which must be a list; default when the key is missing."""
    if key not in task:
        return default
    value = task[key]
    if not isinstance(value, list):
        raise ProblemError(f"{where}.{key}: expected a list, got {value!r}")
    return value


def _convert(convert, value: Any, where: str) -> Any:
    """int(value) or float(value), with a located error instead of a traceback."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ProblemError(f"{where}: expected {convert.__name__}, got {value!r}")


def _capped(count: int, where: str) -> int:
    """count, checked before that many schedule values are built."""
    if count > MAX_SCHEDULE_VALUES:
        raise ProblemError(
            f"{where}: {count} values, more than the {MAX_SCHEDULE_VALUES} "
            "a schedule may list"
        )
    return count


def _union(value: Any, where: str) -> IntervalUnion:
    """An interval union is a [lo, hi] pair or a list of such pairs."""
    if (
        isinstance(value, list)
        and len(value) == 2
        and not isinstance(value[0], list)
    ):
        value = [value]
    if not isinstance(value, list):
        raise ProblemError(f"{where}: expected an interval or list of intervals")
    comps = []
    for k, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ProblemError(f"{where}[{k}]: expected a [lo, hi] pair")
        lo = _rat(pair[0], f"{where}[{k}].lo")
        hi = _rat(pair[1], f"{where}[{k}].hi")
        if lo > hi:
            raise ProblemError(f"{where}[{k}]: lo {lo} exceeds hi {hi}")
        comps.append(Interval.closed(lo, hi))
    return IntervalUnion.of(*comps)


def _coordinate(key: str, seen: dict, where: str) -> int:
    """The coordinate a key names, which must not already be in ``seen``:
    keys such as "0" and "00" name the same coordinate."""
    try:
        idx = int(key)
    except ValueError:
        raise ProblemError(f"{where}: coordinate {key!r} is not an integer")
    if idx in seen:
        raise ProblemError(f"{where}: key {key!r} names coordinate {idx} again")
    return idx


def _box(value: Any, where: str) -> Box:
    if not isinstance(value, dict):
        raise ProblemError(f"{where}: expected a box object")
    explicit = {}
    for key, u in _object(value.get("explicit") or {}, f"{where}.explicit").items():
        idx = _coordinate(key, explicit, f"{where}.explicit")
        if idx < 0:
            raise ProblemError(f"{where}.explicit: coordinate {idx} is negative")
        explicit[idx] = _union(u, f"{where}.explicit[{key}]")
    tail = _union(value.get("tail", [["0", "1"]]), f"{where}.tail")
    return Box.make(explicit, tail=tail)


def _sparse(value: Any, where: str) -> SparseVector:
    if not isinstance(value, dict):
        raise ProblemError(f"{where}: expected an object of coordinate -> rational")
    entries = {}
    for key, v in value.items():
        entries[_coordinate(key, entries, where)] = _rat(v, f"{where}[{key}]")
    return SparseVector.of(entries)


class Problem:
    """A parsed problem file: named sets, functions, and configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ProblemError("top level: expected a JSON object")
        self.raw = raw
        self.sets: Dict[str, BoxUnion] = {}
        for name, value in self._section("sets"):
            boxes = value if isinstance(value, list) else [value]
            self.sets[name] = BoxUnion.of(
                *[_box(b, f"sets.{name}[{k}]") for k, b in enumerate(boxes)]
            )
        self.functions: Dict[str, Expr] = {}
        for name, value in self._section("functions"):
            self.functions[name] = self._expr(value, f"functions.{name}")
        self.anchors: Dict[str, Anchor] = {}
        for name, value in self._section("anchors"):
            value = _object(value, f"anchors.{name}")
            self.anchors[name] = Anchor(
                entries=_sparse(value.get("entries", {}), f"anchors.{name}.entries")
            )
        self.splits: Dict[str, CoordinateSplit] = {}
        for name, value in self._section("splits"):
            where = f"splits.{name}"
            _object(value, where)
            try:
                self.splits[name] = CoordinateSplit(
                    kind=value.get("kind", "finite"),
                    indices=tuple(value.get("indices", ())),
                )
            except ValueError as exc:
                raise ProblemError(f"{where}: {exc}")
        self.schedules: Dict[str, LimitSchedule] = {}
        for name, value in self._section("schedules"):
            self.schedules[name] = _schedule_from_dict(value, f"schedules.{name}")

    def _section(self, key: str):
        """The (name, value) entries of a top-level section of named items."""
        return _object(self.raw.get(key) or {}, key).items()

    def set_union(self, name: str, where: str = "") -> BoxUnion:
        return _lookup(self.sets, "set", name, where)

    def function(self, name: str, where: str = "") -> Expr:
        return _lookup(self.functions, "function", name, where)

    def _region(self, value: Any, where: str) -> BoxUnion:
        if isinstance(value, str):
            return self.set_union(value, where)
        boxes = value if isinstance(value, list) else [value]
        return BoxUnion.of(*[_box(b, f"{where}[{k}]") for k, b in enumerate(boxes)])

    def _expr(self, value: Any, where: str) -> Expr:
        if not isinstance(value, dict) or "op" not in value:
            raise ProblemError(f"{where}: expected an expression object with 'op'")
        op = value["op"]
        if op == "const":
            return Const(_rat(value.get("value", 0), f"{where}.value"))
        if op == "coord":
            idx = value.get("index")
            if not isinstance(idx, int) or idx < 0:
                raise ProblemError(f"{where}.index: expected a nonnegative integer")
            return Coord(idx)
        if op == "sum":
            return Sum(
                tuple(
                    self._expr(t, f"{where}.terms[{k}]")
                    for k, t in enumerate(_list(value, "terms", where))
                )
            )
        if op == "prod":
            return Prod(
                tuple(
                    self._expr(t, f"{where}.factors[{k}]")
                    for k, t in enumerate(_list(value, "factors", where))
                )
            )
        if op == "scale":
            return Scale(
                _rat(value.get("coef", 1), f"{where}.coef"),
                self._expr(value.get("arg"), f"{where}.arg"),
            )
        if op == "piecewise":
            idx = value.get("index")
            if not isinstance(idx, int) or idx < 0:
                raise ProblemError(f"{where}.index: expected a nonnegative integer")
            pieces = []
            for k, p in enumerate(_list(value, "pieces", where)):
                at = f"{where}.pieces[{k}]"
                p = _object(p, at)
                iu = _union(p.get("set"), f"{at}.set")
                coeffs = tuple(
                    _rat(c, f"{at}.coeffs[{j}]")
                    for j, c in enumerate(_list(p, "coeffs", at, ("1",)))
                )
                pieces.append((iu, coeffs))
            return Piecewise(idx, tuple(pieces))
        if op == "indicator":
            return Indicator(self._region(value.get("region"), f"{where}.region"))
        if op == "translate":
            return Translate(
                self._expr(value.get("arg"), f"{where}.arg"),
                _sparse(value.get("shift", {}), f"{where}.shift"),
            )
        if op == "clamp":
            return Clamp(
                self._expr(value.get("arg"), f"{where}.arg"),
                _rat(value.get("bound"), f"{where}.bound"),
            )
        if op == "abs":
            return Abs(self._expr(value.get("arg"), f"{where}.arg"))
        if op == "builtin":
            return _lookup(
                BUILTIN_FUNCTIONS, "builtin", value.get("name"), f"{where}.name"
            )()
        raise ProblemError(f"{where}: unknown op {op!r}")


def _schedule_from_dict(
    value: Any, where: str, base: LimitSchedule = DEFAULT_SCHEDULE, sep: str = "."
) -> LimitSchedule:
    """base with the keys of value applied; a key's location is where, sep
    and the key."""
    if not isinstance(value, dict):
        raise ProblemError(f"{where}: expected an object")
    kwargs: dict = dict(
        n_values=base.n_values,
        M_values=base.M_values,
        window=base.window,
        epsilon=base.epsilon,
    )

    def at(key: str) -> str:
        return f"{where}{sep}{key}"

    if "n_max" in value:
        n_max = _convert(int, value["n_max"], at("n_max"))
        kwargs["n_values"] = tuple(range(0, _capped(n_max + 1, at("n_max"))))
    if "n_values" in value:
        if not isinstance(value["n_values"], list):
            raise ProblemError(f"{at('n_values')}: expected a list of integers")
        kwargs["n_values"] = tuple(
            _convert(int, n, f"{at('n_values')}[{k}]")
            for k, n in enumerate(value["n_values"])
        )
    if "M_max_power" in value:
        power = _convert(int, value["M_max_power"], at("M_max_power"))
        count = _capped(power + 1, at("M_max_power"))
        kwargs["M_values"] = tuple(Fraction(2) ** k for k in range(0, count))
    if "M_values" in value:
        if not isinstance(value["M_values"], list):
            raise ProblemError(f"{at('M_values')}: expected a list of rationals")
        kwargs["M_values"] = tuple(
            _rat(m, f"{at('M_values')}[{k}]") for k, m in enumerate(value["M_values"])
        )
    if "epsilon" in value:
        kwargs["epsilon"] = _convert(float, value["epsilon"], at("epsilon"))
    if "window" in value:
        kwargs["window"] = _convert(int, value["window"], at("window"))
    try:
        return LimitSchedule(**kwargs)
    except ValueError as exc:
        raise ProblemError(f"{where}: {exc}")


def _schedule_from_flags(base: LimitSchedule, text: Optional[str]) -> LimitSchedule:
    """--schedule n_max=24,M_max_power=20,epsilon=1e-9,window=3"""
    if not text:
        return base
    spec: dict = {}
    for item in text.split(","):
        if "=" not in item:
            raise ProblemError(f"--schedule: expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in ("n_max", "M_max_power", "epsilon", "window"):
            raise ProblemError(f"--schedule: unknown key {key!r}")
        spec[key] = val.strip()
    return _schedule_from_dict(spec, "--schedule", base, sep=" ")


def _parse_cells(text: str) -> List[Cell]:
    """--cells '0:1;1:-1' is one cell; commas separate cells; 'origin' is
    the base cell."""
    cells = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("", "origin"):
            cells.append(Cell())
            continue
        entries = []
        for pair in chunk.split(";"):
            coord, _, step = pair.partition(":")
            try:
                entries.append((int(coord), int(step)))
            except ValueError:
                raise ProblemError(f"--cells: malformed entry {pair!r}")
        cells.append(Cell(base=LatticeVector(tuple(entries))))
    return cells


def _fmt(value: Any) -> Any:
    """Exact values render as rational strings; floats stay floats."""
    if value is None:
        return None
    if value == INF:
        return "inf"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return float(value)


def _slice_rows(rows) -> List[dict]:
    return [
        {"n": r.n, "M": _fmt(r.truncation), "value": _fmt(r.value)} for r in rows
    ]


def _result_record(result: IntegralResult, with_trace: bool = True) -> dict:
    rec = {
        "value": _fmt(result.value),
        "status": result.status,
        "absolute_integral": _fmt(result.absolute_integral),
        "cells": [
            {str(i): m for i, m in cell.base.entries} for cell in result.cells_used
        ],
        "warnings": list(result.warnings),
    }
    if with_trace:
        rec["trace"] = _slice_rows(result.trace)
    return rec


def _load_problem(path: str) -> Problem:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return Problem(raw)


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _exit_code_for(status: str) -> int:
    if status == "converged":
        return EXIT_OK
    if status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAILED


def cmd_measure(args) -> int:
    problem = _load_problem(args.file)
    u = problem.set_union(args.set)
    value = patch_measure(u)
    report = {
        "version": __version__,
        "command": "measure",
        "set": args.set,
        "measure": _fmt(value),
    }
    print(_fmt(value))
    if args.out:
        _emit(report, args.out)
    return EXIT_OK


def cmd_integrate(args) -> int:
    problem = _load_problem(args.file)
    f = problem.function(args.function)
    sched = DEFAULT_SCHEDULE
    if args.use_schedule:
        sched = _lookup(
            problem.schedules, "schedule", args.use_schedule, "--use-schedule"
        )
    sched = _schedule_from_flags(sched, args.schedule)
    if args.no_truncation:
        sched = sched.untruncated()
    if args.cells:
        cells = _parse_cells(args.cells)
        if len(cells) == 1:
            result = integrate_cell(f, cells[0], ZERO_ANCHOR, sched)
        else:
            result = integrate_global(f, sched, cells=cells)
    else:
        result = integrate_global(f, sched)
    report = {
        "version": __version__,
        "command": "integrate",
        "function": args.function,
        "no_truncation": bool(args.no_truncation),
        "schedule": {
            "n_values": list(sched.n_values),
            "M_values": [_fmt(m) for m in sched.M_values],
            "window": sched.window,
            "epsilon": sched.epsilon,
        },
        "result": _result_record(result, with_trace=not args.no_trace),
    }
    _emit(report, args.out)
    return _exit_code_for(result.status)


def cmd_slice_scan(args) -> int:
    problem = _load_problem(args.file)
    f = problem.function(args.function)
    anchor = ZERO_ANCHOR
    if args.anchor:
        anchor = _lookup(problem.anchors, "anchor", args.anchor, "--anchor")
    lo, _, hi = args.n.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ProblemError(f"--n: expected LO..HI, got {args.n!r}")
    if not 0 <= lo <= hi:
        raise ProblemError(f"--n: expected 0 <= LO <= HI, got {args.n!r}")
    n_values = tuple(range(lo, lo + _capped(hi - lo + 1, "--n")))
    M_values = []
    for item in (args.M or "inf").split(","):
        item = item.strip()
        M_values.append(INF if item in ("inf", "INF") else _rat(item, "--M"))
    table = _slice_rows(slice_scan(f, anchor, n_values, tuple(M_values)))
    report = {
        "version": __version__,
        "command": "slice-scan",
        "function": args.function,
        "table": table,
    }
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=["n", "M", "value"])
            writer.writeheader()
            writer.writerows(table)
    _emit(report, args.out)
    return EXIT_OK


def _run_verify_task(problem: Problem, task: Any, where: str) -> dict:
    if not isinstance(task, dict):
        raise ProblemError(f"{where}: expected a check object")
    kind = task.get("type")
    if kind == "invariance":
        name = _required(task, "function", where)
        f = problem.function(name, f"{where}.function")
        shift = _sparse(task.get("shift", {}), f"{where}.shift")
        rep = invariance_check(f, shift)
        return {
            "type": "invariance",
            "function": name,
            "direct": _fmt(rep.direct.value),
            "translated": _fmt(rep.translated.value),
            "difference": _fmt(rep.difference),
            "passed": rep.passed,
        }
    if kind == "fubini":
        name = _required(task, "function", where)
        f = problem.function(name, f"{where}.function")
        splits = [
            _lookup(problem.splits, "split", s, f"{where}.splits")
            for s in _list(task, "splits", where)
        ]
        rep = fubini_check(f, splits)
        return {
            "type": "fubini",
            "function": name,
            "rows": [
                {
                    "split": {"kind": r.split.kind, "indices": list(r.split.indices)},
                    "iterated": _fmt(r.iterated.value),
                    "direct": _fmt(r.direct.value),
                    "difference": _fmt(r.difference),
                    "consistent": r.consistent,
                }
                for r in rep.rows
            ],
            "passed": rep.passed,
        }
    if kind == "compatibility":
        first = _sparse(task.get("first", {}), f"{where}.first")
        second = _sparse(task.get("second", {}), f"{where}.second")
        samples = []
        for k, s in enumerate(_list(task, "samples", where)):
            u = problem._region(s, f"{where}.samples[{k}]")
            samples.extend(u.boxes)
        rep = compatibility_check(first, second, samples)
        return {
            "type": "compatibility",
            "rows": [
                {
                    "first": _fmt(r.measure_first),
                    "second": _fmt(r.measure_second),
                    "ok": r.ok,
                }
                for r in rep.rows
            ],
            "passed": rep.passed,
        }
    if kind == "expect-measure":
        name = _required(task, "set", where)
        u = problem.set_union(name, f"{where}.set")
        value = _required(task, "value", where)
        expected = INF if value in ("inf", "INF") else _rat(value, f"{where}.value")
        actual = patch_measure(u)
        return {
            "type": "expect-measure",
            "set": name,
            "expected": _fmt(expected),
            "actual": _fmt(actual),
            "passed": actual == expected,
        }
    raise ProblemError(f"{where}: unknown verify type {kind!r}")


def cmd_verify(args) -> int:
    problem = _load_problem(args.file)
    tasks = problem.raw.get("verify", [])
    if not isinstance(tasks, list):
        raise ProblemError("verify: expected a list of checks")
    results = [
        _run_verify_task(problem, task, f"verify[{k}]")
        for k, task in enumerate(tasks)
    ]
    passed = all(r.get("passed") for r in results)
    report = {
        "version": __version__,
        "command": "verify",
        "checks": results,
        "passed": passed,
    }
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfmeasure",
        description="Exact measures and limit-scheme integrals on the "
        "infinite-dimensional cube lattice.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure of a named set")
    p.add_argument("set")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("integrate", help="integral of a named function")
    p.add_argument("function")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--no-truncation", action="store_true")
    p.add_argument("--schedule", help="k=v overrides: n_max, M_max_power, epsilon, window")
    p.add_argument("--use-schedule", help="named schedule from the problem file")
    p.add_argument("--cells", help="cells as 'coord:step;...' joined by commas, or 'origin'")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("slice-scan", help="(n, M) slice-integral table")
    p.add_argument("function")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--n", required=True, help="range LO..HI")
    p.add_argument("--M", help="comma list of bounds, 'inf' allowed (default inf)")
    p.add_argument("--anchor", help="named anchor from the problem file")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_slice_scan)

    p = sub.add_parser("verify", help="run the file's verification suite")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def _detach_stdout() -> None:
    """The reader closed stdout early (``| head``): point the descriptor at
    the null device so the interpreter's final flush cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind stdout, so nothing flushes it at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our convention
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # surface a closed pipe here, not at interpreter exit
        return code
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_OK
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LinfMeasureError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
