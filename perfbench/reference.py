"""Expected results for every spec, computed without the library.

Values come from hand-derived closed forms, the paper's 0/1/infinity tail
law and the independent oracles in ``tests/oracles.py``; this module never
imports ``linfmeasure``.  Each function returns the same JSON-ready summary
that ``tasks.py`` extracts from the library's output, so a task passes
exactly when the two are equal.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from math import floor
from pathlib import Path

from oracles import (
    INF,
    box_measure_oracle,
    inclusion_exclusion_volume,
    spike_slice_truncated,
    spike_slice_untruncated,
    spike_support_slice_volume,
)
from specs import PROBLEM_FILE, SCAN_N_MAX, cell_key, fmt

# the library's documented default limit schedule: every n up to 24, then
# every other n up to 60, against the bounds 2^0 .. 2^20
DEFAULT_N = tuple(range(0, 25)) + tuple(range(26, 61, 2))
DEFAULT_M = tuple(F(2) ** k for k in range(21))


def expected(spec: dict, root: Path):
    return globals()["_" + spec["kind"]](spec, root)


# ---------------------------------------------------------------------------
# spike-limit: the N-slice of s * spike truncated at M is s times the
# unscaled slice truncated at M / s


def _spike_value(scale: F, n: int, bound) -> F:
    if bound is None:
        return scale * spike_slice_untruncated(n)
    return scale * spike_slice_truncated(n, bound / scale)


def _spike_global(spec, root):
    s = spec["scale"]
    trace = {
        f"{n}@{m}": fmt(_spike_value(s, n, m)) for m in DEFAULT_M for n in DEFAULT_N
    }
    return {
        "status": "converged",
        "value": trace[f"{DEFAULT_N[-1]}@{DEFAULT_M[-1]}"],
        "cells": [cell_key((c, -v) for c, v in spec["shift"].items())],
        "trace": trace,
    }


def _spike_slice(spec, root):
    return {"value": fmt(_spike_value(spec["scale"], spec["n"], spec["M"]))}


def _support_scan(spec, root):
    s = spec["scale"]
    return {"values": [fmt(s * spike_support_slice_volume(n)) for n in range(spec["n_max"] + 1)]}


# ---------------------------------------------------------------------------
# box unions


def _length(interval) -> F:
    lo, hi = interval
    return hi - lo


def tail_law_measure(boxes: list):
    """Union measure by the tail law: null boxes drop out, a box of infinite
    measure makes the union infinite, and boxes whose unit tails differ meet
    in a tail shorter than 1, so the measure is a sum over tail classes."""
    classes: dict = {}
    for b in boxes:
        m = box_measure_oracle([_length(i) for i in b["explicit"].values()], _length(b["tail"]))
        if m == INF:
            return INF
        if m != 0:
            classes.setdefault(b["tail"], []).append(b)
    total = F(0)
    for (lo, _), members in classes.items():
        # shift the class so its tail is [0, 1], the oracle's default for
        # coordinates a box leaves unconstrained
        shifted = [
            {c: (a - lo, z - lo) for c, (a, z) in b["explicit"].items()} for b in members
        ]
        coords = sorted(set().union(*shifted))
        total += inclusion_exclusion_volume(shifted, coords)
    return total


def _disjoint_measure(boxes: list):
    """Sum of box measures, after checking that the boxes' coordinate-0
    intervals are pairwise disjoint (inclusion-exclusion over 200 boxes is
    out of reach)."""
    slots = sorted(b["explicit"][0] for b in boxes)
    if any(prev[1] >= nxt[0] for prev, nxt in zip(slots, slots[1:])):
        raise ValueError("boxes marked disjoint overlap on coordinate 0")
    total = F(0)
    for b in boxes:
        total += box_measure_oracle([_length(i) for i in b["explicit"].values()], _length(b["tail"]))
    return total


def _union_measure(spec, root):
    if spec.get("disjoint"):
        return {"value": fmt(_disjoint_measure(spec["boxes"]))}
    return {"value": fmt(tail_law_measure(spec["boxes"]))}


def _windows(interval) -> list:
    """(cell index, piece) pairs of an interval with non-integer endpoints."""
    lo, hi = interval
    return [(m, (max(lo, F(m)), min(hi, F(m + 1)))) for m in range(floor(lo), floor(hi) + 1)]


def _cell_pieces(box: dict) -> list:
    """(cell key, piece volume) for every cell a unit-tail box meets."""
    out = [((), F(1))]
    for c, interval in sorted(box["explicit"].items()):
        out = [
            (key + ((c, m),), vol * _length(piece))
            for key, vol in out
            for m, piece in _windows(interval)
        ]
    return [(cell_key(key), vol) for key, vol in out]


def _cells(spec, root):
    decompose: dict = {}
    for b in spec["boxes"]:
        for key, vol in _cell_pieces(b):
            decompose[key] = decompose.get(key, F(0)) + vol
    return {
        "patch": fmt(tail_law_measure(spec["boxes"])),
        "decompose": {k: fmt(v) for k, v in decompose.items()},
        "sigma": sorted(decompose),
        "nz": _nz_members(spec),
    }


def _nz_members(spec) -> list:
    """Cells z of the window where the set shifted by -t keeps more than
    delta of its mass: clip every box to z's cell and take the union volume."""
    shift = spec["shift"]
    members = []
    for z in spec["window"]:
        coords = sorted(set(shift) | set(z) | {c for b in spec["boxes"] for c in b["explicit"]})
        clipped = []
        for b in spec["boxes"]:
            box = {}
            for c in coords:
                lo, hi = b["explicit"].get(c, b["tail"])
                t, m = shift.get(c, F(0)), z.get(c, 0)
                box[c] = (max(lo - t, F(m)), min(hi - t, F(m + 1)))
            clipped.append(box)
        if inclusion_exclusion_volume(clipped, coords) > spec["delta"]:
            members.append(cell_key(z.items()))
    return sorted(members)


# ---------------------------------------------------------------------------
# cylinder-verify: closed-form integrals of the small functions


def cylinder_integral(fn: dict) -> F:
    if fn["family"] == "prod":
        value = F(1)
        for _, interval, height in fn["factors"]:
            value *= height * _length(interval)
        return value
    return fn["coef"] * tail_law_measure(fn["boxes"])


def _cylinder(spec, root):
    value = fmt(cylinder_integral(spec["function"]))
    return {
        "integrate": {"status": "converged", "value": value},
        "invariance": {"passed": True, "direct": value, "translated": value, "difference": "0"},
        "fubini": {"passed": True, "rows": [[value, value]] * 3},
    }


def _slice_stages(spec, root):
    # the spike's terms sit on pairwise disjoint boxes and every untruncated
    # slice integrates to exactly 1
    return {"disjoint": True, "untruncated": fmt(spike_slice_untruncated(spec["n"]))}


# ---------------------------------------------------------------------------
# cli-basics: the problem file's sets and checks, and closed forms for its
# functions


def _set_measure(raw: dict):
    def length(intervals):
        return sum((F(hi) - F(lo) for lo, hi in intervals), F(0))

    return box_measure_oracle(
        [length(iv) for iv in raw["explicit"].values()], length(raw["tail"])
    )


def _indicator_measure(problem: dict, name: str):
    fn = problem["functions"][name]
    if fn.get("op") != "indicator" or not isinstance(fn.get("region"), str):
        raise ValueError(f"no closed form for function {name!r}")
    return _set_measure(problem["sets"][fn["region"]])


def _verify_check(problem: dict, task: dict) -> dict:
    kind = task["type"]
    if kind == "expect-measure":
        actual = _set_measure(problem["sets"][task["set"]])
        return {
            "type": kind, "set": task["set"], "expected": fmt(F(task["value"])),
            "actual": fmt(actual), "passed": actual == F(task["value"]),
        }
    if kind == "invariance":
        value = fmt(_indicator_measure(problem, task["function"]))
        return {
            "type": kind, "function": task["function"], "direct": value,
            "translated": value, "difference": "0", "passed": True,
        }
    if kind == "fubini":
        value = fmt(_indicator_measure(problem, task["function"]))
        rows = []
        for name in task["splits"]:
            split = problem["splits"][name]
            rows.append({
                "split": {"kind": split["kind"], "indices": split.get("indices", [])},
                "iterated": value, "direct": value, "difference": "0", "consistent": True,
            })
        return {"type": kind, "function": task["function"], "rows": rows, "passed": True}
    if kind == "compatibility":
        rows = []
        for name in task["samples"]:
            m = fmt(_set_measure(problem["sets"][name]))
            rows.append({"first": m, "second": m, "ok": True})
        return {"type": kind, "rows": rows, "passed": True}
    raise ValueError(f"no reference for verify type {kind!r}")


# integral of x0 * x1 over the unit cell
XY_INTEGRAL = F(1, 4)


def _cli(spec, root):
    problem = json.loads((root / PROBLEM_FILE).read_text())
    command, args = spec["argv"][0], spec["argv"][1:]
    if command == "measure":
        return {"exit": 0, "stdout": fmt(_set_measure(problem["sets"][args[0]]))}
    if command == "verify":
        checks = [_verify_check(problem, t) for t in problem["verify"]]
        return {"exit": 0, "passed": True, "checks": checks}
    if command == "integrate" and args[0] == "xy":
        return {"exit": 0, "status": "converged", "value": fmt(XY_INTEGRAL)}
    if command == "integrate" and args[0] == "spike":
        # the quick schedule stops at n = 12, too early for the spike's |f|
        # limit to settle, so the run is inconclusive (exit code 3)
        return {"exit": 3, "status": "inconclusive", "value": None}
    if command == "slice-scan":
        rows = [[n, fmt(m), fmt(spike_slice_truncated(n, m))]
                for m in (F(2), F(100)) for n in range(SCAN_N_MAX + 1)]
        rows += [[n, "inf", fmt(spike_slice_untruncated(n))] for n in range(SCAN_N_MAX + 1)]
        return {"exit": 0, "rows": rows}
    raise ValueError(f"no reference for command {spec['argv']!r}")


def _cli_inprocess(spec, root):
    return _cli(spec, root)
