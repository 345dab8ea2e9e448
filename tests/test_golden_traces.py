"""Every (n, M, value) trace row of integrate_global, checked for exact
equality against a fixture recorded before slices were shared past a
function's horizon and across saturated truncation bounds.  Where the
global run keeps no rows (the spike is inconclusive on the quick schedule,
the [1/3, 4/3] tail is not sigma-finite), the origin cell's integrate_cell
rows are recorded as well.

The fixture was written by running this file as a script against that
earlier version of the library:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from linfmeasure.boxes import Box, BoxUnion, unit_cell
from linfmeasure.exprs import coord, indicator, mul, piecewise_const, scale
from linfmeasure.intervals import INF
from linfmeasure.library import spike_series
from linfmeasure.limits import (
    DEFAULT_SCHEDULE,
    LimitSchedule,
    integrate_cell,
    integrate_global,
)

FIXTURE = Path(__file__).parent / "data" / "golden_traces.json"

# the "quick" schedule of problems/basics.json: n_max 12, M_max_power 6
QUICK = LimitSchedule(
    n_values=tuple(range(0, 13)),
    M_values=tuple(Fraction(2) ** k for k in range(0, 7)),
)
SCHEDULES = {"default": DEFAULT_SCHEDULE, "quick": QUICK}

F = Fraction
UNIT = BoxUnion.of(unit_cell())


def _functions() -> dict:
    return {
        # one box on two coordinates, scaled
        "box": scale(F(-3, 2), indicator(Box.make({0: (F(1, 4), F(3, 4)), 2: (F(1, 3), 1)}))),
        # a product of step factors on the unit cell
        "prod": mul(
            indicator(UNIT),
            piecewise_const(0, [((F(1, 6), F(2, 3)), F(5, 2))]),
            piecewise_const(1, [((0, F(1, 2)), F(-1, 3))]),
        ),
        # two boxes overlapping on one coordinate
        "union1": scale(2, indicator(BoxUnion.of(
            Box.make({1: (F(1, 12), F(7, 12))}),
            Box.make({1: (F(1, 3), F(5, 6))}),
        ))),
        # two boxes overlapping on two coordinates
        "union2": scale(F(-1, 3), indicator(BoxUnion.of(
            Box.make({0: (F(1, 12), F(1, 2)), 1: (F(1, 6), F(2, 3))}),
            Box.make({0: (F(1, 4), F(3, 4)), 1: (F(1, 3), F(11, 12))}),
        ))),
        # support straddles the cells at 0 and 1 on coordinate 0, so the
        # second cell slices with a nonzero origin
        "shifted-cell": mul(coord(0), indicator(Box.make({0: (F(1, 2), F(3, 2)), 1: (0, F(1, 2))}))),
        # a tail of length 1 that is not [0,1]
        "tail-third": indicator(Box.make({0: (0, F(1, 2))}, tail=(F(1, 3), F(4, 3)))),
        # a null tail holding 0: every slice constrains one more coordinate
        "tail-half": indicator(Box.make({0: (F(1, 4), 1)}, tail=(0, F(1, 2)))),
        "spike": spike_series(),
    }


CASES = [
    f"{name}/{sched}"
    for name in ("box", "prod", "union1", "union2", "shifted-cell", "tail-third")
    for sched in ("default", "quick")
] + [
    "spike/quick",
    "tail-third/default/origin-cell",
    "tail-half/default/origin-cell",
    "spike/quick/origin-cell",
]


def _fmt(value):
    if value is None:
        return None
    if value == INF:
        return "inf"
    return str(value) if isinstance(value, Fraction) else repr(value)


def record(case: str) -> dict:
    name, sched, *cell = case.split("/")
    f, schedule = _functions()[name], SCHEDULES[sched]
    r = integrate_cell(f, sched=schedule) if cell else integrate_global(f, schedule)
    return {
        "status": r.status,
        "value": _fmt(r.value),
        "absolute_integral": _fmt(r.absolute_integral),
        "trace": [[t.n, _fmt(t.truncation), _fmt(t.value)] for t in r.trace],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden_trace(golden, case):
    assert record(case) == golden[case]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(case)}: {json.dumps(record(case))}" for case in CASES]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    sys.exit(0)
