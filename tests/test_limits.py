import sys
from fractions import Fraction
from pathlib import Path

import pytest

from linfmeasure.boxes import Box, BoxUnion, SparseVector, unit_cell
from linfmeasure.cells import Cell
from linfmeasure.errors import UnknownSupport
from linfmeasure.exprs import Anchor, const, coord, indicator, mul
from linfmeasure.intervals import INF, Interval
from linfmeasure.library import spike_series, spike_support_indicator
from linfmeasure.limits import (
    DEFAULT_SCHEDULE,
    IntegralResult,
    InvarianceReport,
    LimitSchedule,
    MAX_SCHEDULE_VALUES,
    integrability_check,
    integrate_cell,
    integrate_global,
    invariance_check,
    slice_scan,
)
from linfmeasure.exprs import Piecewise

sys.path.insert(0, str(Path(__file__).parent))
from oracles import spike_slice_truncated, spike_truncation_threshold

# a small schedule that still clears the spike truncation thresholds for
# every bound it visits (threshold(2^6) = 8, far below n = 30)
QUICK = LimitSchedule(
    n_values=tuple(range(0, 31)),
    M_values=tuple(Fraction(2) ** k for k in range(0, 7)),
)

XY_CELL = mul(coord(0), coord(1), indicator(BoxUnion.of(unit_cell())))


def test_schedule_validation():
    with pytest.raises(ValueError):
        LimitSchedule(n_values=())
    with pytest.raises(ValueError):
        LimitSchedule(n_values=(3, 1, 2))
    with pytest.raises(ValueError):
        LimitSchedule(M_values=(Fraction(4), Fraction(2)))
    with pytest.raises(ValueError):
        LimitSchedule(n_values=(-1, 0, 1))
    with pytest.raises(ValueError):
        LimitSchedule(n_values=range(0, MAX_SCHEDULE_VALUES + 1))
    with pytest.raises(ValueError):
        LimitSchedule(M_values=range(1, MAX_SCHEDULE_VALUES + 2))
    with pytest.raises(ValueError):
        LimitSchedule(window=1)
    with pytest.raises(ValueError):
        LimitSchedule(epsilon=0)


def test_unit_cell_indicator_integrates_to_one():
    r = integrate_cell(indicator(BoxUnion.of(unit_cell())), sched=QUICK)
    assert r.status == "converged"
    assert r.value == 1
    assert isinstance(r.value, Fraction)


def test_cylinder_function_exact_quarter():
    r = integrate_global(XY_CELL, sched=QUICK)
    assert r.status == "converged"
    assert r.value == Fraction(1, 4)
    # |f| is not piecewise-constant, so the report carries the structural
    # upper bound (sup |f| = 1 on one cell) instead of the exact |f| integral
    assert r.absolute_integral == 1


def test_spike_truncated_double_limit_is_zero():
    r = integrate_global(spike_series(), sched=QUICK)
    assert r.status == "converged"
    assert abs(r.value) < 1e-9
    # the limit along the schedule is an exact tiny rational, not a float 0
    assert r.value == spike_slice_truncated(30, Fraction(2) ** 6)


def test_spike_untruncated_limit_is_one():
    # without magnitude truncation the slice limit reports 1, not the
    # integral: the mass escapes to infinity along the slices
    r = integrate_cell(spike_series(), sched=QUICK.untruncated())
    assert r.status == "converged"
    assert r.value == 1
    assert any("untruncated" in w for w in r.warnings)


def test_spike_is_integrable_with_null_support():
    rep = integrability_check(spike_series(), sched=QUICK)
    assert rep.verdict == "integrable"
    assert len(rep.cells) == 1 and rep.cells[0] == Cell()
    assert abs(rep.absolute_integral) < 1e-9


def test_support_indicator_integrates_to_zero_exactly():
    # slice values (2/3)^{n+1} decay slowly: at n = 30 the successive
    # differences still exceed epsilon, so a short schedule stays inconclusive
    assert integrate_global(spike_support_indicator(), sched=QUICK).status == (
        "inconclusive"
    )
    deep = LimitSchedule(
        n_values=tuple(range(0, 61, 3)), M_values=(Fraction(2), Fraction(4))
    )
    r = integrate_global(spike_support_indicator(), sched=deep)
    assert r.status == "converged"
    assert abs(r.value) < 1e-9 and r.value == Fraction(2, 3) ** 61


def test_wide_tail_support_not_integrable():
    f = indicator(BoxUnion.of(Box.make({}, tail=(0, 2))))
    r = integrate_global(f, sched=QUICK)
    assert r.status == "not-integrable"
    assert r.value is None


def test_multi_cell_box_measure_three():
    f = indicator(BoxUnion.of(Box.make({0: (0, 3)})))
    r = integrate_global(f, sched=QUICK)
    assert r.status == "converged"
    assert r.value == 3
    assert len(r.cells_used) == 3


def test_unknown_support_requires_explicit_cells():
    with pytest.raises(UnknownSupport):
        integrate_global(const(1), sched=QUICK)
    # with explicit cells the same function integrates fine
    r = integrate_global(const(1), sched=QUICK, cells=[Cell()])
    assert r.status == "converged" and r.value == 1


def test_invariance_under_fractional_shift():
    rep = invariance_check(XY_CELL, SparseVector.of({0: Fraction(1, 2)}), sched=QUICK)
    assert rep.passed
    assert rep.difference == 0
    assert rep.tolerance == 2 * QUICK.epsilon


def test_invariance_for_spike():
    rep = invariance_check(
        spike_series(), SparseVector.of({0: Fraction(1, 3)}), sched=QUICK
    )
    assert rep.passed
    assert abs(rep.difference) < 1e-9


def test_invariance_report_judges_difference_against_its_tolerance():
    shift = SparseVector.of({0: Fraction(1, 2)})
    direct = IntegralResult(value=Fraction(1), status="converged")
    moved = IntegralResult(value=Fraction(1, 2), status="converged")
    rep = InvarianceReport(shift, direct, moved, Fraction(1, 2), tolerance=1e-9)
    assert rep.passed is False
    loose = InvarianceReport(shift, direct, moved, Fraction(1, 2), tolerance=1.0)
    assert loose.passed is True


def test_anchor_independence_of_spike_limit():
    # any anchor inside the low third leaves every slice value unchanged
    base = integrate_cell(spike_series(), sched=QUICK)
    moved = integrate_cell(
        spike_series(), anchor=Anchor(entries=SparseVector.of({2: Fraction(1, 4)})),
        sched=QUICK,
    )
    assert moved.status == base.status == "converged"
    assert moved.value == base.value


def _staircase():
    """Value 2^{k+1} on (2^-(k+1), 2^-k]: every rung has |f| integral 1, so
    the function is not integrable on the unit cell."""
    pieces = tuple(
        (
            Interval(Fraction(1, 2 ** (k + 1)), Fraction(1, 2**k), False, True),
            (Fraction(2 ** (k + 1)),),
        )
        for k in range(0, 24)
    )
    return mul(Piecewise(0, pieces), indicator(BoxUnion.of(unit_cell())))


def test_staircase_diverges():
    f = _staircase()
    r = integrate_cell(f, sched=DEFAULT_SCHEDULE)
    assert r.status == "diverged"
    rep = integrability_check(f, sched=DEFAULT_SCHEDULE)
    assert rep.verdict == "not-integrable"


def test_inner_plateau_is_not_mistaken_for_convergence():
    # at M = 2^6 the spike slices sit at exactly 1 for all n <= 8 before
    # collapsing; a schedule that stops at n = 8 must not report that plateau
    short = LimitSchedule(
        n_values=tuple(range(0, 9)), M_values=(Fraction(2) ** 6,)
    )
    r = integrate_cell(spike_series(), sched=short)
    assert r.value == 1  # the misleading plateau value...
    assert spike_truncation_threshold(Fraction(2) ** 6) == 8
    long = LimitSchedule(n_values=tuple(range(0, 31)), M_values=(Fraction(2) ** 6,))
    r2 = integrate_cell(spike_series(), sched=long)
    assert r2.status == "converged" and abs(r2.value) < 1e-6


def test_slice_scan_monotone_in_truncation():
    bounds = [Fraction(2) ** k for k in range(0, 8)]
    rows = slice_scan(spike_series(), n_values=range(0, 12), M_values=bounds)
    by_n = {}
    for row in rows:
        by_n.setdefault(row.n, []).append((row.truncation, row.value))
    for n, entries in by_n.items():
        values = [v for _, v in sorted(entries, key=lambda t: t[0])]
        assert values == sorted(values)  # nonnegative f: monotone in M
        for (M, v) in entries:
            assert v == spike_slice_truncated(n, M)


def test_trace_records_every_pair():
    sched = LimitSchedule(n_values=(0, 1, 2, 3, 4), M_values=(Fraction(2), Fraction(4)))
    r = integrate_cell(XY_CELL, sched=sched)
    assert len(r.trace) == 10
    assert {(t.n, t.truncation) for t in r.trace} == {
        (n, M) for n in range(5) for M in (Fraction(2), Fraction(4))
    }
