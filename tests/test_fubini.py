from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfmeasure.boxes import Box, BoxUnion, unit_cell
from linfmeasure.errors import SplitUnsupported
from linfmeasure.exprs import coord, indicator, mul, scale
from linfmeasure.fubini import (
    CoordinateSplit,
    box_split_measures,
    fubini_check,
    iterated_integrate,
)
from linfmeasure.intervals import INF
from linfmeasure.library import spike_series
from linfmeasure.limits import LimitSchedule

QUICK = LimitSchedule(
    n_values=tuple(range(0, 31)),
    M_values=tuple(Fraction(2) ** k for k in range(0, 7)),
)

V0 = CoordinateSplit("finite", (0,))
EVEN = CoordinateSplit("even")
ODD = CoordinateSplit("odd")
EMPTY = CoordinateSplit("finite", ())

XY_CELL = mul(coord(0), coord(1), indicator(BoxUnion.of(unit_cell())))


def test_split_validation():
    with pytest.raises(ValueError):
        CoordinateSplit("primes")
    with pytest.raises(ValueError):
        CoordinateSplit("even", (2,))
    assert EVEN.v_contains(4) and not EVEN.v_contains(3)
    assert ODD.v_contains(3) and not ODD.v_contains(4)
    assert EMPTY.is_empty and not V0.is_empty


def test_box_product_law_simple():
    b = Box.make({0: (0, Fraction(1, 2)), 1: (0, Fraction(3, 4))})
    m = box_split_measures(b, V0)
    assert m.v_measure == Fraction(1, 2)
    assert m.w_measure == Fraction(3, 4)
    assert m.product == b.measure() == Fraction(3, 8)


def test_box_product_law_null_tail():
    b = Box.make({0: (0, Fraction(1, 2))}, tail=(0, Fraction(1, 3)))
    m = box_split_measures(b, EVEN)
    assert m.product == b.measure() == 0


def test_box_product_law_zero_times_infinity():
    b = Box.make({0: (Fraction(1, 2), Fraction(1, 2))}, tail=(0, 2))
    m = box_split_measures(b, V0)
    assert m.product == b.measure() == 0


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def boxes_and_splits(draw):
    coords = draw(st.lists(st.integers(0, 5), max_size=3, unique=True))
    explicit = {}
    for c in coords:
        lo, hi = sorted((draw(unit_rationals), draw(unit_rationals)))
        explicit[c] = (lo, hi)
    split = draw(
        st.one_of(
            st.just(EVEN),
            st.just(ODD),
            st.builds(
                lambda idx: CoordinateSplit("finite", tuple(idx)),
                st.lists(st.integers(0, 5), max_size=3, unique=True),
            ),
        )
    )
    return Box.make(explicit), split


@given(boxes_and_splits())
@settings(max_examples=80, deadline=None)
def test_box_product_law_property(bs):
    b, split = bs
    assert box_split_measures(b, split).product == b.measure()


def test_iterated_separable_quarter():
    for split in (V0, EVEN, ODD):
        r = iterated_integrate(XY_CELL, split, sched=QUICK, assume_integrable=True)
        assert r.status == "converged"
        assert r.value == Fraction(1, 4)


def test_iterated_empty_split_delegates_to_direct():
    r = iterated_integrate(XY_CELL, EMPTY, sched=QUICK)
    assert r.status == "converged" and r.value == Fraction(1, 4)


def test_iterated_spike_is_zero_exactly():
    # every spike term has its tail pinned to a length-1/3 set, so each side
    # of the split annihilates it: the iterated value is exactly 0
    for split in (V0, EVEN, ODD):
        r = iterated_integrate(spike_series(), split, sched=QUICK)
        assert r.status == "converged"
        assert r.value == 0


def test_iterated_runs_integrability_first():
    f = indicator(BoxUnion.of(Box.make({}, tail=(0, 2))))
    r = iterated_integrate(f, V0, sched=QUICK)
    assert r.status == "not-integrable"
    assert r.value is None


def test_free_polynomial_split_unsupported():
    with pytest.raises(SplitUnsupported):
        iterated_integrate(coord(0), EVEN, sched=QUICK, assume_integrable=True)


def test_fubini_check_separable_passes():
    rep = fubini_check(XY_CELL, [V0, EVEN, ODD, EMPTY], sched=QUICK)
    assert rep.passed
    assert all(row.consistent for row in rep.rows)
    assert all(
        row.difference == 0 for row in rep.rows if row.difference is not None
    )


def test_fubini_check_spike_passes_within_tolerance():
    rep = fubini_check(spike_series(), [V0, EVEN], sched=QUICK)
    assert rep.passed
    for row in rep.rows:
        assert row.direct.status == "converged"
        assert row.iterated.value == 0
        assert float(row.difference) < rep.tolerance


def test_fubini_check_consistent_on_non_integrable():
    f = indicator(BoxUnion.of(Box.make({}, tail=(0, 2))))
    rep = fubini_check(f, [V0, EVEN], sched=QUICK)
    assert rep.passed  # consistency, not convergence: both sides agree
    for row in rep.rows:
        assert row.direct.status == "not-integrable"
        assert row.iterated.status == "not-integrable"
        assert row.difference is None


def test_fubini_check_unsupported_split_reported_not_raised():
    f = mul(coord(0), indicator(BoxUnion.of(unit_cell())))
    rep = fubini_check(f, [V0], sched=QUICK)
    row = rep.rows[0]
    assert row.direct.status == "converged" and row.direct.value == Fraction(1, 2)
    # splitting x0 * cell over V = {0} is supported (poly times indicator)
    assert row.iterated.value == Fraction(1, 2)
    assert rep.passed


def test_scaled_sum_iterated_linearity():
    f = scale(3, XY_CELL)
    r = iterated_integrate(f, V0, sched=QUICK, assume_integrable=True)
    assert r.value == Fraction(3, 4)


def test_product_meets_both_tails():
    # 1{x0 in [0,1/2], every other x_i in [0,2]} * 1{every x_i in [0,1]} is
    # the indicator of a box with tail [0,1], of measure 1/2
    wide = indicator(Box.make({0: (0, Fraction(1, 2))}, tail=(0, 2)))
    f = mul(wide, indicator(BoxUnion.of(unit_cell())))
    for split in (V0, EVEN, ODD):
        result = iterated_integrate(f, split, QUICK, assume_integrable=True)
        assert result.value == Fraction(1, 2)
