from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfmeasure.boxes import Box, BoxUnion, SparseVector, union_measure, unit_cell
from linfmeasure.cells import ORIGIN_CELL
from linfmeasure.errors import SeriesNotSummable
from linfmeasure.exprs import (
    Abs,
    Anchor,
    Clamp,
    Coord,
    Const,
    Indicator,
    Piecewise,
    Scale,
    Series,
    Sum,
    UNKNOWN,
    add,
    const,
    coord,
    evaluate,
    indicator,
    mul,
    piecewise_const,
    scale,
    slice_function,
    sub,
    support,
    translate,
)
from linfmeasure.intervals import Interval, IntervalUnion
from linfmeasure.limits import integrate_global
from linfmeasure.library import (
    THIRDS_UNION,
    spike_series,
    spike_support_box,
    spike_support_indicator,
)


def test_evaluate_arithmetic_nodes():
    f = add(scale(2, coord(0)), mul(coord(1), coord(1)), const("1/4"))
    p = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert evaluate(f, p) == 1 + Fraction(1, 9) + Fraction(1, 4)
    assert evaluate(sub(coord(0), coord(1)), p) == Fraction(1, 6)


def test_evaluate_defaults_to_zero_beyond_support():
    assert evaluate(coord(17), {0: Fraction(1, 2)}) == 0


def test_piecewise_polynomial_evaluation():
    # x^2 on [0,1/2], constant 2 on (1/2,1], zero elsewhere
    f = Piecewise(
        0,
        (
            (Interval.closed(0, Fraction(1, 2)), (0, 0, 1)),
            (Interval(Fraction(1, 2), Fraction(1), False, True), (2,)),
        ),
    )
    assert evaluate(f, {0: Fraction(1, 3)}) == Fraction(1, 9)
    assert evaluate(f, {0: Fraction(3, 4)}) == 2
    assert evaluate(f, {0: Fraction(3, 2)}) == 0


def test_indicator_evaluation():
    f = indicator(BoxUnion.of(Box.make({0: (0, Fraction(1, 2))})))
    assert evaluate(f, {0: Fraction(1, 4)}) == 1
    assert evaluate(f, {0: Fraction(3, 4)}) == 0
    # tail constraint: the all-zero point sits inside [0,1]^inf
    assert evaluate(indicator(BoxUnion.of(unit_cell())), {}) == 1


def test_translate_evaluation():
    f = translate(coord(0), SparseVector.of({0: Fraction(1, 2)}))
    assert evaluate(f, {0: Fraction(1, 4)}) == Fraction(3, 4)


def test_clamp_and_abs():
    f = Clamp(scale(-3, coord(0)), Fraction(2))
    assert evaluate(f, {0: Fraction(1, 2)}) == Fraction(-3, 2)
    assert evaluate(f, {0: Fraction(1)}) == 0  # |-3| > 2 truncated away
    assert evaluate(Abs(scale(-3, coord(0))), {0: Fraction(1, 2)}) == Fraction(3, 2)


def test_spike_pointwise_values():
    f = spike_series()
    assert evaluate(f, {}) == Fraction(3, 2)  # all-zero point hits the head
    assert evaluate(f, {0: Fraction(1, 2)}) == 0  # middle third kills everything
    # x1 in the high third selects term 1 with value 2 * 3/2 = 3
    assert evaluate(f, {1: Fraction(3, 4)}) == 3


def test_spike_term_values_grow_geometrically():
    f = spike_series()
    for n in range(1, 8):
        point = {n: Fraction(3, 4)}
        assert evaluate(f, point) == 2 * Fraction(3, 2) ** n


def test_series_without_cutoff_cannot_evaluate():
    s = Series(term=lambda n: const(1), start=1)
    with pytest.raises(SeriesNotSummable):
        evaluate(s, {})


def test_slice_freezes_later_coordinates_at_anchor():
    f = mul(coord(0), coord(5))
    anchor = Anchor(entries=SparseVector.of({5: Fraction(1, 3)}))
    s = slice_function(f, anchor, 2)
    assert s.dims == 3
    assert s.evaluate({0: Fraction(1, 2)}) == Fraction(1, 6)


def test_slice_applies_cell_origin_offset():
    f = indicator(BoxUnion.of(Box.make({0: (1, Fraction(3, 2))})))
    anchor = Anchor(cell_origin=SparseVector.of({0: 1}))
    s = slice_function(f, anchor, 0)
    # within the shifted cell the constraint becomes [0, 1/2]
    assert s.evaluate({0: Fraction(1, 4)}) == 1
    assert s.evaluate({0: Fraction(3, 4)}) == 0


def test_slice_drops_box_when_anchor_misses_constraint():
    region = BoxUnion.of(Box.make({0: (0, 1), 7: (Fraction(1, 2), 1)}))
    s = slice_function(indicator(region), Anchor(), 2)
    # coordinate 7 is pinned to 0, outside [1/2, 1]
    assert s.body == Const(Fraction(0))


def test_slice_piecewise_beyond_n_collapses_to_constant():
    f = piecewise_const(4, [((0, Fraction(1, 2)), Fraction(1, 4))])
    s = slice_function(f, Anchor(), 1)
    assert s.body == Const(Fraction(1, 4))  # anchor value 0 lands in the piece


def test_slice_spike_terms_vanish_beyond_cutoff():
    f = spike_series()
    s = slice_function(f, Anchor(), 3)
    # coordinates beyond 3 pinned at 0: term n > 3 needs x_n in [2/3,1], so
    # the sliced body only keeps finitely many live terms
    assert s.evaluate({}) == Fraction(3, 2)
    assert s.evaluate({2: Fraction(3, 4)}) == 2 * Fraction(3, 2) ** 2


def test_slice_series_without_cutoff_raises():
    s = Series(term=lambda n: const(0), start=1)
    with pytest.raises(SeriesNotSummable):
        slice_function(s, Anchor(), 2)


def test_support_of_indicator_and_products():
    f = mul(
        indicator(BoxUnion.of(Box.make({0: (0, Fraction(1, 2))}))),
        indicator(BoxUnion.of(Box.make({0: (Fraction(1, 4), 1)}))),
    )
    supp = support(f)
    assert supp is not UNKNOWN
    assert union_measure(supp) == Fraction(1, 4)


@pytest.mark.parametrize("cell_first", [True, False])
def test_support_of_a_product_meets_the_other_factors_tail(cell_first):
    # the step reads coordinate 0 on [0,3]; the unit cell's tail cuts it to [0,1]
    cell = indicator(BoxUnion.of(unit_cell()))
    step = piecewise_const(0, [((0, 3), 1)])
    f = mul(cell, step) if cell_first else mul(step, cell)
    assert support(f) == BoxUnion.of(unit_cell())
    result = integrate_global(f)
    assert result.value == 1
    assert result.cells_used == (ORIGIN_CELL,)


def test_support_of_spike_is_null():
    supp = support(spike_series())
    assert supp is not UNKNOWN
    assert union_measure(supp) == 0
    assert supp.boxes[0].tail == THIRDS_UNION


def test_support_indicator_matches_box():
    supp = support(spike_support_indicator())
    assert supp is not UNKNOWN
    assert supp == BoxUnion.of(spike_support_box()).simplify()


def test_support_unknown_for_bare_series():
    s = Series(term=lambda n: const(1), start=1)
    assert support(s) is UNKNOWN


def test_zero_scale_hides_a_bare_series():
    s = Series(term=lambda n: const(1), start=1)
    assert support(Scale(Fraction(0), s)) == BoxUnion(())


def test_support_of_translated_indicator():
    f = translate(
        indicator(BoxUnion.of(Box.make({0: (0, Fraction(1, 2))}))),
        SparseVector.of({0: Fraction(1, 4)}),
    )
    supp = support(f)
    assert supp is not UNKNOWN
    assert supp.boxes[0].constraint(0) == IntervalUnion.coerce(
        (Fraction(-1, 4), Fraction(1, 4))
    )


unit_points = st.dictionaries(
    st.integers(0, 5),
    st.fractions(min_value=0, max_value=1, max_denominator=9),
    max_size=4,
)


@given(unit_points)
@settings(max_examples=80, deadline=None)
def test_slice_agrees_with_direct_evaluation(point):
    f = spike_series()
    n = 5
    s = slice_function(f, Anchor(), n)
    assert s.evaluate(point) == evaluate(f, point)


@given(
    unit_points,
    st.fractions(min_value=-1, max_value=1, max_denominator=6),
)
@settings(max_examples=80, deadline=None)
def test_translate_matches_shifted_point(point, t):
    f = add(scale(2, coord(0)), mul(coord(1), coord(0)))
    shifted = translate(f, SparseVector.of({0: t}))
    moved = dict(point)
    moved[0] = point.get(0, Fraction(0)) + t
    assert evaluate(shifted, point) == evaluate(f, moved)
