"""Slices past a function's horizon: the body stops changing, and the
engine's shared evaluators and saturated bounds give the same trace as a
fresh slice and evaluator for every (n, M)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfmeasure.boxes import Box, BoxUnion, SparseVector
from linfmeasure.errors import FormNotExact
from linfmeasure.exprs import (
    Abs,
    Anchor,
    Clamp,
    Const,
    Coord,
    Indicator,
    Piecewise,
    Prod,
    Scale,
    Sum,
    Translate,
    slice_function,
    slice_horizon,
)
from linfmeasure.intervals import INF, Interval, IntervalUnion, UNIT_UNION
from linfmeasure.library import spike_series
from linfmeasure.limits import LimitSchedule, integrate_cell, slice_scan
from linfmeasure.quadrature import SliceEvaluator, SliceIntegral

F = Fraction
COORDS = st.integers(0, 3)
QUARTERS = st.integers(-4, 8).map(lambda k: F(k, 4))


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(QUARTERS), draw(QUARTERS)))
    if lo == hi:
        return Interval.closed(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


unions = st.lists(intervals(), min_size=1, max_size=2).map(lambda ivs: IntervalUnion.of(*ivs))
tails = st.sampled_from(
    [UNIT_UNION, UNIT_UNION, IntervalUnion.coerce((0, F(1, 2))), IntervalUnion.coerce((F(1, 3), F(4, 3)))]
)
boxes = st.builds(
    lambda explicit, tail: Box.make(explicit, tail=tail),
    st.dictionaries(COORDS, unions, max_size=2),
    tails,
)
sparse = st.dictionaries(st.integers(0, 5), QUARTERS, max_size=2).map(SparseVector.of)
small = st.integers(-3, 3).map(lambda k: F(k, 2))

leaves = st.one_of(
    st.builds(Const, small),
    st.builds(Coord, COORDS),
    st.builds(
        Piecewise,
        COORDS,
        st.lists(st.tuples(unions, st.lists(small, min_size=1, max_size=2).map(tuple)), min_size=1, max_size=2).map(tuple),
    ),
    st.builds(Indicator, st.lists(boxes, min_size=1, max_size=2).map(lambda bs: BoxUnion(tuple(bs)))),
)


def _extend(children):
    return st.one_of(
        st.builds(Translate, children, sparse),
        st.builds(Scale, small, children),
        st.builds(Sum, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Prod, st.lists(children, min_size=1, max_size=2).map(tuple)),
        st.builds(Abs, children),
        st.builds(Clamp, children, st.sampled_from([F(1, 2), F(1), F(2)])),
    )


trees = st.recursive(leaves, _extend, max_leaves=5)
anchors = st.builds(
    Anchor,
    st.dictionaries(st.integers(0, 5), st.integers(0, 2).map(lambda k: F(k, 3)), max_size=2).map(SparseVector.of),
    st.dictionaries(st.integers(0, 5), st.integers(-1, 1), max_size=2).map(SparseVector.of),
)

SCHED = LimitSchedule(n_values=tuple(range(0, 8)), M_values=(F(1, 2), F(1), F(3), INF))


def _restrictive_tail(f) -> bool:
    """Whether some indicator box in the tree has a tail other than [0,1]."""
    if isinstance(f, Indicator):
        return any(b.tail != UNIT_UNION for b in f.region.boxes)
    if isinstance(f, Sum):
        return any(_restrictive_tail(t) for t in f.terms)
    if isinstance(f, Prod):
        return any(_restrictive_tail(t) for t in f.factors)
    if isinstance(f, (Translate, Scale, Abs, Clamp)):
        return _restrictive_tail(f.arg)
    return False


@given(trees, anchors)
@settings(max_examples=300, deadline=None)
def test_body_is_fixed_from_the_horizon_on(f, anchor):
    h = slice_horizon(f, anchor)
    if h is None:
        assert _restrictive_tail(f)
        return
    body = slice_function(f, anchor, h).body
    for n in range(h + 1, h + 6):
        assert slice_function(f, anchor, n).body == body


def test_series_has_no_horizon():
    assert slice_horizon(spike_series(), Anchor()) is None


def test_horizon_reads_shifts_and_anchor():
    f = Translate(Coord(1), SparseVector.of({4: F(1, 2)}))
    assert slice_horizon(f, Anchor()) == 4
    assert slice_horizon(Coord(1), Anchor(entries=SparseVector.of({6: F(1, 3)}))) == 6
    assert slice_horizon(Const(F(2)), Anchor(cell_origin=SparseVector.of({2: 1}))) == 2
    assert slice_horizon(Const(F(2)), Anchor()) == 0


def _reference_trace(f, anchor, sched):
    """A fresh slice and evaluator for every (n, M); a bound whose
    truncation is not exact at some n is skipped, as the engine does."""
    rows = []
    for bound in sched.M_values:
        kept = []
        for n in sched.n_values:
            ev = SliceEvaluator(slice_function(f, anchor, n))
            try:
                kept.append(SliceIntegral(n, bound, ev.integral_at(bound)))
            except FormNotExact:
                kept = None
                break
        rows.extend(kept or ())
    return rows


def _outcome(run):
    try:
        return list(run())
    except FormNotExact as exc:
        return ("raises", str(exc))


@given(trees, anchors)
@settings(max_examples=150, deadline=None)
def test_integrate_cell_trace_matches_fresh_slices(f, anchor):
    expected = _outcome(lambda: _reference_trace(f, anchor, SCHED))
    assert _outcome(lambda: integrate_cell(f, anchor=anchor, sched=SCHED).trace) == expected
    scanned = _outcome(lambda: slice_scan(f, anchor, SCHED.n_values, SCHED.M_values))
    assert scanned == expected


@pytest.mark.parametrize("bounds", [(INF, F(1, 2), F(5), F(2)), (F(5), INF), (F(1, 4),)])
def test_slice_scan_bounds_in_any_order(bounds):
    # 3 on x0 < 1/2 and 1 on x0 > 1/2, cut from coordinate 2 on
    low = Box.make({0: Interval(F(0), F(1, 2), True, False), 2: (0, F(1, 3))})
    high = Box.make({0: Interval(F(1, 2), F(1), False, True), 2: (0, F(1, 3))})
    f = Sum((Scale(F(3), Indicator(low)), Indicator(high)))
    expected = [
        SliceIntegral(n, M, SliceEvaluator(slice_function(f, Anchor(), n)).integral_at(M))
        for M in bounds
        for n in range(0, 4)
    ]
    assert slice_scan(f, Anchor(), range(0, 4), bounds) == expected
