"""Slices past a function's horizon: the body stops changing, and the
engine's evaluators (read off the whole-space form, or shared past the
horizon) and saturated bounds give the same trace as a fresh slice and
evaluator for every (n, M)."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

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
    Series,
    Sum,
    Translate,
    slice_function,
    slice_horizon,
)
from linfmeasure.intervals import INF, Interval, IntervalUnion, UNIT_UNION
from linfmeasure.library import spike_series
from linfmeasure.limits import LimitSchedule, _SliceCache, integrate_cell, slice_scan
from linfmeasure.quadrature import SliceEvaluator, SliceIntegral, _form_evaluators

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


def _series(u, tail, coef, start, extra):
    """Term k is coef on the box {x_k in u} with the given tail; the slice
    at n keeps the terms up to n + extra."""
    return Series(
        term=lambda k: Scale(coef, Indicator(BoxUnion.of(Box.make({k: u}, tail=tail)))),
        start=start,
        sparse_cutoff=lambda k: max(k, 0) + extra,
    )


leaves = st.one_of(
    st.builds(Const, small),
    st.builds(Coord, COORDS),
    st.builds(
        Piecewise,
        COORDS,
        st.lists(st.tuples(unions, st.lists(small, min_size=1, max_size=2).map(tuple)), min_size=1, max_size=2).map(tuple),
    ),
    st.builds(Indicator, st.lists(boxes, min_size=1, max_size=2).map(lambda bs: BoxUnion(tuple(bs)))),
    st.builds(_series, unions, tails, small, st.integers(0, 2), st.integers(0, 1)),
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


def _unbounded_in_n(f) -> bool:
    """Whether the tree holds a Series or an indicator box with a tail
    other than [0,1]."""
    if isinstance(f, Series):
        return True
    if isinstance(f, Indicator):
        return any(b.tail != UNIT_UNION for b in f.region.boxes)
    if isinstance(f, Sum):
        return any(_unbounded_in_n(t) for t in f.terms)
    if isinstance(f, Prod):
        return any(_unbounded_in_n(t) for t in f.factors)
    if isinstance(f, (Translate, Scale, Abs, Clamp)):
        return _unbounded_in_n(f.arg)
    return False


@given(trees, anchors)
@settings(max_examples=300, deadline=None)
def test_body_is_fixed_from_the_horizon_on(f, anchor):
    h = slice_horizon(f, anchor)
    if h is None:
        assert _unbounded_in_n(f)
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
            try:
                ev = SliceEvaluator(slice_function(f, anchor, n))
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


SHIFT = SparseVector.of({0: F(1, 4), 3: F(-1, 2)})
ONE_BOX = Indicator(BoxUnion.of(Box.make({0: (0, F(1, 2))}, tail=IntervalUnion.coerce((0, F(1, 2))))))
OVERLAP = Sum((ONE_BOX, Scale(F(2), Indicator(BoxUnion.of(Box.make({0: (F(1, 4), 1)}))))))
NO_ZERO = Indicator(BoxUnion.of(Box.make({0: (0, 1)}, tail=IntervalUnion.coerce((F(1, 3), 1)))))
OFF_CUBE = Sum((Indicator(BoxUnion.of(Box.make({1: (2, 3)}))), Const(F(1))))
HALF = IntervalUnion.coerce((0, F(1, 2)))
# the refinement keeps the first box and drops the second, which it covers
COVERED = Indicator(BoxUnion.of(Box.make({0: (0, 1)}, tail=HALF), Box.make({0: (0, F(1, 2))}, tail=HALF)))
MEET = Indicator(BoxUnion.of(Box.make({0: (0, F(1, 2))}, tail=HALF), Box.make({0: (F(1, 4), 1)}, tail=HALF)))
# the refinement splits the second box on x0 and x3, and a slice with x3 =
# 2/3 drops the first box whole and keeps the second whole, one piece
DROPPED = Prod((Coord(0), Indicator(BoxUnion.of(Box.make({0: (0, F(1, 2)), 3: (0, F(1, 2))}), Box.make({0: (0, 1)})))))
MIXED = Indicator(BoxUnion.of(Box.make({0: (0, F(1, 2))}, tail=HALF), Box.make({0: (F(1, 4), 1)})))


@given(trees, anchors)
@example(Prod((Translate(_series(UNIT_UNION, UNIT_UNION, F(1), 1, 1), SHIFT), ONE_BOX)), Anchor())
@example(spike_series(), Anchor(SparseVector.of({2: F(2, 3)})))
@example(OVERLAP, Anchor())  # two terms that no coordinate separates
@example(NO_ZERO, Anchor(cell_origin=SHIFT))  # 0 is outside the tail
@example(OFF_CUBE, Anchor())  # a term that misses the cube from n = 1 on
@example(Clamp(Sum((Coord(0), ONE_BOX)), F(1)), Anchor(SHIFT, SparseVector.of({1: 1})))
@example(COVERED, Anchor(SparseVector.of({3: F(1, 3)})))  # read off the form
@example(MEET, Anchor())  # one restrictive tail, boxes that meet on x0
@example(DROPPED, Anchor(SparseVector.of({3: F(2, 3)})))
@example(MIXED, Anchor())  # NotDisjointifiable: sliced at every n
@settings(max_examples=150, deadline=None)
def test_integrate_cell_trace_matches_fresh_slices(f, anchor):
    # trees that _normalize gives a whole-space form (series with a sparse
    # cutoff, regions whose refinement keeps or drops each box whole) are
    # read off it; Clamp, Abs, boxes that meet with different tails, and a
    # region whose refinement splits a box are sliced at every n
    d, a = anchor.cell_origin, anchor.entries
    event("form" if _form_evaluators(Translate(f, d), a - d, SCHED.n_values) else "per-n slices")
    expected = _outcome(lambda: _reference_trace(f, anchor, SCHED))
    assert _outcome(lambda: integrate_cell(f, anchor=anchor, sched=SCHED).trace) == expected
    scanned = _outcome(lambda: slice_scan(f, anchor, SCHED.n_values, SCHED.M_values))
    assert scanned == expected

    def cached_bounds():
        cache = _SliceCache(f, anchor, SCHED.n_values)
        return [cache.evaluator_at(n).total_bound for n in SCHED.n_values]

    fresh = lambda: [SliceEvaluator(slice_function(f, anchor, n)).total_bound for n in SCHED.n_values]
    assert _outcome(cached_bounds) == _outcome(fresh)


def _steps():
    """3 on x0 < 1/2 and 1 on x0 > 1/2, cut from coordinate 2 on."""
    low = Box.make({0: Interval(F(0), F(1, 2), True, False), 2: (0, F(1, 3))})
    high = Box.make({0: Interval(F(1, 2), F(1), False, True), 2: (0, F(1, 3))})
    return Sum((Scale(F(3), Indicator(low)), Indicator(high)))


def test_trace_is_a_read_only_sequence_of_rows():
    # |f| <= 4: bounds 1/2 and 1 truncate, 5 saturates, 8 and inf share its
    # column
    f = _steps()
    sched = LimitSchedule(SCHED.n_values, (F(1, 2), F(1), F(5), F(8), INF))
    result = integrate_cell(f, sched=sched)
    rows = _reference_trace(f, Anchor(), sched)
    trace = result.trace
    assert len(trace) == len(rows) == len(sched.n_values) * len(sched.M_values)
    saturated = trace.columns[2][2]
    assert trace.columns[3][2] is saturated and trace.columns[4][2] is saturated
    assert list(trace) == rows
    assert trace[3] == rows[3] and trace[-2:] == tuple(rows[-2:])
    assert trace == rows and rows == trace
    assert trace == tuple(rows) and tuple(rows) == trace
    assert trace != rows[:-1] and trace != rows[::-1]
    assert hash(trace) == hash(tuple(rows))
    with pytest.raises(TypeError):
        trace[0] = rows[0]
    again = integrate_cell(f, sched=sched)
    assert again == result and hash(again) == hash(result)
    as_rows = replace(result, trace=tuple(rows))
    assert as_rows == result and hash(as_rows) == hash(result)


@pytest.mark.parametrize("bounds", [(INF, F(1, 2), F(5), F(2)), (F(5), INF), (F(1, 4),)])
def test_slice_scan_bounds_in_any_order(bounds):
    f = _steps()
    expected = [
        SliceIntegral(n, M, SliceEvaluator(slice_function(f, Anchor(), n)).integral_at(M))
        for M in bounds
        for n in range(0, 4)
    ]
    assert slice_scan(f, Anchor(), range(0, 4), bounds) == expected
