from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfmeasure.intervals import (
    EMPTY_UNION,
    Interval,
    IntervalUnion,
    UNIT_INTERVAL,
    UNIT_UNION,
    frac,
)

rationals = st.fractions(
    min_value=-3, max_value=4, max_denominator=12
)


@st.composite
def intervals(draw):
    lo = draw(rationals)
    hi = draw(rationals)
    if lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def unions(draw):
    return IntervalUnion.of(*draw(st.lists(intervals(), max_size=4)))


def test_frac_accepts_strings_ints_fractions():
    assert frac("1/2") == Fraction(1, 2)
    assert frac(3) == Fraction(3)
    assert frac(Fraction(2, 7)) == Fraction(2, 7)


def test_point_and_empty():
    p = Interval.point(Fraction(1, 2))
    assert p.length == 0 and not p.is_empty
    assert Interval.empty().is_empty
    assert Interval.open(1, 1).is_empty


def test_intersect_boundary_cases():
    a = Interval.closed(0, 1)
    b = Interval(Fraction(1), Fraction(2), True, True)
    assert a.intersect(b) == Interval.point(1)
    c = Interval(Fraction(1), Fraction(2), False, True)
    assert a.intersect(c).is_empty


def test_union_normalizes_and_merges():
    u = IntervalUnion.of(
        Interval.closed(Fraction(1, 2), 1), Interval.closed(0, Fraction(1, 2))
    )
    assert len(u.components) == 1
    assert u.components[0] == UNIT_INTERVAL
    assert u.total_length == 1


def test_union_keeps_genuine_gaps():
    u = IntervalUnion.coerce([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
    assert len(u.components) == 2
    assert u.total_length == Fraction(2, 3)
    assert u.contains(Fraction(1, 3)) and not u.contains(Fraction(1, 2))


def test_union_open_touch_not_merged():
    a = Interval(Fraction(0), Fraction(1, 2), True, False)
    b = Interval(Fraction(1, 2), Fraction(1), False, True)
    u = IntervalUnion.of(a, b)
    assert not u.contains(Fraction(1, 2))
    assert u.total_length == 1  # the missing point is null


def test_issubset():
    u = IntervalUnion.coerce([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    assert u.issubset(UNIT_UNION)
    assert not UNIT_UNION.issubset(u)
    assert EMPTY_UNION.issubset(u)


@given(intervals(), intervals())
def test_intersect_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(intervals(), rationals)
def test_translate_preserves_length(a, c):
    assert a.translate(c).length == a.length


@given(unions(), unions())
def test_union_length_subadditive(a, b):
    u = a.union(b)
    assert u.total_length <= a.total_length + b.total_length
    assert u.total_length >= max(a.total_length, b.total_length)


@given(unions(), unions())
def test_intersection_length_bounded(a, b):
    i = a.intersect(b)
    assert i.total_length <= min(a.total_length, b.total_length)
    assert i.issubset(a) and i.issubset(b)


@given(unions())
def test_components_sorted_disjoint(u):
    comps = u.components
    for a, b in zip(comps, comps[1:]):
        assert a.hi <= b.lo
        assert a.intersect(b).length == 0


@given(rationals, rationals)
def test_coerce_pair_matches_general_path(a, b):
    lo, hi = sorted((a, b))
    if lo < hi:
        fast = IntervalUnion.coerce((lo, hi))
        general = IntervalUnion.of(Interval(lo, hi))
        assert fast == general and fast.components == general.components
        assert fast.components[0].lo_closed and fast.components[0].hi_closed
        assert fast.total_length == hi - lo
        # ints and strings are read as the same rationals
        assert IntervalUnion.coerce((str(lo), str(hi))) == fast


def test_coerce_pair_degenerate_and_reversed():
    point = IntervalUnion.coerce((Fraction(1, 3), Fraction(1, 3)))
    assert point.components == (Interval.point(Fraction(1, 3)),)
    assert point.contains(Fraction(1, 3)) and point.total_length == 0
    assert IntervalUnion.coerce((1, 1)).components == (Interval.point(1),)
    with pytest.raises(ValueError):
        IntervalUnion.coerce((1, 0))
    with pytest.raises(ValueError):
        IntervalUnion.coerce((Fraction(1, 2), Fraction(1, 3)))


@given(unions(), unions())
def test_union_equality_and_hash_agree(a, b):
    rebuilt = IntervalUnion(tuple(reversed(a.components)))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a == b) == (a.components == b.components)
    if a == b:
        assert hash(a) == hash(b)
    assert a != a.components  # a union never equals a bare tuple


quarters = st.sampled_from([Fraction(k, 4) for k in range(-2, 7)])


@st.composite
def raw_interval_lists(draw):
    """Up to four intervals (lo, hi, lo_closed, hi_closed) on the quarter
    grid, so ends often touch or coincide."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        lo, hi = sorted((draw(quarters), draw(quarters)))
        out.append((lo, hi, draw(st.booleans()), draw(st.booleans())))
    return out


def _member(raw, x) -> bool:
    return any(
        (lo < x or (x == lo and lc)) and (x < hi or (x == hi and hc))
        for lo, hi, lc, hc in raw
    )


@given(raw_interval_lists(), raw_interval_lists())
@settings(max_examples=300)
def test_difference_matches_pointwise_membership(a_raw, b_raw):
    a = IntervalUnion.of(*(Interval(*iv) for iv in a_raw))
    b = IntervalUnion.of(*(Interval(*iv) for iv in b_raw))
    d = a.difference(b)
    ends = sorted({e for lo, hi, _, _ in a_raw + b_raw for e in (lo, hi)})
    points = ends + [(p + q) / 2 for p, q in zip(ends, ends[1:])]
    points += [ends[0] - 1, ends[-1] + 1] if ends else [Fraction(0)]
    for x in points:
        assert d.contains(x) == (_member(a_raw, x) and not _member(b_raw, x)), x
    assert d == IntervalUnion(d.components)  # canonical: rebuilding changes nothing
    assert d.total_length == a.total_length - a.intersect(b).total_length


def test_difference_boundary_cases():
    unit = UNIT_UNION
    half_open = IntervalUnion.of(Interval(Fraction(1, 2), Fraction(1), False, True))
    assert unit.difference(half_open) == IntervalUnion.of(Interval.closed(0, Fraction(1, 2)))
    point = IntervalUnion.of(Interval.point(Fraction(1, 2)))
    split = unit.difference(point)
    assert not split.contains(Fraction(1, 2)) and len(split.components) == 2
    assert split.difference(unit) == EMPTY_UNION
    assert unit.difference(EMPTY_UNION) == unit and EMPTY_UNION.difference(unit) == EMPTY_UNION
    ends = IntervalUnion.of(Interval.open(0, 1))
    assert unit.difference(ends) == IntervalUnion.of(Interval.point(0), Interval.point(1))
