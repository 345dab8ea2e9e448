import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from linfmeasure.boxes import (
    Box,
    BoxUnion,
    EMPTY_BOX,
    LatticeVector,
    SparseVector,
    ZERO_VECTOR,
    _box_minus,
    _boxes_meet,
    unit_cell,
    union_disjointify,
    union_measure,
)
from linfmeasure.cells import NZQuery, cell_decompose, nz_set, patch_measure
from linfmeasure.errors import NotDisjointifiable, NotFinitelyCellCoverable
from linfmeasure.exprs import indicator
from linfmeasure.intervals import INF, Interval, IntervalUnion, UNIT_UNION
from linfmeasure.limits import integrate_global

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    box_measure_oracle,
    inclusion_exclusion_volume,
    product_sets_pairwise_disjoint,
    product_sets_union_equal,
    tail_law_union_volume,
)

unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def unit_subintervals(draw):
    lo = draw(unit_rationals)
    hi = draw(unit_rationals)
    if lo > hi:
        lo, hi = hi, lo
    return (lo, hi)


@st.composite
def unit_tail_boxes(draw, max_coords=4):
    coords = draw(st.lists(st.integers(0, 6), max_size=max_coords, unique=True))
    explicit = {c: draw(unit_subintervals()) for c in coords}
    return Box.make(explicit)


def test_sparse_vector_normalizes():
    v = SparseVector.of({3: "1/2", 1: 0})
    assert v.entries == ((3, Fraction(1, 2)),)
    assert v.get(1) == 0 and v.get(3) == Fraction(1, 2)
    assert (v + (-v)).is_zero
    assert -v == SparseVector.of({3: "-1/2"}) and hash(-v) == hash(SparseVector.of({3: "-1/2"}))
    assert v + ZERO_VECTOR == ZERO_VECTOR + v == v


def test_lattice_vector_arithmetic():
    z = LatticeVector.of({0: 1, 2: -1})
    assert (z + (-z)).entries == ()
    assert z.to_sparse().get(2) == -1


def test_unit_cell_measure_is_one():
    assert unit_cell().measure() == 1


def test_half_side_box_measure():
    b = Box.make({0: (0, Fraction(1, 2))})
    assert b.measure() == Fraction(1, 2)


def test_short_tail_box_is_null():
    assert Box.make({}, tail=(0, Fraction(1, 2))).measure() == 0


def test_long_tail_box_is_infinite():
    assert Box.make({}, tail=(0, 2)).measure() == INF


def test_zero_times_infinity_is_zero():
    b = Box.make({0: (Fraction(1, 2), Fraction(1, 2))}, tail=(0, 2))
    assert b.measure() == 0


def test_degenerate_coordinate_nullifies():
    b = Box.make({5: (Fraction(1, 3), Fraction(1, 3))})
    assert b.measure() == 0


def test_empty_box():
    b = Box.make({0: (0, 1)}).intersect(Box.make({0: (2, 3)}))
    assert b.is_empty
    assert b.measure() == 0


def test_prefix_half_boxes_exact():
    for n in range(1, 31):
        b = Box.make({i: (0, Fraction(1, 2)) for i in range(n)})
        assert b.measure() == Fraction(1, 2) ** n


def test_translate_preserves_measure():
    b = Box.make({0: (0, Fraction(1, 2)), 4: (Fraction(1, 4), 1)})
    t = SparseVector.of({0: "7/3", 4: "-1/2"})
    assert b.translate(t).measure() == b.measure()
    # coordinate 2 is shifted but left to the tail, coordinate 4 explicit
    # but not shifted
    moved = b.translate(SparseVector.of({0: "7/3", 2: "-1/2"}))
    assert moved.measure() == b.measure()
    assert moved.constraint(0) == IntervalUnion.coerce((Fraction(7, 3), Fraction(17, 6)))
    assert moved.constraint(2) == IntervalUnion.coerce((Fraction(-1, 2), Fraction(1, 2)))
    assert moved.constraint(4) == IntervalUnion.coerce((Fraction(1, 4), 1))
    assert moved.constraint(3) == moved.tail == IntervalUnion.coerce((0, 1))
    assert moved.coords == (0, 2, 4)


def test_contains_point():
    b = Box.make({0: (0, Fraction(1, 2))}, tail=(0, 1))
    assert b.contains_point({0: Fraction(1, 4)})
    assert not b.contains_point({0: Fraction(3, 4)})
    assert not b.contains_point({1: Fraction(3, 2)})


def test_multi_interval_constraint():
    u = IntervalUnion.coerce([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
    b = Box.make({0: u})
    assert b.measure() == Fraction(2, 3)


def test_disjointify_splits_overlap():
    a = Box.make({0: (0, Fraction(3, 4))})
    b = Box.make({0: (Fraction(1, 4), 1)})
    d = union_disjointify(BoxUnion.of(a, b))
    total = sum((piece.measure() for piece in d.boxes), Fraction(0))
    assert total == 1
    for i, x in enumerate(d.boxes):
        for y in d.boxes[i + 1:]:
            assert x.intersect(y).measure() == 0


def test_disjointify_mixed_tails_rejected():
    a = Box.make({}, tail=(0, 1))
    b = Box.make({}, tail=(0, Fraction(1, 2)))
    with pytest.raises(NotDisjointifiable):
        union_disjointify(BoxUnion.of(a, b))


def test_union_measure_mixed_tails_inclusion_exclusion():
    # overlapping boxes with different tails still get a measure
    a = Box.make({}, tail=(0, 1))
    b = Box.make({}, tail=(0, Fraction(1, 2)))
    assert union_measure(BoxUnion.of(a, b)) == 1


def test_union_measure_matches_inclusion_exclusion_oracle():
    boxes = [
        Box.make({0: (0, Fraction(1, 2))}),
        Box.make({1: (Fraction(1, 4), Fraction(3, 4))}),
        Box.make({0: (Fraction(1, 4), 1), 1: (0, Fraction(1, 2))}),
    ]
    oracle = inclusion_exclusion_volume(
        [
            {0: (Fraction(0), Fraction(1, 2))},
            {1: (Fraction(1, 4), Fraction(3, 4))},
            {0: (Fraction(1, 4), Fraction(1)), 1: (Fraction(0), Fraction(1, 2))},
        ],
        [0, 1],
    )
    assert union_measure(BoxUnion.of(*boxes)) == oracle


@given(unit_tail_boxes())
@settings(max_examples=60)
def test_box_measure_matches_product_oracle(b):
    lengths = [c.total_length for _, c in b.explicit]
    assert b.measure() == box_measure_oracle(lengths, b.tail.total_length)


@given(unit_tail_boxes(), unit_tail_boxes())
@settings(max_examples=60)
def test_intersection_measure_bounded(a, b):
    m = a.intersect(b).measure()
    assert m <= a.measure() and m <= b.measure()


coarse_rationals = st.fractions(min_value=0, max_value=1, max_denominator=4)


@st.composite
def coarse_boxes(draw):
    coords = draw(st.lists(st.integers(0, 3), max_size=2, unique=True))
    explicit = {}
    for c in coords:
        lo = draw(coarse_rationals)
        hi = draw(coarse_rationals)
        if lo > hi:
            lo, hi = hi, lo
        explicit[c] = (lo, hi)
    return Box.make(explicit)


@given(st.lists(coarse_boxes(), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_disjointify_preserves_total(boxes):
    u = BoxUnion.of(*boxes)
    d = union_disjointify(u)
    total = sum((piece.measure() for piece in d.boxes), Fraction(0))
    assert total == union_measure(u)
    for i, x in enumerate(d.boxes):
        for y in d.boxes[i + 1:]:
            assert x.intersect(y).measure() == 0


def test_duplicate_explicit_index_rejected():
    with pytest.raises(ValueError, match="duplicate explicit coordinate index"):
        Box(((0, (0, Fraction(1, 2))), (0, (0, Fraction(1, 3)))))
    with pytest.raises(ValueError, match="duplicate explicit coordinate index"):
        Box(((1, (0, Fraction(1, 2))), (1, (0, Fraction(1, 2)))))


# Random unions for the differential tests.  Endpoints sit on a coarse grid
# so that ends touch often; flags are random.  A tail may be split at its
# midpoint, which it then misses: the same class as the unsplit tail.

SIXTHS = [Fraction(k, 6) for k in range(10)]
THIRDS = [Fraction(k, 3) for k in range(4)]


def _raw(iv: Interval) -> tuple:
    return (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)


@st.composite
def raw_intervals(draw, grid):
    lo, hi = sorted((draw(st.sampled_from(grid)), draw(st.sampled_from(grid))))
    return (lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def raw_tails(draw):
    """Unit tails (twice as likely), null tails and tails longer than 1."""
    lo = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]))
    length = draw(st.sampled_from([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    if draw(st.booleans()):
        mid = lo + length / 2
        return [(lo, mid, lo_closed, False), (mid, lo + length, False, hi_closed)]
    return [(lo, lo + length, lo_closed, hi_closed)]


@st.composite
def mixed_tail_unions(draw):
    """(boxes, raw specs) for up to 6 boxes over up to 6 coordinates."""
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        coords = draw(st.lists(st.integers(0, 5), max_size=3, unique=True))
        specs.append(({c: draw(raw_intervals(SIXTHS)) for c in coords}, draw(raw_tails())))
    boxes = [
        Box.make(
            {c: Interval(*iv) for c, iv in explicit.items()},
            tail=IntervalUnion.of(*(Interval(*t) for t in tail)),
        )
        for explicit, tail in specs
    ]
    return boxes, specs


@given(mixed_tail_unions())
@settings(max_examples=200, deadline=None)
def test_union_measure_matches_tail_law_oracle(case):
    boxes, specs = case
    oracle = tail_law_union_volume(
        [({c: iv[:2] for c, iv in explicit.items()}, tail) for explicit, tail in specs]
    )
    assert union_measure(BoxUnion.of(*boxes)) == oracle


@given(
    mixed_tail_unions(),
    st.dictionaries(
        st.integers(0, 6), st.integers(-12, 12).map(lambda k: Fraction(k, 6)), max_size=3
    ),
)
@settings(max_examples=200, deadline=None)
def test_patch_measure_is_translation_invariant(case, shift):
    # the patched measure agrees with the tail law, before and after a shift
    # that moves the union across cell boundaries; when every tail fits the
    # base window, so does the sum of the per-cell measures of the pieces
    boxes, specs = case
    oracle = tail_law_union_volume(
        [({c: iv[:2] for c, iv in explicit.items()}, tail) for explicit, tail in specs]
    )
    u = BoxUnion.of(*boxes)
    for v in (u, u.translate(SparseVector.of(shift))):
        assert patch_measure(v) == oracle
        if all(b.tail.issubset(UNIT_UNION) for b in v.boxes):
            pieces = cell_decompose(v)
            assert sum((union_measure(p) for _, p in pieces), Fraction(0)) == oracle


@given(mixed_tail_unions())
@settings(max_examples=200, deadline=None)
def test_disjointify_rejects_exactly_meeting_different_tails(case):
    boxes, _ = case
    members = [b for b in dict.fromkeys(boxes) if not b.is_empty]

    def as_sets(b, coords):
        sets = {c: [_raw(iv) for iv in b.constraint(c).components] for c in coords}
        sets["tail"] = [_raw(iv) for iv in b.tail.components]
        return sets

    def meet(a, b):
        coords = set(a.coords) | set(b.coords)
        return not product_sets_pairwise_disjoint([as_sets(a, coords), as_sets(b, coords)])

    clash = any(
        a.tail != b.tail and meet(a, b)
        for i, a in enumerate(members)
        for b in members[i + 1:]
    )
    if clash:
        with pytest.raises(NotDisjointifiable):
            union_disjointify(BoxUnion.of(*boxes))
    else:
        union_disjointify(BoxUnion.of(*boxes))


SAME_TAILS = [
    [(Fraction(0), Fraction(1), True, True)],
    [(Fraction(0), Fraction(1), True, False)],
    [(Fraction(1, 3), Fraction(1), False, True)],
    [(Fraction(0), Fraction(1, 3), True, True), (Fraction(2, 3), Fraction(1), True, True)],
    [(Fraction(0), Fraction(1, 2), True, False), (Fraction(1, 2), Fraction(1), False, True)],
]


@st.composite
def same_tail_unions(draw):
    """(tail, explicit specs): up to 6 boxes over up to 6 coordinates, each
    explicit constraint one or two intervals on the thirds."""
    tail = draw(st.sampled_from(SAME_TAILS))
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        coords = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
        specs.append({
            c: draw(st.lists(raw_intervals(THIRDS), min_size=1, max_size=2)) for c in coords
        })
    return tail, specs


def _same_tail_union(tail, specs) -> BoxUnion:
    tail_union = IntervalUnion.of(*(Interval(*t) for t in tail))
    return BoxUnion.of(*(
        Box.make(
            {c: IntervalUnion.of(*(Interval(*iv) for iv in ivs)) for c, ivs in explicit.items()},
            tail=tail_union,
        )
        for explicit in specs
    ))


@given(same_tail_unions())
@settings(max_examples=100, deadline=None)
def test_same_tail_disjointify_is_an_exact_partition(case):
    tail, specs = case
    tail_union = IntervalUnion.of(*(Interval(*t) for t in tail))
    u = _same_tail_union(tail, specs)
    pieces = union_disjointify(u).boxes
    coords = sorted(set().union(*specs))
    assert all(p.tail == tail_union and set(p.coords) <= set(coords) for p in pieces)
    as_sets = [
        {c: [_raw(iv) for iv in p.constraint(c).components] for c in coords} for p in pieces
    ]
    inputs = [{c: explicit.get(c, tail) for c in coords} for explicit in specs]
    assert product_sets_pairwise_disjoint(as_sets)
    assert product_sets_union_equal(inputs, as_sets, coords)
    if tail_union.total_length == 1:
        total = sum((p.measure() for p in pieces), Fraction(0))
        assert total == union_measure(u)


def _all_pairs_disjointify(u: BoxUnion) -> BoxUnion:
    """Reference: each member is cut by every piece kept before it."""
    if len(u.boxes) <= 1:
        return u
    out: list = []
    for b in dict.fromkeys(u.boxes):
        parts = [b]
        for p in out:
            if p.tail != b.tail:
                if _boxes_meet(p, b):
                    raise NotDisjointifiable("overlapping boxes with different tails")
            else:
                parts = [q for part in parts for q in _box_minus(part, p)]
        out.extend(parts)
    return BoxUnion(tuple(out))


def _assert_matches_all_pairs(u: BoxUnion) -> None:
    try:
        expected = _all_pairs_disjointify(u)
    except NotDisjointifiable:
        with pytest.raises(NotDisjointifiable):
            union_disjointify(u)
    else:
        assert union_disjointify(u).boxes == expected.boxes


SLOTS = 12
UNIT_TAIL = IntervalUnion.coerce((0, 1))
OTHER_TAILS = [
    IntervalUnion.of(Interval(Fraction(0), Fraction(1), True, False)),
    IntervalUnion.coerce((Fraction(1, 3), Fraction(4, 3))),
]


@st.composite
def swept_unions(draw):
    """Narrow boxes in slots of width 1/12 on coordinate 0, in shuffled order.

    A box spans one to three slots with random end flags, so neighbours
    touch at closed or open ends and some overlap; some leave coordinate 0
    to the tail, some carry a constraint on coordinate 1 or 2, a few have
    another tail, and a wide box may come after all the narrow ones."""
    boxes = []
    for j in draw(st.lists(st.integers(0, SLOTS - 1), min_size=2, max_size=16)):
        explicit = {}
        if draw(st.integers(0, 4)):
            span = draw(st.sampled_from([1, 1, 2, 3]))
            explicit[0] = Interval(
                Fraction(j, SLOTS), Fraction(j + span, SLOTS), draw(st.booleans()), draw(st.booleans())
            )
        second = draw(st.sampled_from([None, None, None, 1, 2]))
        if second is not None:
            explicit[second] = Interval(*draw(raw_intervals(THIRDS)))
        tail = draw(st.sampled_from([UNIT_TAIL] * 6 + OTHER_TAILS))
        boxes.append(Box.make(explicit, tail=tail))
    if draw(st.booleans()):
        boxes.append(Box.make({0: (Fraction(-1, 2), Fraction(3, 2))}))
    return BoxUnion.of(*boxes)


@given(mixed_tail_unions())
@settings(max_examples=200, deadline=None)
def test_disjointify_matches_all_pairs_on_mixed_tails(case):
    boxes, _ = case
    _assert_matches_all_pairs(BoxUnion.of(*boxes))


@given(same_tail_unions())
@settings(max_examples=100, deadline=None)
def test_disjointify_matches_all_pairs_on_same_tails(case):
    _assert_matches_all_pairs(_same_tail_union(*case))


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@given(swept_unions())
@example(BoxUnion.of(Box.make({0: (0, HALF)}), Box.make({0: (HALF, 1)})))  # closed ends touch
@example(BoxUnion.of(  # two candidates kept in the order opposite to their hull starts
    Box.make({0: (HALF, 1), 1: (0, QUARTER)}),
    Box.make({0: Interval(Fraction(0), HALF, True, False), 1: (0, QUARTER)}),
    Box.make({0: Interval(Fraction(0), Fraction(1), True, False), 1: (0, HALF)}),
))
@settings(max_examples=200, deadline=None)
def test_disjointify_matches_all_pairs_on_swept_slots(u):
    _assert_matches_all_pairs(u)


def test_apart_boxes_are_never_compared(monkeypatch):
    # 400 boxes strictly inside shuffled slots of coordinate 0: the all-pairs
    # loop compares k(k-1)/2 = 79800 pairs, the sweep none
    k = 400
    slots = list(range(k))
    random.Random(13).shuffle(slots)
    members = [
        Box.make({
            0: (Fraction(4 * j + 1, 4 * k), Fraction(4 * j + 3, 4 * k)),
            1 + j % 3: (Fraction(1, 4), Fraction(3, 4)),
        })
        for j in slots
    ]
    u = BoxUnion(tuple(members))
    calls = []

    def counting(a, b):
        calls.append(1)
        return _boxes_meet(a, b)

    monkeypatch.setattr("linfmeasure.boxes._boxes_meet", counting)
    assert union_disjointify(u).boxes == u.boxes
    assert len(calls) <= 4 * k
    assert union_measure(u) == sum((b.measure() for b in members), Fraction(0))


# the 5 x 5 block on coordinates 0 and 1, and cells that step on coordinates
# 2-5, which a piece leaving such a coordinate to its tail does not reach
NZ_WINDOW = [LatticeVector.of({0: a, 1: b}) for a in range(-2, 3) for b in range(-2, 3)] + [
    LatticeVector.of(steps)
    for steps in ({2: 1}, {2: -1}, {0: 1, 5: -1}, {3: 1}, {1: 1, 4: -1}, {5: 2})
]


@given(
    mixed_tail_unions(),
    st.dictionaries(st.integers(0, 5), st.integers(0, 6).map(lambda k: Fraction(k, 6)), max_size=3),
    st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
)
@settings(max_examples=100, deadline=None)
def test_nz_set_matches_cell_by_cell_measures(case, shift, delta):
    boxes, _ = case
    u = BoxUnion.of(*boxes)
    q = NZQuery(set=u, shift=SparseVector.of(shift), delta=delta, window=NZ_WINDOW)
    if any(b.measure() == INF for b in u.boxes):
        with pytest.raises(NotFinitelyCellCoverable):
            nz_set(q)
        return
    shifted = u.translate(-q.shift)
    expected = [
        z for z in NZ_WINDOW
        if union_measure(shifted.intersect_box(unit_cell().translate(z.to_sparse()))) > delta
    ]
    assert nz_set(q) == sorted(expected, key=lambda z: z.sort_key())


# Former cliffs: sizes at which the atom grid, its merge pass or the 2^k
# inclusion-exclusion fallback did not finish in minutes.  Exact values only.


def _two_overlapping(dims: int) -> list:
    """Sides of two boxes, [0,2/3] and [1/3,1] on coordinates 0..dims-1."""
    return [
        {c: (Fraction(0), Fraction(2, 3)) for c in range(dims)},
        {c: (Fraction(1, 3), Fraction(1)) for c in range(dims)},
    ]


def test_two_boxes_overlapping_on_twelve_coordinates():
    sides = _two_overlapping(12)
    u = BoxUnion.of(*(Box.make(s) for s in sides))
    oracle = inclusion_exclusion_volume(sides, range(12))
    assert oracle == 2 * Fraction(2, 3) ** 12 - Fraction(1, 3) ** 12
    assert union_measure(u) == oracle
    pieces = union_disjointify(u).boxes
    assert sum((p.measure() for p in pieces), Fraction(0)) == oracle


def test_sixteen_mixed_tail_boxes():
    # three unit tails and one null tail; every side and tail holds 1/2
    thirds, halves = (Fraction(1, 3), Fraction(4, 3)), (Fraction(1, 2), Fraction(3, 2))
    tails = [(0, 1), thirds, halves, (0, Fraction(1, 2))]
    specs = [
        (
            {j % 3: (Fraction(1 + j % 5, 12), Fraction(7 + j % 5, 12))},
            [(*tails[j % 4], True, True)],
        )
        for j in range(16)
    ]
    u = BoxUnion.of(*(Box.make(explicit, tail=tail[0][:2]) for explicit, tail in specs))
    assert union_measure(u) == tail_law_union_volume(specs)


def _eighths(lo: int, hi: int) -> tuple:
    return Fraction(lo, 8), Fraction(hi, 8)


def test_four_boxes_over_four_coordinates():
    sides = [
        {0: _eighths(0, 6), 1: _eighths(1, 5), 2: _eighths(2, 8), 3: _eighths(0, 4)},
        {0: _eighths(2, 8), 1: _eighths(0, 4), 2: _eighths(0, 6), 3: _eighths(2, 7)},
        {0: _eighths(1, 5), 1: _eighths(2, 8), 2: _eighths(1, 4), 3: _eighths(1, 6)},
        {c: _eighths(3, 7) for c in range(4)},
    ]
    u = BoxUnion.of(*(Box.make(s) for s in sides))
    assert union_measure(u) == inclusion_exclusion_volume(sides, range(4))


def test_integrate_indicator_of_union_overlapping_on_three_coordinates():
    sides = _two_overlapping(3)
    result = integrate_global(indicator(BoxUnion.of(*(Box.make(s) for s in sides))))
    assert result.status == "converged"
    assert result.value == inclusion_exclusion_volume(sides, range(3)) == Fraction(5, 9)
