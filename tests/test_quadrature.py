import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linfmeasure.boxes import Box, BoxUnion, SparseVector
from linfmeasure.errors import FormNotExact
from linfmeasure.exprs import (
    Abs,
    Anchor,
    Clamp,
    Coord,
    Indicator,
    SlicedFunction,
    Translate,
    add,
    const,
    coord,
    indicator,
    mul,
    piecewise_const,
    scale,
    slice_function,
)
from linfmeasure.intervals import INF, Interval, IntervalUnion, UNIT_UNION
from linfmeasure.library import spike_series, spike_support_indicator
from linfmeasure.quadrature import (
    ConstantPiece,
    PiecewisePoly,
    QuadratureSpec,
    SliceEvaluator,
    integrate_indicator,
    integrate_slice,
    normalize,
    pieces_disjoint,
    to_constant_pieces,
)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    product_sets_pairwise_disjoint,
    spike_slice_enumerated,
    spike_slice_truncated,
    spike_slice_untruncated,
    spike_support_slice_volume,
    spike_truncation_threshold,
)

EXACT = QuadratureSpec()


def exact_slice(expr, n, anchor=Anchor(), truncation=INF):
    g = slice_function(expr, anchor, n)
    return integrate_slice(g, EXACT.with_truncation(truncation)).value


def test_piecewise_poly_algebra():
    p = PiecewisePoly.poly((0, 1))  # x on [0,1]
    q = PiecewisePoly.poly((1, 1))  # 1 + x on [0,1]
    assert p.integral_over() == Fraction(1, 2)
    assert p.multiply(q).integral_over() == Fraction(1, 2) + Fraction(1, 3)
    assert p.shift(Fraction(1, 4)).evaluate(Fraction(1, 4)) == Fraction(1, 2)
    assert PiecewisePoly.constant_on(
        IntervalUnion.coerce((0, Fraction(1, 2))), Fraction(3)
    ).integral_over() == Fraction(3, 2)


def test_constant_function_integrates_to_itself():
    assert exact_slice(const(1), 5) == 1
    assert exact_slice(const("2/7"), 0) == Fraction(2, 7)


def test_product_of_coordinates():
    f = mul(coord(0), coord(1), coord(2))
    assert exact_slice(f, 2) == Fraction(1, 8)
    # extra unconstrained dimensions integrate to 1 each
    assert exact_slice(f, 5) == Fraction(1, 8)


def test_polynomial_slice_integral():
    # integral of (x0 + x1^2) over the unit square = 1/2 + 1/3
    f = add(coord(0), mul(coord(1), coord(1)))
    assert exact_slice(f, 1) == Fraction(5, 6)


def test_indicator_slice_integral():
    region = BoxUnion.of(Box.make({0: (0, Fraction(1, 2)), 1: (0, Fraction(1, 3))}))
    assert exact_slice(indicator(region), 3) == Fraction(1, 6)


def test_piecewise_const_integral():
    f = piecewise_const(
        0, [((0, Fraction(1, 3)), 2), ((Fraction(2, 3), 1), Fraction(1, 2))]
    )
    assert exact_slice(f, 0) == Fraction(2, 3) + Fraction(1, 6)


def test_spike_untruncated_slices_are_one():
    f = spike_series()
    for n in range(0, 12):
        assert exact_slice(f, n) == spike_slice_untruncated(n) == 1


def test_spike_truncated_matches_closed_form():
    f = spike_series()
    M = Fraction(100)
    assert spike_truncation_threshold(M) == 9
    for n in (0, 3, 9, 10, 15, 22):
        assert exact_slice(f, n, truncation=M) == spike_slice_truncated(n, M)


def test_spike_truncated_matches_exhaustive_enumeration():
    f = spike_series()
    for M in (Fraction(2), Fraction(100)):
        for n in range(0, 8):
            assert exact_slice(f, n, truncation=M) == spike_slice_enumerated(n, M)


def test_spike_large_slice_value():
    # N=22, M=100: 3^10 / 3^23
    assert exact_slice(spike_series(), 22, truncation=Fraction(100)) == Fraction(
        3**10, 3**23
    )


def test_support_indicator_slices_decay():
    f = spike_support_indicator()
    for n in range(0, 10):
        assert exact_slice(f, n) == spike_support_slice_volume(n) == Fraction(2, 3) ** (
            n + 1
        )


def test_truncation_monotone_for_nonnegative():
    f = spike_series()
    g = slice_function(f, Anchor(), 10)
    ev = SliceEvaluator(g)
    bounds = [Fraction(1), Fraction(3), Fraction(10), Fraction(40), Fraction(10**6)]
    values = [ev.integral_at(b) for b in bounds]
    assert values == sorted(values)
    assert ev.integral_at(INF) == ev.untruncated_integral() == 1


def test_abs_integral_matches_signed_for_nonnegative():
    g = slice_function(spike_series(), Anchor(), 6)
    ev = SliceEvaluator(g)
    for b in (Fraction(2), Fraction(100), INF):
        assert ev.abs_integral_at(b) == ev.integral_at(b)


def test_abs_integral_on_signed_function():
    # +1 on [0,1/2), -3 on [1/2,1]
    f = piecewise_const(
        0,
        [
            (Interval(Fraction(0), Fraction(1, 2), True, False), 1),
            (Interval.closed(Fraction(1, 2), 1), -3),
        ],
    )
    ev = SliceEvaluator(slice_function(f, Anchor(), 0))
    assert ev.integral_at(INF) == Fraction(1, 2) - Fraction(3, 2)
    assert ev.abs_integral_at(INF) == Fraction(1, 2) + Fraction(3, 2)
    assert ev.integral_at(Fraction(2)) == Fraction(1, 2)  # the -3 part truncates


def test_clamp_node_matches_truncation_bound():
    f = spike_series()
    clamped = Clamp(f, Fraction(100))
    for n in (0, 5, 11):
        assert exact_slice(clamped, n) == exact_slice(f, n, truncation=Fraction(100))


def test_polynomial_truncation_is_not_exact():
    # truncating a non-constant polynomial has a curved boundary
    g = slice_function(coord(0), Anchor(), 0)
    with pytest.raises(FormNotExact):
        SliceEvaluator(g).integral_at(Fraction(1, 2))


def test_abs_of_polynomial_not_exact():
    g = slice_function(Abs(coord(0)), Anchor(), 0)
    with pytest.raises(FormNotExact):
        normalize(g.body)


def test_integrate_indicator_helper():
    u = BoxUnion.of(Box.make({0: (0, Fraction(1, 2))}), Box.make({1: (0, Fraction(1, 2))}))
    assert integrate_indicator(u, 2) == Fraction(3, 4)


@given(
    st.integers(0, 8),
    st.fractions(min_value=1, max_value=200, max_denominator=4),
)
@settings(max_examples=40, deadline=None)
def test_spike_slices_match_closed_form_property(n, M):
    assert exact_slice(spike_series(), n, truncation=M) == spike_slice_truncated(n, M)


@given(st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_truncation_never_exceeds_untruncated_for_nonnegative(n):
    ev = SliceEvaluator(slice_function(spike_series(), Anchor(), n))
    full = ev.untruncated_integral()
    for b in (Fraction(1), Fraction(5), Fraction(50)):
        assert 0 <= ev.integral_at(b) <= full


# endpoints on a coarse grid, so that touching and shared ends are common
_grid = st.sampled_from([Fraction(k, 4) for k in range(5)])


@st.composite
def _raw_interval(draw):
    lo, hi = sorted((draw(_grid), draw(_grid)))
    return (lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _raw_pieces(draw):
    """Pieces as coord -> interval lists on coordinates 0..2; a coordinate
    left out of a piece is unconstrained there."""
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        coords = draw(st.lists(st.integers(0, 2), max_size=3, unique=True))
        piece = {}
        for c in coords:
            ivs = draw(st.lists(_raw_interval(), min_size=1, max_size=2))
            if IntervalUnion.of(*(Interval(*iv) for iv in ivs)).is_empty:
                continue  # to_constant_pieces never emits an empty constraint
            piece[c] = ivs
        pieces.append(piece)
    if pieces and draw(st.booleans()):
        pieces.append(dict(draw(st.sampled_from(pieces))))  # an exact repeat
    return pieces


def _library_pieces(raw):
    return [
        ConstantPiece(
            Fraction(1),
            tuple(
                (c, IntervalUnion.of(*(Interval(*iv) for iv in ivs)))
                for c, ivs in sorted(p.items())
            ),
        )
        for p in raw
    ]


@given(_raw_pieces())
@settings(max_examples=300, deadline=None)
def test_pieces_disjoint_matches_brute_force_oracle(raw):
    assert pieces_disjoint(_library_pieces(raw)) == product_sets_pairwise_disjoint(raw)


def test_pieces_disjoint_boundary_cases():
    half = Fraction(1, 2)
    left_closed = {0: [(Fraction(0), half, True, True)]}
    right_open = {0: [(half, Fraction(1), False, True)]}
    right_closed = {0: [(half, Fraction(1), True, True)]}
    unconstrained = {}
    for raw, expected in [
        ([left_closed, right_open], True),  # touch at an open end
        ([left_closed, right_closed], False),  # share the point 1/2
        ([left_closed, {1: [(Fraction(0), half, True, True)]}], False),
        ([left_closed, unconstrained], False),
        ([left_closed, left_closed], False),
        ([left_closed], True),
        ([], True),
    ]:
        assert product_sets_pairwise_disjoint(raw) is expected
        assert pieces_disjoint(_library_pieces(raw)) is expected


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_spike_slice_pieces_disjoint_per_oracle(n):
    terms = normalize(slice_function(spike_series(), Anchor(), n).body)
    pieces = to_constant_pieces(terms)
    raw = [
        {
            i: [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in iu.components]
            for i, iu in p.constraints
        }
        for p in pieces
    ]
    assert pieces_disjoint(pieces) is product_sets_pairwise_disjoint(raw) is True


def test_hand_built_slice_translates_a_free_coordinate():
    # x0 + 1/2 over [0,1]: the shifted coordinate is a polynomial on the
    # whole axis, restricted to the cube only after the shift
    g = SlicedFunction(1, Translate(Coord(0), SparseVector.of({0: Fraction(1, 2)})))
    assert integrate_slice(g, EXACT).value == 1


def test_hand_built_slice_translates_a_unit_tail():
    # 1{x0 + 1/2 in [0,1]} over [0,1]: the shifted tail coordinate becomes
    # an explicit factor on [-1/2, 1/2]
    box = Indicator(BoxUnion.of(Box((), UNIT_UNION)))
    g = SlicedFunction(1, Translate(box, SparseVector.of({0: Fraction(1, 2)})))
    assert integrate_slice(g, EXACT).value == Fraction(1, 2)


def test_hand_built_slice_with_a_restrictive_tail_is_not_exact():
    g = SlicedFunction(1, Indicator(BoxUnion.of(Box((), IntervalUnion.coerce((0, Fraction(1, 2)))))))
    with pytest.raises(FormNotExact):
        SliceEvaluator(g)
