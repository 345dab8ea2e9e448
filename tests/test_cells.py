import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfmeasure.boxes import (
    Box,
    BoxUnion,
    LatticeVector,
    SparseVector,
    unit_cell,
)
from linfmeasure import cells
from linfmeasure.cells import (
    Cell,
    NZQuery,
    NotSigmaFinite,
    cell_decompose,
    compatibility_check,
    meeting_cells,
    nz_set,
    patch_measure,
    sigma_cover,
)
from linfmeasure.errors import CoverTooLarge, NotFinitelyCellCoverable, SampleOutsideOverlap
from linfmeasure.exprs import indicator
from linfmeasure.intervals import INF
from linfmeasure.limits import integrate_global


def test_patch_measure_unit_cell():
    assert patch_measure(BoxUnion.of(unit_cell())) == 1


def test_patch_measure_half_tail_zero():
    assert patch_measure(BoxUnion.of(Box.make({}, tail=(0, Fraction(1, 2))))) == 0


def test_patch_measure_wide_coordinate():
    u = BoxUnion.of(Box.make({0: (0, 3)}))
    assert patch_measure(u) == 3
    assert len(cell_decompose(u)) == 3


# A box straddling the origin on k coordinates meets 2^k cells, and one with
# an endpoint at h meets h cells: patch_measure must not visit them.
def test_patch_measure_of_a_box_meeting_two_to_the_thirty_cells():
    half = (Fraction(-1, 2), Fraction(1, 2))
    start = time.perf_counter()
    assert patch_measure(Box.make({c: half for c in range(30)})) == 1
    assert time.perf_counter() - start < 1.0


def test_patch_measure_of_an_endpoint_at_a_billion():
    start = time.perf_counter()
    assert patch_measure(Box.make({0: (0, Fraction(1, 2)), 1: (0, 10**9)})) == 5 * 10**8
    assert time.perf_counter() - start < 1.0


# nz_set reads each window cell off one refinement: its cost is window x
# pieces, not the 2^30 or 10^9 cells these sets meet
NZ_BLOCK = [LatticeVector.of({0: a, 1: b}) for a in range(-2, 3) for b in range(-2, 3)]


def test_nz_set_of_a_box_meeting_two_to_the_thirty_cells():
    half = (Fraction(-1, 2), Fraction(1, 2))
    start = time.perf_counter()
    # each of the four cells around the origin on x0, x1 keeps 2^-30 of it
    q = NZQuery(set=Box.make({c: half for c in range(30)}), delta=Fraction(1, 2**31), window=NZ_BLOCK)
    assert [z.entries for z in nz_set(q)] == [(), ((0, -1),), ((0, -1), (1, -1)), ((1, -1),)]
    assert time.perf_counter() - start < 1.0


def test_nz_set_of_an_endpoint_at_a_billion():
    start = time.perf_counter()
    q = NZQuery(set=Box.make({0: (Fraction(1, 2), 10**9)}), delta=Fraction(1, 4), window=NZ_BLOCK)
    assert [z.entries for z in nz_set(q)] == [(), ((0, 1),), ((0, 2),)]
    assert time.perf_counter() - start < 1.0


def test_cell_decompose_fractional_span():
    # [1/2, 3/2] meets windows 0 and 1 with halves
    u = BoxUnion.of(Box.make({0: (Fraction(1, 2), Fraction(3, 2))}))
    pieces = cell_decompose(u)
    assert [c.base.get(0) for c, _ in pieces] == [0, 1]
    assert patch_measure(u) == 1


def test_cell_decompose_long_tail_raises():
    with pytest.raises(NotFinitelyCellCoverable):
        cell_decompose(BoxUnion.of(Box.make({}, tail=(0, 2))))


def test_patch_measure_long_tail_falls_back():
    assert patch_measure(BoxUnion.of(Box.make({}, tail=(0, 2)))) == INF


def test_meeting_cells_negative_window():
    u = BoxUnion.of(Box.make({1: (Fraction(-1, 2), Fraction(1, 4))}))
    cells = meeting_cells(u)
    # deterministic sparse-lexicographic order: the origin sorts first
    assert sorted(z.get(1) for z in cells) == [-1, 0]


def test_compatibility_agrees_on_overlap():
    t = SparseVector.of({0: Fraction(1, 2)})
    t2 = SparseVector.of({})
    sample = Box.make({0: (Fraction(1, 2), 1)})
    report = compatibility_check(t, t2, [sample])
    assert report.passed
    assert report.rows[0].measure_first == Fraction(1, 2)
    assert report.rows[0].measure_second == Fraction(1, 2)


def test_compatibility_rejects_outside_sample():
    t = SparseVector.of({0: Fraction(1, 2)})
    sample = Box.make({0: (0, Fraction(1, 4))})  # not inside the overlap
    with pytest.raises(SampleOutsideOverlap):
        compatibility_check(t, SparseVector.of({}), [sample])


def test_nz_set_unit_cell_origin_only():
    window = [LatticeVector.of({}), LatticeVector.unit(0, 1), LatticeVector.unit(0, -1)]
    q = NZQuery(
        set=BoxUnion.of(unit_cell()), delta=Fraction(1, 2), window=window
    )
    assert [z.entries for z in nz_set(q)] == [()]


def test_nz_set_shifted_straddles_two_cells():
    # shifting the query by 1/2 leaves mass 1/2 in two cells; delta=1/4 sees both
    window = [LatticeVector.of({}), LatticeVector.unit(0, -1), LatticeVector.unit(0, 1)]
    q = NZQuery(
        set=BoxUnion.of(unit_cell()),
        shift=SparseVector.of({0: Fraction(1, 2)}),
        delta=Fraction(1, 4),
        window=window,
    )
    members = nz_set(q)
    assert sorted(dict(z.entries).get(0, 0) for z in members) == [-1, 0]


def test_nz_set_empty_above_all_mass():
    window = [LatticeVector.of({})]
    q = NZQuery(
        set=BoxUnion.of(Box.make({0: (0, Fraction(1, 2))})),
        delta=Fraction(3, 4),
        window=window,
    )
    assert nz_set(q) == []


def test_nz_delta_validation():
    with pytest.raises(ValueError):
        NZQuery(set=BoxUnion.of(unit_cell()), delta=Fraction(0))
    with pytest.raises(ValueError):
        NZQuery(set=BoxUnion.of(unit_cell()), delta=Fraction(1))


@given(
    st.fractions(min_value="1/10", max_value="9/10", max_denominator=10),
    st.fractions(min_value="1/10", max_value="9/10", max_denominator=10),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
)
@settings(max_examples=50, deadline=None)
def test_nz_antitone_in_delta(d1, d2, shift):
    if d1 > d2:
        d1, d2 = d2, d1
    window = [LatticeVector.of({}), LatticeVector.unit(0, -1), LatticeVector.unit(0, 1)]
    u = BoxUnion.of(unit_cell())
    small = nz_set(
        NZQuery(set=u, shift=SparseVector.of({0: shift}), delta=d2, window=window)
    )
    large = nz_set(
        NZQuery(set=u, shift=SparseVector.of({0: shift}), delta=d1, window=window)
    )
    assert set(z.entries for z in small) <= set(z.entries for z in large)


def test_sigma_cover_unit_cell():
    cover = sigma_cover(BoxUnion.of(unit_cell()))
    assert isinstance(cover, list) and len(cover) == 1
    assert cover[0] == Cell()


def test_sigma_cover_long_tail_not_sigma_finite():
    verdict = sigma_cover(BoxUnion.of(Box.make({}, tail=(0, 2))))
    assert isinstance(verdict, NotSigmaFinite)


def test_sigma_cover_skips_null_boxes():
    degenerate = Box.make({0: (Fraction(1, 2), Fraction(1, 2))})
    cover = sigma_cover(BoxUnion.of(degenerate))
    assert cover == []


@pytest.mark.parametrize("tail", [(0, 2), (Fraction(1, 2), Fraction(3, 2))])
def test_null_box_with_a_long_or_misplaced_tail_is_skipped(tail):
    # a point on coordinate 0 makes the box null whatever its tail (0 * inf = 0)
    b = Box.make({0: (Fraction(1, 2), Fraction(1, 2))}, tail=tail)
    assert b.measure() == 0 and patch_measure(b) == 0
    assert sigma_cover(b) == []
    result = integrate_global(indicator(BoxUnion.of(b)))
    assert result.status == "converged" and result.value == 0
    window = [LatticeVector.of({0: a, 1: c}) for a in range(-2, 3) for c in range(-2, 3)]
    assert nz_set(NZQuery(set=BoxUnion.of(b), window=window)) == []


def test_sigma_cover_spans_windows():
    cover = sigma_cover(BoxUnion.of(Box.make({0: (0, 3)})))
    assert [c.base.get(0) for c in cover] == [0, 1, 2]


def test_sigma_cover_cap_counts_windows_before_listing_cells(monkeypatch):
    monkeypatch.setattr(cells, "MAX_COVER_CELLS", 3)
    assert len(sigma_cover(Box.make({0: (0, 3)}))) == 3
    with pytest.raises(CoverTooLarge, match="up to 4 cells, more than the 3 allowed"):
        sigma_cover(Box.make({0: (0, Fraction(7, 2))}))
    # [1/2, 3/2] and [0, 2] each span two windows on x0: members are counted
    # apart, so two cells bound to 4
    with pytest.raises(CoverTooLarge, match="up to 4 cells"):
        sigma_cover(BoxUnion.of(Box.make({0: (Fraction(1, 2), Fraction(3, 2))}), Box.make({0: (0, 2)})))
    # a null box is skipped, and a long tail is a verdict before the count
    assert sigma_cover(Box.make({0: (0, 10**9), 1: (Fraction(1, 2), Fraction(1, 2))})) == []
    big = Box.make({0: (0, 10**9)})
    assert isinstance(sigma_cover(BoxUnion.of(big, Box.make({}, tail=(0, 2)))), NotSigmaFinite)


@pytest.mark.parametrize(
    "box, count",
    [
        (Box.make({0: (0, Fraction(1, 2)), 1: (0, 10**9)}), 10**9),
        (Box.make({c: (Fraction(-1, 2), Fraction(1, 2)) for c in range(30)}), 2**30),
    ],
)
def test_integrals_over_a_cover_past_the_cap_stop_at_once(box, count):
    start = time.perf_counter()
    with pytest.raises(CoverTooLarge, match=f"up to {count} cells"):
        sigma_cover(box)
    with pytest.raises(CoverTooLarge):
        integrate_global(indicator(BoxUnion.of(box)))
    assert time.perf_counter() - start < 1.0
