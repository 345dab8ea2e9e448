"""Differential fuzz against the grid oracle.

Random trees are constant on the open cells of the quarter grid: every
interval endpoint and every shift is a multiple of 1/4.  The oracle in
``oracles.grid_average`` averages ``exprs.evaluate`` over the cell
midpoints, which is exact for such functions, and never touches the
separable normal form that slices and Fubini splits are integrated through.
"""

import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from linfmeasure.boxes import Box, BoxUnion, SparseVector, unit_cell
from linfmeasure.errors import FormNotExact
from linfmeasure.exprs import (
    Abs,
    Anchor,
    Clamp,
    Const,
    Indicator,
    Prod,
    Scale,
    Sum,
    Translate,
    piecewise_const,
    slice_function,
)
from linfmeasure.fubini import CoordinateSplit, fubini_check
from linfmeasure.intervals import INF
from linfmeasure.quadrature import QuadratureSpec, integrate_slice

sys.path.insert(0, str(Path(__file__).parent))
from oracles import grid_average

F = Fraction
Q = 4
DIMS = 3  # trees read coordinates 0..2
COORDS = st.integers(0, DIMS - 1)
ENDS = st.integers(-Q, 2 * Q).map(lambda k: F(k, Q))
VALUES = st.sampled_from([F(-2), F(-1), F(1, 2), F(1), F(3)])
BOUNDS = (F(1, 2), F(2), INF)
SPLITS = [
    CoordinateSplit("finite", (0,)),
    CoordinateSplit("finite", (0, 2)),
    CoordinateSplit("even"),
    CoordinateSplit("odd"),
]
UNIT_CELL = Indicator(BoxUnion.of(unit_cell()))


@st.composite
def steps(draw):
    """A piecewise constant factor on one coordinate; its pieces may touch
    but never overlap, since evaluation takes the first piece that holds a
    point while the normal form adds them up."""
    ends = sorted(draw(st.lists(ENDS, min_size=2, max_size=4, unique=True)))
    pieces = [((lo, hi), draw(VALUES)) for lo, hi in zip(ends[::2], ends[1::2])]
    return piecewise_const(draw(COORDS), pieces)


@st.composite
def indicators(draw):
    boxes = []
    for _ in range(draw(st.integers(1, 2))):
        explicit = {}
        for c in draw(st.lists(COORDS, max_size=2, unique=True)):
            lo, hi = sorted(draw(st.lists(ENDS, min_size=2, max_size=2, unique=True)))
            explicit[c] = (lo, hi)
        boxes.append(Box.make(explicit))
    return Indicator(BoxUnion.of(*boxes))


LEAVES = st.one_of(
    st.integers(-4, 4).map(lambda k: Const(F(k, 2))),
    steps(),
    indicators(),
)
SHIFTS = st.builds(
    lambda c, k: SparseVector.of({c: F(k, Q)}),
    COORDS,
    st.sampled_from([k for k in range(-Q, Q + 1) if k]),
)


def _extend(children, clip: bool):
    nodes = [
        st.builds(Scale, st.sampled_from([F(-2), F(-1, 2), F(1, 2), F(3)]), children),
        st.builds(lambda a, b: Sum((a, b)), children, children),
        st.builds(lambda a, b: Prod((a, b)), children, children),
        st.builds(Translate, children, SHIFTS),
    ]
    if clip:
        nodes += [
            st.builds(Abs, children),
            st.builds(Clamp, children, st.sampled_from([F(1, 2), F(1), F(2)])),
        ]
    return st.one_of(*nodes)


TREES = st.recursive(LEAVES, lambda c: _extend(c, True), max_leaves=5)
SPLIT_TREES = st.recursive(LEAVES, lambda c: _extend(c, False), max_leaves=5)


@given(
    TREES,
    st.integers(0, DIMS - 1),
    st.dictionaries(COORDS, st.integers(-1, 1)),
    st.dictionaries(COORDS, st.integers(-Q, 2 * Q).map(lambda k: F(k, 2 * Q))),
)
@settings(max_examples=300, deadline=None)
def test_slice_integrals_match_grid_oracle(f, n, origin, frozen):
    anchor = Anchor(SparseVector.of(frozen), SparseVector.of(origin))
    g = slice_function(f, anchor, n)
    for M in BOUNDS:
        try:
            value = integrate_slice(g, QuadratureSpec(M)).value
        except FormNotExact:
            event(f"M={M}: not exact")
            continue
        event(f"M={M}: exact")
        assert value == grid_average(f, n, M, Q, origin, frozen)


@given(SPLIT_TREES, st.booleans())
@settings(max_examples=100, deadline=None)
def test_fubini_splits_match_grid_oracle(f, cell_first):
    # in either order, a product clips each side's factors to the other
    # side's tail
    f = Prod((UNIT_CELL, f) if cell_first else (f, UNIT_CELL))
    expected = grid_average(f, DIMS - 1, INF, Q)
    event("zero integral" if expected == 0 else "nonzero integral")
    report = fubini_check(f, SPLITS)
    assert report.passed
    for row in report.rows:
        assert row.direct.status == "converged"
        assert row.direct.value == expected
        assert row.iterated.value == expected
