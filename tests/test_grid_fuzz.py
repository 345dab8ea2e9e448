"""Differential fuzz against the grid oracle.

Random trees are constant on the open cells of the quarter grid: every
interval endpoint and every shift is a multiple of 1/4.  The oracle in
``oracles.grid_average`` averages ``exprs.evaluate`` over the cell
midpoints, which is exact for such functions, and never touches the
separable normal form that slices and Fubini splits are integrated through.
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from linfmeasure.boxes import Box, BoxUnion, SparseVector, unit_cell
from linfmeasure.cells import sigma_cover
from linfmeasure.errors import FormNotExact
from linfmeasure.exprs import (
    UNKNOWN,
    Abs,
    Anchor,
    Clamp,
    Const,
    Indicator,
    Prod,
    Scale,
    SlicedFunction,
    Sum,
    Translate,
    evaluate,
    piecewise_const,
    slice_function,
    support,
)
from linfmeasure.fubini import CoordinateSplit, fubini_check
from linfmeasure.intervals import INF
from linfmeasure.limits import LimitSchedule, integrate_cell
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
COEFS = st.sampled_from([F(-2), F(-1, 2), F(1, 2), F(3)])
CLAMPS = st.sampled_from([F(1, 2), F(1), F(2)])
SPLITS = [
    CoordinateSplit("finite", (0,)),
    CoordinateSplit("finite", (0, 2)),
    CoordinateSplit("even"),
    CoordinateSplit("odd"),
]
UNIT_CELL = Indicator(BoxUnion.of(unit_cell()))


@st.composite
def steps(draw, values=VALUES):
    """A piecewise constant factor on one coordinate; its pieces may touch
    or overlap, and a point takes the first piece that holds it, in
    evaluation as in the normal form."""
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        lo, hi = sorted(draw(st.lists(ENDS, min_size=2, max_size=2, unique=True)))
        pieces.append(((lo, hi), draw(values)))
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


def _extend(children, clip: bool, coefs=COEFS):
    nodes = [
        st.builds(Scale, coefs, children),
        st.builds(lambda a, b: Sum((a, b)), children, children),
        st.builds(lambda a, b: Prod((a, b)), children, children),
        st.builds(Translate, children, SHIFTS),
    ]
    if clip:
        nodes += [
            st.builds(Abs, children),
            st.builds(Clamp, children, CLAMPS),
        ]
    return st.one_of(*nodes)


TREES = st.recursive(LEAVES, lambda c: _extend(c, True), max_leaves=5)
SPLIT_TREES = st.recursive(LEAVES, lambda c: _extend(c, False), max_leaves=5)
# every value and coefficient positive, so no term can cancel another
POSITIVE = st.sampled_from([F(1, 2), F(1), F(3)])
POSITIVE_TREES = st.recursive(
    st.one_of(st.builds(Const, POSITIVE), steps(POSITIVE), indicators()),
    lambda c: _extend(c, False, POSITIVE),
    max_leaves=5,
)
# a shift above a node that holds a clipped tree: the clip must see the
# shifted argument, not its own restriction to the cube shifted afterwards
CLIPPED = st.one_of(st.builds(Abs, TREES), st.builds(Clamp, TREES, CLAMPS))
SHIFTED_CLIPS = st.builds(
    Translate,
    st.one_of(
        st.builds(Scale, COEFS, CLIPPED),
        st.builds(lambda a, b: Sum((a, b)), CLIPPED, TREES),
        st.builds(lambda a, b: Prod((a, b)), TREES, CLIPPED),
    ),
    SHIFTS,
)


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


@given(st.one_of(TREES, SHIFTED_CLIPS))
@settings(max_examples=400, deadline=None)
def test_hand_built_slice_integrals_match_grid_oracle(f):
    # the tree itself is the slice body, so every Translate reaches normalize
    g = SlicedFunction(DIMS, f)
    for M in BOUNDS:
        try:
            value = integrate_slice(g, QuadratureSpec(M)).value
        except FormNotExact:
            event(f"M={M}: not exact")
            continue
        event(f"M={M}: exact")
        assert value == grid_average(f, DIMS - 1, M, Q)


MIDPOINTS = [F(2 * k + 1, 2 * Q) for k in range(-Q, 2 * Q)]  # cells of [-1,2]


@given(TREES)
@settings(max_examples=100, deadline=None)
def test_support_holds_every_nonzero_grid_cell(f):
    supp = support(f)
    if supp is UNKNOWN:
        event("unknown support")
        return
    for x in itertools.product(MIDPOINTS, repeat=DIMS):
        point = dict(enumerate(x))
        if evaluate(f, point) != 0:
            assert supp.contains_point(point), point


WINDOW = range(-2, 3)  # lattice cells that hold every endpoint and shift
WINDOW_MIDPOINTS = [F(2 * k + 1, 2 * Q) for k in range(Q)]  # cells of [0,1]


@given(POSITIVE_TREES)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_support_of_a_positive_tree_is_tight_on_cells(f):
    # without cancellation the support's cover holds exactly the cells on
    # which f is nonzero at some grid midpoint
    supp = support(f)
    if supp is UNKNOWN:
        event("unknown support")
        return
    covered = set()
    for cell in sigma_cover(supp):
        z = tuple(cell.base.get(i) for i in range(DIMS))
        if all(v in WINDOW for v in z):
            covered.add(z)
    nonzero = set()
    for z in itertools.product(WINDOW, repeat=DIMS):
        for x in itertools.product(WINDOW_MIDPOINTS, repeat=DIMS):
            if evaluate(f, {i: zi + xi for i, (zi, xi) in enumerate(zip(z, x))}) != 0:
                nonzero.add(z)
                break
    event(f"{len(nonzero)} cells")
    assert covered == nonzero


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


CELL_SCHED = LimitSchedule(n_values=(0, 1, 2), M_values=BOUNDS, window=2)


@given(TREES)
@settings(max_examples=150, deadline=None)
def test_integrate_cell_trace_matches_grid_oracle(f):
    try:
        trace = integrate_cell(f, sched=CELL_SCHED).trace
    except FormNotExact:
        event("not exact")
        return
    event(f"{len(trace)} rows")
    for row in trace:
        assert row.value == grid_average(f, row.n, row.truncation, Q)
