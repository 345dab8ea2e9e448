"""Unit cells of the base lattice, cell decomposition, and NZ-set queries.

The global measure is assembled from translated copies of the unit-cell
measure; on any box union whose members fit inside the base window this
module decomposes the set into per-cell pieces, verifies compatibility of
the per-cell measures on overlaps, and computes the lattice cells on which
a set keeps more than a threshold amount of mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .boxes import (
    Box,
    BoxUnion,
    ExtendedRational,
    LatticeVector,
    SparseVector,
    ZERO_VECTOR,
    coerce_union,
    unit_cell,
    union_measure,
)
from .errors import NotFinitelyCellCoverable, SampleOutsideOverlap
from .intervals import INF, Interval, IntervalUnion, UNIT_UNION, frac


@dataclass(frozen=True)
class Cell:
    """The unit cube translated by the lattice vector base."""

    base: LatticeVector = LatticeVector()

    def origin(self) -> SparseVector:
        return self.base.to_sparse()

    def sort_key(self):
        return tuple((i, v) for i, v in self.origin().entries)


ORIGIN_CELL = Cell()


def _check_base_window(b: Box) -> None:
    if b.tail.total_length > 1:
        raise NotFinitelyCellCoverable(
            "tail constraint longer than 1 meets infinitely many positive-measure cells"
        )
    if not b.tail.issubset(UNIT_UNION):
        # a tail outside [0,1] would need a lattice shift in every coordinate,
        # which is not finitely supported
        raise NotFinitelyCellCoverable(
            "tail constraint does not fit inside the base window [0,1]"
        )


def _coordinate_windows(constraint: IntervalUnion) -> List[Tuple[int, Interval]]:
    """Split a constraint at integers; returns (window index, piece) pairs.

    Pieces overlap at most in integer points, which are null.
    """
    out: List[Tuple[int, Interval]] = []
    for comp in constraint.components:
        lo_win = math.floor(comp.lo)
        hi_win = max(lo_win, math.ceil(comp.hi) - 1)
        for m in range(lo_win, hi_win + 1):
            window = Interval.closed(m, m + 1)
            piece = comp.intersect(window)
            if piece.is_empty:
                continue
            if piece.lo == piece.hi == Fraction(m) and comp.lo < Fraction(m):
                continue  # the point {m} already belongs to window m-1
            out.append((m, piece))
    return out


def cell_decompose(u) -> List[Tuple[Cell, BoxUnion]]:
    """Split a box union into per-cell pieces of the base lattice.

    Requires every member's tail to fit inside [0,1].  Pieces within one cell
    are returned as a BoxUnion; adjacent pieces may share null boundaries.
    Output is ordered by cell, lexicographically on the lattice vector.
    """
    u = coerce_union(u)
    by_cell: dict = {}
    for b in u.boxes:
        _check_base_window(b)
        coords = b.coords
        window_lists = [_coordinate_windows(b.constraint(c)) for c in coords]
        for combo in itertools.product(*window_lists):
            entries = tuple(
                (c, IntervalUnion.of(piece)) for c, (_, piece) in zip(coords, combo)
            )
            piece_box = Box(entries, b.tail)
            if piece_box.is_empty:
                continue
            base = LatticeVector(tuple((c, m) for c, (m, _) in zip(coords, combo)))
            by_cell.setdefault(base, []).append(piece_box)
    out = []
    for base in sorted(by_cell, key=lambda z: z.sort_key()):
        out.append((Cell(base=base), BoxUnion(tuple(by_cell[base]))))
    return out


def patch_measure(u) -> ExtendedRational:
    """Measure assembled cell by cell; falls back to the direct union measure
    when the union is not finitely cell-coverable."""
    u = coerce_union(u)
    if any(b.measure() == INF for b in u.boxes):
        return INF
    try:
        pieces = cell_decompose(u)
    except NotFinitelyCellCoverable:
        return union_measure(u)
    total = Fraction(0)
    for _, piece in pieces:
        m = union_measure(piece)
        if m == INF:
            return INF
        total += m
    return total


@dataclass(frozen=True)
class CompatibilityRow:
    sample: Box
    measure_first: ExtendedRational
    measure_second: ExtendedRational

    @property
    def ok(self) -> bool:
        return self.measure_first == self.measure_second


@dataclass(frozen=True)
class CompatibilityReport:
    shift_first: SparseVector
    shift_second: SparseVector
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.rows if not r.ok)


def compatibility_check(
    t: SparseVector, t2: SparseVector, samples: Sequence[Box]
) -> CompatibilityReport:
    """Verify that the two translated cell measures agree on overlap samples."""
    cell_a = unit_cell().translate(t)
    cell_b = unit_cell().translate(t2)
    overlap = cell_a.intersect(cell_b)
    rows = []
    for s in samples:
        if not s.issubset(overlap):
            raise SampleOutsideOverlap(f"sample {s!r} is not inside the cell overlap")
        rows.append(
            CompatibilityRow(
                sample=s,
                measure_first=s.translate(-t).measure(),
                measure_second=s.translate(-t2).measure(),
            )
        )
    return CompatibilityReport(shift_first=t, shift_second=t2, rows=tuple(rows))


@dataclass(frozen=True)
class NZQuery:
    """Which lattice cells keep more than ``delta`` mass of ``set`` shifted by ``shift``."""

    set: BoxUnion
    shift: SparseVector = ZERO_VECTOR
    delta: Fraction = Fraction(1, 2)
    window: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "set", coerce_union(self.set))
        object.__setattr__(self, "delta", frac(self.delta))
        object.__setattr__(self, "window", tuple(self.window))
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0,1)")
        for _, v in self.shift.entries:
            if not (0 <= v <= 1):
                raise ValueError("shift entries must lie in [0,1]")


def cell_mass(u: BoxUnion, z: LatticeVector) -> ExtendedRational:
    cell_box = unit_cell().translate(z.to_sparse())
    return union_measure(u.intersect_box(cell_box))


def nz_set(q: NZQuery, strict: bool = True) -> List[LatticeVector]:
    """Lattice vectors in the window where the shifted set keeps > delta mass.

    With ``strict=False`` the comparison is >= delta instead.
    """
    for b in q.set.boxes:
        if b.tail.total_length > 1:
            raise NotFinitelyCellCoverable(
                "tail constraint longer than 1: NZ masses are infinite on infinitely many cells"
            )
    shifted = q.set.translate(-q.shift)
    members = []
    for z in q.window:
        m = cell_mass(shifted, z)
        if (m > q.delta) if strict else (m >= q.delta):
            members.append(z)
    return sorted(members, key=lambda z: z.sort_key())


def meeting_cells(u) -> List[LatticeVector]:
    """All lattice cells a box union can meet; proves window sufficiency.

    Requires tails inside the base window (otherwise the set meets cells on
    infinitely many coordinates).
    """
    u = coerce_union(u)
    found = set()
    for b in u.boxes:
        _check_base_window(b)
        coords = b.coords
        window_lists = [
            sorted({m for m, _ in _coordinate_windows(b.constraint(c))}) for c in coords
        ]
        for combo in itertools.product(*window_lists):
            found.add(LatticeVector(tuple(zip(coords, combo))))
    return sorted(found, key=lambda z: z.sort_key())


@dataclass(frozen=True)
class NotSigmaFinite:
    """Verdict value: the set admits no a.e. finite cover by base-lattice cells."""

    reason: str = ""


def sigma_cover(s) -> Union[List[Cell], NotSigmaFinite]:
    """Finite list of cells covering the set up to a null remainder.

    Returns :class:`NotSigmaFinite` when a tail longer than 1 forces
    uncountably many positive-measure cells, or when the tail cannot be
    aligned with the base lattice window.
    """
    s = coerce_union(s)
    found = set()
    for b in s.boxes:
        if b.tail.total_length > 1:
            return NotSigmaFinite("tail constraint longer than 1")
        if not b.tail.issubset(UNIT_UNION):
            return NotSigmaFinite("tail constraint not inside the base window [0,1]")
        coords = b.coords
        window_lists = []
        degenerate = False
        for c in coords:
            windows = sorted(
                {m for m, piece in _coordinate_windows(b.constraint(c)) if piece.length > 0}
            )
            if not windows:
                degenerate = True  # the whole box is null in this coordinate
                break
            window_lists.append(windows)
        if degenerate:
            continue
        for combo in itertools.product(*window_lists):
            found.add(LatticeVector(tuple(zip(coords, combo))))
    return [Cell(base=z) for z in sorted(found, key=lambda z: z.sort_key())]
