"""Unit cells of the base lattice: decomposition, covers, compatibility, NZ sets.

The global measure is assembled from translated copies of the unit-cell
measure; cells meet only in null sets, so it is read off the tail law.  One
enumerator lists the cells a box meets for the per-cell pieces, the cells
met and the capped sigma-cover.  ``nz_set`` reads the cells' masses off one
disjoint refinement, at a cost of window x pieces, not of the cells met.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .boxes import (
    Box,
    BoxUnion,
    ExtendedRational,
    LatticeVector,
    SparseVector,
    ZERO_VECTOR,
    _tail_class,
    coerce_union,
    unit_cell,
    union_disjointify,
    union_measure,
)
from .errors import CoverTooLarge, NotFinitelyCellCoverable, SampleOutsideOverlap
from .intervals import Interval, IntervalUnion, UNIT_UNION, frac


@dataclass(frozen=True)
class Cell:
    """The unit cube translated by the lattice vector base."""

    base: LatticeVector = LatticeVector()

    def origin(self) -> SparseVector:
        return self.base.to_sparse()

    def sort_key(self):
        return tuple((i, v) for i, v in self.origin().entries)


ORIGIN_CELL = Cell()

MAX_COVER_CELLS = 10_000  # windows a sigma-cover may list, counted per member


def _off_window(b: Box) -> Optional[str]:
    """Why box b cannot be cut into finitely many cells, or None when it can."""
    if b.tail.issubset(UNIT_UNION):
        return None
    if b.tail.total_length > 1:
        return "tail constraint longer than 1"
    # a tail outside [0,1] would need a lattice shift in every coordinate,
    # which is not finitely supported
    return "tail constraint not inside the base window [0,1]"


def _coordinate_windows(constraint: IntervalUnion, positive: bool) -> list:
    """Split a constraint at integers; returns (window index, parts) pairs.

    Parts overlap at most in integer points, which are null.  With
    ``positive``, only windows holding a part of positive length are kept.
    """
    windows: dict = {}
    for comp in constraint.components:
        lo_win = math.floor(comp.lo)
        hi_win = max(lo_win, math.ceil(comp.hi) - 1)
        for m in range(lo_win, hi_win + 1):
            piece = comp.intersect(Interval.closed(m, m + 1))
            if piece.is_empty:
                continue
            if piece.lo == piece.hi == Fraction(m) and comp.lo < Fraction(m):
                continue  # the point {m} already belongs to window m-1
            windows.setdefault(m, []).append(piece)
    return [(m, p) for m, p in windows.items() if not positive or any(q.lo < q.hi for q in p)]


def _cells(b: Box, positive: bool = False):
    """Each base-lattice cell box b meets, as (lattice vector, combo): combo
    holds one (window index, parts) pair per explicit coordinate of b."""
    coords = b.coords
    windows = [_coordinate_windows(c, positive) for _, c in b.explicit]
    for combo in itertools.product(*windows):
        # b.coords are sorted and zero windows are dropped: already canonical
        z = object.__new__(LatticeVector)
        entries = tuple((c, m) for c, (m, _) in zip(coords, combo) if m)
        object.__setattr__(z, "entries", entries)
        yield z, combo


def cell_decompose(u) -> List[Tuple[Cell, BoxUnion]]:
    """Split a box union into per-cell pieces of the base lattice.

    Requires every member's tail to fit inside [0,1].  Each member gives one
    piece per cell it meets; the pieces within one cell are returned as a
    BoxUnion, and adjacent pieces may share null boundaries.  Output is
    ordered by cell, lexicographically on the lattice vector.
    """
    by_cell: dict = {}
    for b in coerce_union(u).boxes:
        if reason := _off_window(b):
            raise NotFinitelyCellCoverable(reason)
        for z, combo in _cells(b):
            entries = tuple(
                (c, IntervalUnion(tuple(parts))) for c, (_, parts) in zip(b.coords, combo)
            )
            by_cell.setdefault(z, []).append(Box(entries, b.tail))
    return [
        (Cell(base=z), BoxUnion(tuple(by_cell[z])))
        for z in sorted(by_cell, key=lambda z: z.sort_key())
    ]


def patch_measure(u) -> ExtendedRational:
    """Measure assembled from translated copies of the unit-cell measure.

    Cells meet only in null sets, and the measure is countably additive and
    translation invariant, so the sum of the per-cell measures of
    :func:`cell_decompose`'s pieces is the measure of the union, which
    ``union_measure`` computes by the tail law without enumerating cells.
    """
    return union_measure(coerce_union(u))


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


def _null_in_explicit(b: Box) -> bool:
    """Whether some explicit constraint has length 0: the box is then null
    whatever its tail (0 * inf = 0)."""
    return any(not c.length_ratio()[0] for _, c in b.explicit)


def nz_set(q: NZQuery) -> List[LatticeVector]:
    """Lattice vectors in the window where the shifted set keeps > delta mass,
    read off one refinement of the [0,1] tail class (another tail of length 1
    meets [0,1] in less): a cell's mass sums the pieces' clipped volumes."""
    for b in q.set.boxes:
        if b.tail.total_length > 1 and not _null_in_explicit(b):
            raise NotFinitelyCellCoverable(
                "tail constraint longer than 1: NZ masses are infinite on infinitely many cells"
            )
    live = tuple(
        Box(b.explicit, UNIT_UNION) for b in q.set.translate(-q.shift).boxes
        if _tail_class(b.tail) == UNIT_UNION and not _null_in_explicit(b)
    )
    pieces = [dict(p.explicit) for p in union_disjointify(BoxUnion(live)).boxes]
    lengths: dict = {}  # length_ratio of c within [m, m+1], by (c, m)
    members = []
    for z in q.window:
        steps, num, den = dict(z.entries), 0, 1
        # [0,1] meets [m, m+1] in at most a point when m != 0
        for p in (p for p in pieces if steps.keys() <= p.keys()):
            p_num = p_den = 1
            for c, m in ((c, steps.get(i, 0)) for i, c in p.items()):
                if (c, m) not in lengths:
                    lengths[c, m] = c.intersect(IntervalUnion.coerce((m, m + 1))).length_ratio()
                p_num, p_den = p_num * lengths[c, m][0], p_den * lengths[c, m][1]
            g = math.gcd(den, p_den)
            num, den = num * (p_den // g) + p_num * (den // g), den // g * p_den
        if num * q.delta.denominator > q.delta.numerator * den:
            members.append(z)
    return sorted(members, key=lambda z: z.sort_key())


def meeting_cells(u) -> List[LatticeVector]:
    """All lattice cells a box union can meet; proves window sufficiency.

    Requires tails inside the base window (otherwise the set meets cells on
    infinitely many coordinates).
    """
    found = set()
    for b in coerce_union(u).boxes:
        if reason := _off_window(b):
            raise NotFinitelyCellCoverable(reason)
        found.update(z for z, _ in _cells(b))
    return sorted(found, key=lambda z: z.sort_key())


@dataclass(frozen=True)
class NotSigmaFinite:
    """Verdict value: the set admits no a.e. finite cover by base-lattice cells."""

    reason: str = ""


def sigma_cover(s) -> Union[List[Cell], NotSigmaFinite]:
    """Finite list of cells covering the set up to a null remainder.

    Returns :class:`NotSigmaFinite` when a tail longer than 1 forces
    uncountably many positive-measure cells, or when the tail cannot be
    aligned with the base lattice window.  A box with a null explicit
    constraint is skipped before its tail is looked at.  Over
    ``MAX_COVER_CELLS`` windows, counted first, raise :class:`CoverTooLarge`.
    """
    boxes = [b for b in coerce_union(s).boxes if not _null_in_explicit(b)]
    for reason in filter(None, map(_off_window, boxes)):
        return NotSigmaFinite(reason)
    count = sum(
        math.prod(sum(math.ceil(x.hi) - math.floor(x.lo) for x in c.components) for _, c in b.explicit)
        for b in boxes
    )
    if count > MAX_COVER_CELLS:
        raise CoverTooLarge(f"cover needs up to {count} cells, more than the {MAX_COVER_CELLS} allowed")
    found = {z for b in boxes for z, _ in _cells(b, positive=True)}
    return [Cell(base=z) for z in sorted(found, key=lambda z: z.sort_key())]
