"""Infinite-dimensional boxes and finite box unions, with exact measures.

A box constrains finitely many coordinates explicitly and all remaining
coordinates through a single shared *tail* constraint.  Per-coordinate
constraints are finite unions of rational intervals (a strict generalisation
of a single interval; needed so that product sets like
``([0,1/3] u [2/3,1])^inf`` are representable with one value).

The measure of a box is the product of the explicit constraint lengths times
a tail factor: 0 if the tail is shorter than 1, 1 at length exactly 1, and
+inf beyond, with the convention 0*inf = 0.  Boundary flags never affect the
measure (single hyperplanes are null).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import NotDisjointifiable
from .intervals import (
    EMPTY_UNION,
    INF,
    Interval,
    IntervalUnion,
    UNIT_UNION,
    frac,
)

ExtendedRational = Union[Fraction, float]  # exact rational or +inf


def tail_factor(length: Fraction) -> ExtendedRational:
    """Measure contribution of infinitely many coordinates each constrained
    to a set of the given length: 0 below 1, 1 at 1, +inf above.

    Callers multiply it onto a nonzero finite product, so 0 * inf never
    arises (the measure convention reads it as 0).
    """
    if length < 1:
        return Fraction(0)
    if length == 1:
        return Fraction(1)
    return INF


@dataclass(frozen=True)
class SparseVector:
    """Finitely supported rational coordinate vector."""

    entries: tuple = ()

    def __post_init__(self):
        if isinstance(self.entries, Mapping):
            items = self.entries.items()
        else:
            items = self.entries
        cleaned = tuple(
            sorted((int(i), frac(v)) for i, v in items if frac(v) != 0)
        )
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def of(cls, mapping: Optional[Mapping[int, object]] = None, **kw) -> "SparseVector":
        items = dict(mapping or {})
        items.update({int(k): v for k, v in kw.items()})
        return cls(tuple(items.items()))

    def get(self, i: int) -> Fraction:
        for j, v in self.entries:
            if j == i:
                return v
        return Fraction(0)

    @property
    def support(self) -> tuple:
        return tuple(i for i, _ in self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else -1

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SparseVector") -> "SparseVector":
        d = dict(self.entries)
        for i, v in other.entries:
            d[i] = d.get(i, Fraction(0)) + v
        return SparseVector(tuple(d.items()))

    def __neg__(self) -> "SparseVector":
        return SparseVector(tuple((i, -v) for i, v in self.entries))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + (-other)


ZERO_VECTOR = SparseVector()


@dataclass(frozen=True)
class LatticeVector:
    """Finitely supported integer vector indexing unit cells of the lattice."""

    entries: tuple = ()

    def __post_init__(self):
        if isinstance(self.entries, Mapping):
            items = self.entries.items()
        else:
            items = self.entries
        cleaned = tuple(sorted((int(i), int(v)) for i, v in items if int(v) != 0))
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def of(cls, mapping: Optional[Mapping[int, int]] = None, **kw) -> "LatticeVector":
        items = dict(mapping or {})
        items.update({int(k): v for k, v in kw.items()})
        return cls(tuple(items.items()))

    @classmethod
    def unit(cls, i: int, value: int = 1) -> "LatticeVector":
        return cls(((i, value),))

    def get(self, i: int) -> int:
        for j, v in self.entries:
            if j == i:
                return v
        return 0

    def to_sparse(self) -> SparseVector:
        return SparseVector(tuple((i, Fraction(v)) for i, v in self.entries))

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        d = dict(self.entries)
        for i, v in other.entries:
            d[i] = d.get(i, 0) + v
        return LatticeVector(tuple(d.items()))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple((i, -v) for i, v in self.entries))

    def sort_key(self):
        return self.entries


ZERO_LATTICE = LatticeVector()


@dataclass(frozen=True)
class Box:
    """Finitely many explicit per-coordinate constraints plus one tail constraint."""

    explicit: tuple = ()
    tail: IntervalUnion = UNIT_UNION

    def __post_init__(self):
        tail = IntervalUnion.coerce(self.tail)
        if isinstance(self.explicit, Mapping):
            items = list(self.explicit.items())
        else:
            items = list(self.explicit)
        entries = [(int(i), IntervalUnion.coerce(c)) for i, c in items]
        if tail.is_empty or any(c.is_empty for _, c in entries):
            object.__setattr__(self, "explicit", ())
            object.__setattr__(self, "tail", EMPTY_UNION)
            return
        # canonical form: no explicit entry equal to the tail constraint
        entries = [(i, c) for i, c in entries if c != tail]
        entries.sort()
        indices = [i for i, _ in entries]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate explicit coordinate index")
        object.__setattr__(self, "explicit", tuple(entries))
        object.__setattr__(self, "tail", tail)

    @classmethod
    def make(cls, explicit: Optional[Mapping[int, object]] = None, tail=UNIT_UNION) -> "Box":
        return cls(tuple((explicit or {}).items()), IntervalUnion.coerce(tail))

    @classmethod
    def empty(cls) -> "Box":
        return EMPTY_BOX

    @property
    def is_empty(self) -> bool:
        return self.tail.is_empty

    @property
    def coords(self) -> tuple:
        return tuple(i for i, _ in self.explicit)

    def constraint(self, i: int) -> IntervalUnion:
        for j, c in self.explicit:
            if j == i:
                return c
        return self.tail

    def intersect(self, other: "Box") -> "Box":
        if self.is_empty or other.is_empty:
            return EMPTY_BOX
        coords = sorted(set(self.coords) | set(other.coords))
        entries = tuple(
            (i, self.constraint(i).intersect(other.constraint(i))) for i in coords
        )
        return Box(entries, self.tail.intersect(other.tail))

    def translate(self, t: SparseVector) -> "Box":
        if self.is_empty:
            return EMPTY_BOX
        coords = sorted(set(self.coords) | set(t.support))
        entries = tuple((i, self.constraint(i).translate(t.get(i))) for i in coords)
        return Box(entries, self.tail)

    def measure(self) -> ExtendedRational:
        """Product of explicit lengths times the tail factor (0 / 1 / +inf)."""
        if self.is_empty:
            return Fraction(0)
        product = Fraction(1)
        for _, c in self.explicit:
            product *= c.total_length
        if product == 0:
            return Fraction(0)  # 0 * inf = 0 convention
        return product * tail_factor(self.tail.total_length)

    def contains_point(self, point: Mapping[int, object]) -> bool:
        """Membership of a finitely supported point (zero beyond its support)."""
        if self.is_empty:
            return False
        pt = {int(i): frac(v) for i, v in point.items()}
        for i in set(self.coords) | set(pt):
            if not self.constraint(i).contains(pt.get(i, Fraction(0))):
                return False
        # all remaining (infinitely many) coordinates carry the value 0
        return self.tail.contains(Fraction(0))

    def issubset(self, other: "Box") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        for i in set(self.coords) | set(other.coords):
            if not self.constraint(i).issubset(other.constraint(i)):
                return False
        return self.tail.issubset(other.tail)

    def __repr__(self):
        if self.is_empty:
            return "Box.empty()"
        body = ", ".join(f"{i}: {c!r}" for i, c in self.explicit)
        return f"Box({{{body}}}, tail={self.tail!r})"


EMPTY_BOX = Box((), EMPTY_UNION)


def unit_cell() -> Box:
    """The unit cell: [0,1] in every coordinate."""
    return Box((), UNIT_UNION)


@dataclass(frozen=True)
class BoxUnion:
    """A finite union of boxes; members may overlap."""

    boxes: tuple = ()

    def __post_init__(self):
        if isinstance(self.boxes, Box):
            boxes = (self.boxes,)
        else:
            boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", tuple(b for b in boxes if not b.is_empty))

    @classmethod
    def of(cls, *boxes: Box) -> "BoxUnion":
        return cls(boxes)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def translate(self, t: SparseVector) -> "BoxUnion":
        return BoxUnion(tuple(b.translate(t) for b in self.boxes))

    def intersect_box(self, other: Box) -> "BoxUnion":
        return BoxUnion(tuple(b.intersect(other) for b in self.boxes))

    def contains_point(self, point: Mapping[int, object]) -> bool:
        return any(b.contains_point(point) for b in self.boxes)

    def simplify(self) -> "BoxUnion":
        """Drop duplicate boxes and boxes contained in another member."""
        kept: list = []
        for b in self.boxes:
            if any(b.issubset(k) for k in kept):
                continue
            kept = [k for k in kept if not k.issubset(b)]
            kept.append(b)
        return BoxUnion(tuple(kept))


def coerce_union(value) -> BoxUnion:
    if isinstance(value, BoxUnion):
        return value
    if isinstance(value, Box):
        return BoxUnion((value,))
    return BoxUnion(tuple(value))


def _atoms_from_endpoints(points: Iterable[Fraction]) -> list:
    """Degenerate points and open gaps between consecutive endpoints."""
    pts = sorted(set(points))
    atoms = []
    for k, p in enumerate(pts):
        atoms.append(Interval.point(p))
        if k + 1 < len(pts):
            atoms.append(Interval.open(p, pts[k + 1]))
    return atoms


def _atom_inside(atom: Interval, constraint: IntervalUnion) -> bool:
    # atom endpoints all appear in the global endpoint set, so membership of a
    # representative point decides containment
    if atom.lo == atom.hi:
        rep = atom.lo
    else:
        rep = (atom.lo + atom.hi) / 2
    return constraint.contains(rep)


def _overlap_components(boxes: list) -> list:
    """Connected components of the pairwise-overlap graph."""
    n = len(boxes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if not boxes[i].intersect(boxes[j]).is_empty:
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(boxes[i])
    return list(groups.values())


def _disjointify_component(boxes: list) -> list:
    tails = {b.tail for b in boxes}
    if len(tails) != 1:
        raise NotDisjointifiable(
            "overlapping boxes with different tails have no finite disjoint refinement"
        )
    tail = boxes[0].tail
    coords = sorted(set().union(*(set(b.coords) for b in boxes)))
    if not coords:
        return [boxes[0]]  # identical up to canonical form
    atom_lists = []
    for c in coords:
        endpoints = []
        for b in boxes:
            endpoints.extend(b.constraint(c).endpoints())
        atoms = [
            a
            for a in _atoms_from_endpoints(endpoints)
            if any(_atom_inside(a, b.constraint(c)) for b in boxes)
        ]
        atom_lists.append(atoms)
    pieces = []
    for combo in itertools.product(*atom_lists):
        if any(
            all(_atom_inside(a, b.constraint(c)) for c, a in zip(coords, combo))
            for b in boxes
        ):
            pieces.append(
                Box(tuple((c, IntervalUnion.of(a)) for c, a in zip(coords, combo)), tail)
            )
    return _merge_pieces(pieces, coords)


def _merge_pieces(pieces: list, coords: list) -> list:
    """Greedily merge disjoint pieces differing in a single coordinate."""
    changed = True
    while changed:
        changed = False
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                a, b = pieces[i], pieces[j]
                diff = [c for c in coords if a.constraint(c) != b.constraint(c)]
                if len(diff) == 1:
                    c = diff[0]
                    merged_constraint = a.constraint(c).union(b.constraint(c))
                    entries = tuple(
                        (k, merged_constraint if k == c else a.constraint(k))
                        for k in coords
                    )
                    merged = Box(entries, a.tail)
                    pieces[i] = merged
                    del pieces[j]
                    changed = True
                    break
            if changed:
                break
    return pieces


def union_disjointify(u: BoxUnion) -> BoxUnion:
    """Equivalent pairwise-disjoint refinement (exact set equality).

    Only coordinates explicit in some member are split.  Overlapping members
    must share their tail constraint; otherwise no finite refinement exists
    and :class:`NotDisjointifiable` is raised.
    """
    boxes = list(dict.fromkeys(u.boxes))  # dedupe, keep order
    if not boxes:
        return BoxUnion(())
    out: list = []
    for component in _overlap_components(boxes):
        if len(component) == 1:
            out.extend(component)
        else:
            out.extend(_disjointify_component(component))
    return BoxUnion(tuple(out))


def _inclusion_exclusion_measure(boxes: list) -> ExtendedRational:
    total = Fraction(0)
    n = len(boxes)
    for r in range(1, n + 1):
        sign = 1 if r % 2 == 1 else -1
        for subset in itertools.combinations(range(n), r):
            inter = boxes[subset[0]]
            for k in subset[1:]:
                inter = inter.intersect(boxes[k])
            m = inter.measure()
            if m == INF:
                return INF
            total += sign * m
    return total


def union_measure(u: BoxUnion) -> ExtendedRational:
    """Exact measure of a finite union of boxes."""
    if u.is_empty:
        return Fraction(0)
    if any(b.measure() == INF for b in u.boxes):
        return INF
    try:
        pieces = union_disjointify(u)
    except NotDisjointifiable:
        return _inclusion_exclusion_measure(list(dict.fromkeys(u.boxes)))
    total = Fraction(0)
    for b in pieces.boxes:
        m = b.measure()
        if m == INF:
            return INF
        total += m
    return total
