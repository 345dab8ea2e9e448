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

A union is measured after it is split into disjoint pieces; that split
compares a box only with the kept pieces whose hulls meet its own on one
sweep coordinate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

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
        if not other.entries:
            return self
        if not self.entries:
            return other
        d = dict(self.entries)
        for i, v in other.entries:
            d[i] = d.get(i, Fraction(0)) + v
        return SparseVector(tuple(d.items()))

    def __neg__(self) -> "SparseVector":
        # negating canonical entries keeps them sorted, nonzero Fractions
        v = object.__new__(SparseVector)
        object.__setattr__(v, "entries", tuple((i, -x) for i, x in self.entries))
        return v

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


@dataclass(frozen=True)
class Box:
    """Finitely many explicit per-coordinate constraints plus one tail constraint."""

    explicit: tuple = ()
    tail: IntervalUnion = UNIT_UNION

    def __post_init__(self):
        tail = IntervalUnion.coerce(self.tail)
        if isinstance(self.explicit, Mapping):
            items = self.explicit.items()
        else:
            items = self.explicit
        coerce = IntervalUnion.coerce
        entries = []
        empty = tail.is_empty
        for i, c in items:
            i, c = int(i), coerce(c)
            if not c.components:
                empty = True
            elif c != tail:
                # canonical form: no explicit entry equal to the tail constraint
                entries.append((i, c))
        if empty:
            object.__setattr__(self, "explicit", ())
            object.__setattr__(self, "tail", EMPTY_UNION)
            return
        entries.sort(key=lambda e: e[0])
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
        explicit = dict(self.explicit)
        for i, v in t.entries:
            explicit[i] = explicit.get(i, self.tail).translate(v)
        return Box(tuple(explicit.items()), self.tail)

    def measure(self) -> ExtendedRational:
        """Product of explicit lengths times the tail factor (0 / 1 / +inf)."""
        if self.is_empty:
            return Fraction(0)
        num = den = 1
        for _, c in self.explicit:
            n, d = c.length_ratio()
            if not n:
                return Fraction(0)  # 0 * inf = 0 convention
            num *= n
            den *= d
        return Fraction(num, den) * tail_factor(self.tail.total_length)

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


def _unions_meet(u: IntervalUnion, v: IntervalUnion) -> bool:
    """Whether two interval unions share a point (components are sorted,
    nonempty and pairwise apart, so one merge walk decides it)."""
    a, b = u.components, v.components
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x.hi < y.lo or (x.hi == y.lo and not (x.hi_closed and y.lo_closed)):
            i += 1
        elif y.hi < x.lo or (y.hi == x.lo and not (y.hi_closed and x.lo_closed)):
            j += 1
        else:
            return True
    return False


def _boxes_meet(a: Box, b: Box) -> bool:
    """Whether two nonempty boxes share a point, decided coordinate by
    coordinate without building their intersection."""
    if a.tail != b.tail and not _unions_meet(a.tail, b.tail):
        return False
    explicit = dict(a.explicit)
    for i, c in b.explicit:
        if not _unions_meet(explicit.pop(i, a.tail), c):
            return False
    return all(_unions_meet(c, b.tail) for c in explicit.values())


def _box_minus(b: Box, a: Box) -> list:
    """Disjoint boxes whose union is b minus a, for boxes with one tail.

    Walking the explicit coordinates c_1 < c_2 < ..., piece j keeps the
    points of b that lie in a on c_1 .. c_{j-1} and outside a on c_j; on
    every other coordinate a's constraint is the shared tail, which holds
    all of b's.  So b minus a has at most one piece per explicit coordinate.
    """
    if not _boxes_meet(b, a):
        return [b]
    tail = b.tail
    current = dict(b.explicit)
    other = dict(a.explicit)
    pieces = []
    for i in sorted(current.keys() | other.keys()):
        mine, theirs = current.get(i, tail), other.get(i, tail)
        rest = mine.difference(theirs)
        if rest.components:
            pieces.append(Box(tuple({**current, i: rest}.items()), tail))
            current[i] = mine.intersect(theirs)
    return pieces


def _sweep_axis(members) -> int:
    """The explicit coordinate that most members constrain, the lowest index
    on ties; 0 when none has one (every hull is then read from a tail)."""
    counts: dict = {}
    for b in members:
        for i, _ in b.explicit:
            counts[i] = counts.get(i, 0) + 1
    return max(sorted(counts), key=counts.get, default=0)


def _hull(c: IntervalUnion) -> tuple:
    """The smallest closed interval holding a nonempty constraint, as (lo, hi)."""
    return c.components[0].lo, c.components[-1].hi


def union_disjointify(u: BoxUnion) -> BoxUnion:
    """Equivalent pairwise-disjoint refinement (exact set equality).

    Members are taken in order; each is cut by box difference against the
    pieces kept so far that share its tail, so only coordinates explicit in
    some member are split.  Members that meet with different tails have no
    finite disjoint refinement: :class:`NotDisjointifiable` is raised.

    A member is compared only with the kept pieces whose hulls on one sweep
    coordinate meet its own: a piece whose hull is apart misses the member
    there, so cutting by it would change nothing and the tail check would
    pass.  Kept pieces are indexed by hull start; one that meets the hull
    [lo, hi] starts in [lo - w, hi], where no kept hull is wider than w.
    """
    if len(u.boxes) <= 1:
        return u
    members = tuple(dict.fromkeys(u.boxes))  # dedupe, keep order
    axis = _sweep_axis(members)
    last = members[-1]
    out: list = []  # kept pieces, in the order they were kept
    his: list = []  # hull end of each kept piece
    los: list = []  # hull starts of the kept pieces, sorted,
    keyed: list = []  # and the index in out of each
    width = 0
    for b in members:
        lo, hi = _hull(b.constraint(axis))
        start = bisect_left(los, lo - width)
        near = keyed[start:bisect_right(los, hi, start)]
        parts = [b]
        for k in sorted([k for k in near if his[k] >= lo]):
            p = out[k]
            if p.tail != b.tail:
                if _boxes_meet(p, b):
                    raise NotDisjointifiable(
                        "overlapping boxes with different tails have no finite "
                        "disjoint refinement"
                    )
            else:
                parts = [q for part in parts for q in _box_minus(part, p)]
        if b is last:  # no later member is compared with its pieces
            out.extend(parts)
            break
        width = max(width, hi - lo)  # a piece's hull lies in its member's
        for q in parts:
            q_lo, q_hi = (lo, hi) if q is b else _hull(q.constraint(axis))
            at = bisect_right(los, q_lo)
            los.insert(at, q_lo)
            keyed.insert(at, len(out))
            his.append(q_hi)
            out.append(q)
    return BoxUnion(tuple(out))


def _tail_class(tail: IntervalUnion) -> IntervalUnion:
    """The closure of the tail's nondegenerate components: two tails have
    the same class exactly when they differ in finitely many points."""
    return IntervalUnion(
        tuple(Interval._canonical(c.lo, c.hi) for c in tail.components if c.lo < c.hi)
    )


def union_measure(u: BoxUnion) -> ExtendedRational:
    """Exact measure of a finite union of boxes, by the tail law.

    Null boxes (tail shorter than 1, or a null explicit constraint) add
    nothing, and a box with a longer tail makes the union infinite.  The
    rest have tails of length exactly 1, and two of them whose tails are not
    equal up to finitely many points meet in a tail shorter than 1, a null
    set.  So the measure is a sum over tail classes, each the measure of a
    disjoint refinement after the class's closed tail is swapped in (the
    swap changes each box by a null set only).
    """
    classes: dict = {}
    for b in u.boxes:
        m = b.measure()
        if m == INF:
            return INF
        if m:
            classes.setdefault(_tail_class(b.tail), []).append(b)
    total = Fraction(0)
    for tail, members in classes.items():
        same = BoxUnion(
            tuple(b if b.tail == tail else Box(b.explicit, tail) for b in members)
        )
        for piece in union_disjointify(same).boxes:
            total += piece.measure()
    return total
