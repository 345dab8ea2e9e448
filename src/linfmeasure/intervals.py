"""Exact rational intervals and finite disjoint unions of intervals.

All endpoints are ``fractions.Fraction``; set operations are exact and
boundary flags (open/closed) are tracked so that intersections and subset
tests are set-theoretically correct, not merely correct up to null sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

INF = float("inf")

RationalLike = Union[Fraction, int, str]


def frac(x: RationalLike) -> Fraction:
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Interval:
    """A bounded rational interval; the empty set has one canonical value."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        lo, hi = frac(self.lo), frac(self.hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        if lo == hi and not (self.lo_closed and self.hi_closed):
            # half-open or open degenerate interval is empty; canonicalize
            lo = hi = Fraction(0)
            object.__setattr__(self, "lo_closed", False)
            object.__setattr__(self, "hi_closed", False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(frac(lo), frac(hi))

    @classmethod
    def open(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(frac(lo), frac(hi), False, False)

    @classmethod
    def point(cls, x: RationalLike) -> "Interval":
        return cls(frac(x), frac(x))

    @classmethod
    def empty(cls) -> "Interval":
        return EMPTY_INTERVAL

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not self.lo_closed

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        if self.is_empty:
            return False
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False

    @classmethod
    def _canonical(
        cls, lo: Fraction, hi: Fraction, lo_closed: bool = True, hi_closed: bool = True
    ) -> "Interval":
        """Build an interval already known to be canonical: Fraction
        endpoints with lo < hi, or a closed point.  Skips validation."""
        iv = object.__new__(cls)
        fields = iv.__dict__
        fields["lo"], fields["hi"] = lo, hi
        fields["lo_closed"], fields["hi_closed"] = lo_closed, hi_closed
        return iv

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        if self.lo > other.lo or (self.lo == other.lo and not self.lo_closed):
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = other.lo, other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and not self.hi_closed):
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = other.hi, other.hi_closed
        if lo < hi or (lo == hi and lo_closed and hi_closed):
            return Interval._canonical(lo, hi, lo_closed, hi_closed)
        return EMPTY_INTERVAL

    def translate(self, c: RationalLike) -> "Interval":
        if self.is_empty:
            return EMPTY_INTERVAL
        c = frac(c)
        return Interval._canonical(
            self.lo + c, self.hi + c, self.lo_closed, self.hi_closed
        )

    def issubset(self, other: "Interval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        lo_ok = self.lo > other.lo or (
            self.lo == other.lo and (other.lo_closed or not self.lo_closed)
        )
        hi_ok = self.hi < other.hi or (
            self.hi == other.hi and (other.hi_closed or not self.hi_closed)
        )
        return lo_ok and hi_ok

    def try_join(self, other: "Interval"):
        """Union with ``other`` if it is again an interval, else None."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        a, b = (self, other) if (self.lo, not self.lo_closed) <= (other.lo, not other.lo_closed) else (other, self)
        if b.lo > a.hi or (b.lo == a.hi and not (a.hi_closed or b.lo_closed)):
            return None  # a genuine gap remains
        lo, lo_closed = a.lo, a.lo_closed or (b.lo == a.lo and b.lo_closed)
        if a.hi > b.hi or (a.hi == b.hi and a.hi_closed):
            hi, hi_closed = a.hi, a.hi_closed or (b.hi == a.hi and b.hi_closed)
        else:
            hi, hi_closed = b.hi, b.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

    def __repr__(self):
        if self.is_empty:
            return "Interval.empty()"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


EMPTY_INTERVAL = Interval(Fraction(0), Fraction(0), False, False)

IntervalLike = Union[Interval, "IntervalUnion", tuple, list]


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of intervals, normalized to disjoint non-touching components."""

    components: tuple = ()

    def __post_init__(self):
        comps = self.components
        if type(comps) is tuple and len(comps) == 1 and comps[0].lo_closed:
            return  # one nonempty interval is already canonical
        comps = [c for c in comps if not c.is_empty]
        comps.sort(key=lambda c: (c.lo, not c.lo_closed))
        merged: list = []
        for c in comps:
            if merged:
                joined = merged[-1].try_join(c)
                if joined is not None:
                    merged[-1] = joined
                    continue
            merged.append(c)
        object.__setattr__(self, "components", tuple(merged))

    @classmethod
    def of(cls, *intervals: Interval) -> "IntervalUnion":
        return cls(tuple(intervals))

    @classmethod
    def coerce(cls, value: IntervalLike) -> "IntervalUnion":
        if isinstance(value, IntervalUnion):
            return value
        if isinstance(value, Interval):
            return cls((value,))
        if isinstance(value, (tuple, list)):
            if len(value) == 2 and not isinstance(value[0], (Interval, tuple, list)):
                # a bare (lo, hi) pair; with lo < hi (compared on integers,
                # denominators being positive) it is already canonical
                lo, hi = frac(value[0]), frac(value[1])
                if lo.numerator * hi.denominator < hi.numerator * lo.denominator:
                    return cls((Interval._canonical(lo, hi),))
                return cls((Interval(lo, hi),))
            return cls(tuple(cls._coerce_item(x) for x in value))
        raise TypeError(f"cannot interpret {value!r} as an interval union")

    @staticmethod
    def _coerce_item(x) -> Interval:
        if isinstance(x, Interval):
            return x
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return Interval.closed(x[0], x[1])
        raise TypeError(f"cannot interpret {x!r} as an interval")

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def total_length(self) -> Fraction:
        return Fraction(*self.length_ratio())

    def length_ratio(self) -> tuple:
        """Total length as an unreduced (numerator, denominator) pair of
        ints, so that products of lengths need one Fraction at the end."""
        num, den = 0, 1
        for c in self.components:
            lo, hi = c.lo, c.hi
            d = lo.denominator * hi.denominator
            length = hi.numerator * lo.denominator - lo.numerator * hi.denominator
            num = num * d + length * den
            den *= d
        return num, den

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.components, other.components
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if x is not y and not (
                x.hi == y.hi
                and x.lo == y.lo
                and x.lo_closed == y.lo_closed
                and x.hi_closed == y.hi_closed
            ):
                return False
        return True

    def __hash__(self):
        # unions key the per-slice grouping in quadrature, so the hash is
        # computed once per object (it is immutable)
        try:
            return self._hash
        except AttributeError:
            h = hash(self.components)
            object.__setattr__(self, "_hash", h)
            return h

    def contains(self, x) -> bool:
        return any(c.contains(x) for c in self.components)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = [
            a.intersect(b)
            for a, b in itertools.product(self.components, other.components)
        ]
        return IntervalUnion(tuple(pieces))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.components + other.components)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Exact set difference; an end removed by ``other`` flips its flag."""
        out = []
        for a in self.components:
            lo, lo_closed, hi, hi_closed = a.lo, a.lo_closed, a.hi, a.hi_closed
            for b in other.components:  # sorted, so the cut moves rightwards
                if b.hi < lo or (b.hi == lo and not (b.hi_closed and lo_closed)):
                    continue  # b lies left of what remains of a
                if b.lo > hi or (b.lo == hi and not (b.lo_closed and hi_closed)):
                    break  # b and all later components lie right of a
                if b.lo >= lo:
                    out.append(Interval(lo, b.lo, lo_closed, not b.lo_closed))
                if b.hi > hi or (b.hi == hi and (b.hi_closed or not hi_closed)):
                    lo = None  # b covers the rest of a
                    break
                lo, lo_closed = b.hi, not b.hi_closed
            if lo is not None:
                out.append(Interval(lo, hi, lo_closed, hi_closed))
        return IntervalUnion(tuple(out))

    def translate(self, c: RationalLike) -> "IntervalUnion":
        return IntervalUnion(tuple(i.translate(c) for i in self.components))

    def issubset(self, other: "IntervalUnion") -> bool:
        # components are normalized (disjoint, non-touching), so each component
        # of self must fit inside a single component of other
        return all(
            any(c.issubset(o) for o in other.components) for c in self.components
        )

    def __repr__(self):
        if self.is_empty:
            return "IU()"
        return "IU(" + " u ".join(repr(c) for c in self.components) + ")"


EMPTY_UNION = IntervalUnion(())
UNIT_INTERVAL = Interval.closed(0, 1)
UNIT_UNION = IntervalUnion.of(UNIT_INTERVAL)
