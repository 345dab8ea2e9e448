"""Expression trees for measurable functions on bounded sequence space.

Functions are structured trees rather than opaque callables so that slicing
to finitely many coordinates, support extraction, and exact integration of
piecewise-constant forms are all possible.  Evaluation at finitely supported
rational points is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Tuple, Union

from .boxes import Box, BoxUnion, SparseVector, ZERO_VECTOR, coerce_union
from .errors import SeriesNotSummable
from .intervals import IntervalUnion, UNIT_UNION, frac


class Expr:
    """Base class for all function-expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))


@dataclass(frozen=True)
class Coord(Expr):
    index: int


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple


@dataclass(frozen=True)
class Scale(Expr):
    coef: Fraction
    arg: Expr

    def __post_init__(self):
        object.__setattr__(self, "coef", frac(self.coef))


@dataclass(frozen=True)
class Piecewise(Expr):
    """Univariate piecewise polynomial applied to one coordinate; 0 outside."""

    index: int
    pieces: tuple  # ((IntervalUnion, coeffs low-to-high), ...)

    def __post_init__(self):
        norm = tuple(
            (IntervalUnion.coerce(iu), tuple(frac(c) for c in coeffs))
            for iu, coeffs in self.pieces
        )
        object.__setattr__(self, "pieces", norm)


@dataclass(frozen=True)
class Indicator(Expr):
    region: BoxUnion

    def __post_init__(self):
        object.__setattr__(self, "region", coerce_union(self.region))


@dataclass(frozen=True)
class Translate(Expr):
    """translate(f, t)(x) = f(x + t)."""

    arg: Expr
    shift: SparseVector


@dataclass(frozen=True)
class Clamp(Expr):
    """Magnitude truncation: value * 1{|value| <= bound}."""

    arg: Expr
    bound: Union[Fraction, float]


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr


@dataclass(frozen=True)
class Series(Expr):
    """Rule-generated series sum_{n >= start} term(n).

    ``sparse_cutoff(k)`` must return an index beyond which every term
    vanishes identically whenever all coordinates above k match the
    evaluation point's default value; ``tail_bound(k)`` must bound
    sum_{n > k} |term(n)| uniformly on the domain.  At least one of the two
    is needed to evaluate the series rigorously.
    """

    term: Callable[[int], Expr]
    start: int = 1
    sparse_cutoff: Optional[Callable[[int], int]] = None
    tail_bound: Optional[Callable[[int], Fraction]] = None
    support_hint: Optional[BoxUnion] = None


def const(x) -> Const:
    return Const(frac(x))


def coord(i: int) -> Coord:
    return Coord(int(i))


def add(*terms: Expr) -> Expr:
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def mul(*factors: Expr) -> Expr:
    return factors[0] if len(factors) == 1 else Prod(tuple(factors))


def sub(a: Expr, b: Expr) -> Expr:
    return Sum((a, Scale(Fraction(-1), b)))


def scale(c, f: Expr) -> Scale:
    return Scale(frac(c), f)


def indicator(region) -> Indicator:
    return Indicator(coerce_union(region))


def translate(f: Expr, t: SparseVector) -> Expr:
    return Translate(f, t)


def piecewise_const(index: int, pieces) -> Piecewise:
    """pieces: iterable of (interval-like, constant value)."""
    return Piecewise(
        int(index),
        tuple((IntervalUnion.coerce(iu), (frac(v),)) for iu, v in pieces),
    )


def _poly_at(coeffs: Tuple[Fraction, ...], x) -> Fraction:
    acc = Fraction(0) if isinstance(x, Fraction) else 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


Point = Mapping[int, object]


def _point_get(point: Point, i: int) -> Fraction:
    v = point.get(i, Fraction(0))
    return frac(v) if not isinstance(v, float) else v


def _max_support(point: Point) -> int:
    keys = [i for i, v in point.items() if v]
    return max(keys) if keys else -1


def evaluate(f: Expr, point: Point, series_tol: Fraction = Fraction(1, 10**12)):
    """Exact evaluation at a finitely supported point (zero beyond support)."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Coord):
        return _point_get(point, f.index)
    if isinstance(f, Sum):
        return sum(evaluate(t, point, series_tol) for t in f.terms)
    if isinstance(f, Prod):
        acc = Fraction(1)
        for g in f.factors:
            acc *= evaluate(g, point, series_tol)
            if acc == 0:
                return acc
        return acc
    if isinstance(f, Scale):
        return f.coef * evaluate(f.arg, point, series_tol)
    if isinstance(f, Piecewise):
        x = _point_get(point, f.index)
        for iu, coeffs in f.pieces:
            if iu.contains(x):
                return _poly_at(coeffs, x)
        return Fraction(0)
    if isinstance(f, Indicator):
        return Fraction(1) if f.region.contains_point(point) else Fraction(0)
    if isinstance(f, Translate):
        shifted = dict(point)
        for i, v in f.shift.entries:
            shifted[i] = _point_get(point, i) + v
        return evaluate(f.arg, shifted, series_tol)
    if isinstance(f, Clamp):
        v = evaluate(f.arg, point, series_tol)
        return v if abs(v) <= f.bound else Fraction(0)
    if isinstance(f, Abs):
        return abs(evaluate(f.arg, point, series_tol))
    if isinstance(f, Series):
        return _evaluate_series(f, point, series_tol)
    raise TypeError(f"unknown expression node {type(f).__name__}")


def _evaluate_series(f: Series, point: Point, series_tol: Fraction):
    if f.sparse_cutoff is not None:
        cutoff = max(f.sparse_cutoff(_max_support(point)), f.start - 1)
        return sum(
            (evaluate(f.term(n), point, series_tol) for n in range(f.start, cutoff + 1)),
            Fraction(0),
        )
    if f.tail_bound is not None:
        total = Fraction(0)
        n = f.start
        while f.tail_bound(n - 1) > series_tol:
            total += evaluate(f.term(n), point, series_tol)
            n += 1
            if n - f.start > 100_000:
                raise SeriesNotSummable("tail bound decays too slowly to evaluate")
        return total
    raise SeriesNotSummable("series has neither a sparse cutoff nor a tail bound")


@dataclass(frozen=True)
class Anchor:
    """Evaluation anchor: the values used beyond the sliced coordinates, and
    the origin of the cell the slice lives in."""

    entries: SparseVector = ZERO_VECTOR
    cell_origin: SparseVector = ZERO_VECTOR


ZERO_ANCHOR = Anchor()


@dataclass(frozen=True)
class SlicedFunction:
    """A function of the first ``dims`` coordinates only."""

    dims: int
    body: Expr

    def evaluate(self, point: Point):
        return evaluate(self.body, point)


def slice_function(f: Expr, anchor: Anchor, n: int) -> SlicedFunction:
    """Restrict f to coordinates 0..n: coordinates i <= n are offset by the
    cell origin, coordinates beyond n are frozen at the anchor values."""
    body = _slice(f, anchor.cell_origin, anchor.entries, n)
    return SlicedFunction(dims=n + 1, body=body)


def _slice(f: Expr, d: SparseVector, a: SparseVector, n: int) -> Expr:
    if isinstance(f, Const):
        return f
    if isinstance(f, Coord):
        if f.index <= n:
            di = d.get(f.index)
            return Sum((Coord(f.index), Const(di))) if di != 0 else f
        return Const(a.get(f.index))
    if isinstance(f, Sum):
        return Sum(tuple(_slice(t, d, a, n) for t in f.terms))
    if isinstance(f, Prod):
        parts = tuple(_slice(t, d, a, n) for t in f.factors)
        if any(isinstance(p, Const) and p.value == 0 for p in parts):
            return Const(Fraction(0))
        return Prod(parts)
    if isinstance(f, Scale):
        return Scale(f.coef, _slice(f.arg, d, a, n))
    if isinstance(f, Piecewise):
        i = f.index
        if i <= n:
            di = d.get(i)
            if di == 0:
                return f
            pieces = tuple(
                (iu.translate(-di), _poly_shift(coeffs, di)) for iu, coeffs in f.pieces
            )
            return Piecewise(i, pieces)
        return Const(evaluate(f, {i: a.get(i)}))
    if isinstance(f, Indicator):
        kept = []
        for b in f.region.boxes:
            sliced = _slice_box(b, d, a, n)
            if sliced is not None:
                kept.append(sliced)
        if not kept:
            return Const(Fraction(0))
        return Indicator(BoxUnion(tuple(kept)))
    if isinstance(f, Translate):
        return _slice(f.arg, d + f.shift, a + f.shift, n)
    if isinstance(f, Clamp):
        return Clamp(_slice(f.arg, d, a, n), f.bound)
    if isinstance(f, Abs):
        return Abs(_slice(f.arg, d, a, n))
    if isinstance(f, Series):
        if f.sparse_cutoff is None:
            raise SeriesNotSummable("series needs a sparse cutoff to slice exactly")
        cutoff = max(f.sparse_cutoff(max(n, a.max_index)), f.start - 1)
        terms = tuple(_slice(f.term(k), d, a, n) for k in range(f.start, cutoff + 1))
        if not terms:
            return Const(Fraction(0))
        return Sum(terms)
    raise TypeError(f"unknown expression node {type(f).__name__}")


def slice_horizon(f: Expr, anchor: Anchor) -> Optional[int]:
    """An h with slice_function(f, anchor, n).body the same for every
    n >= h, or None when no such h is known.

    h is the largest coordinate that the tree or the anchor names:
    coordinate and piecewise indices, explicit box coordinates, translation
    shifts, and the anchor's entries and cell origin.  Past it, a slice
    only adds free coordinates, each a unit-interval factor of 1.  A
    ``Series`` brings in new terms as n grows, and a box tail other than
    [0,1] constrains every new coordinate, so both give None.
    """
    h = _horizon(f)
    if h is None:
        return None
    return max(h, anchor.entries.max_index, anchor.cell_origin.max_index, 0)


def _horizon(f: Expr) -> Optional[int]:
    if isinstance(f, Const):
        return -1
    if isinstance(f, (Coord, Piecewise)):
        return f.index
    if isinstance(f, (Sum, Prod)):
        parts = [_horizon(t) for t in (f.terms if isinstance(f, Sum) else f.factors)]
        return None if None in parts else max(parts, default=-1)
    if isinstance(f, (Scale, Clamp, Abs)):
        return _horizon(f.arg)
    if isinstance(f, Indicator):
        if any(b.tail != UNIT_UNION for b in f.region.boxes):
            return None
        return max((i for b in f.region.boxes for i in b.coords), default=-1)
    if isinstance(f, Translate):
        h = _horizon(f.arg)
        return None if h is None else max(h, f.shift.max_index)
    if isinstance(f, Series):
        return None
    raise TypeError(f"unknown expression node {type(f).__name__}")


def _slice_box(b: Box, d: SparseVector, a: SparseVector, n: int) -> Optional[Box]:
    """Restrict a box constraint to coordinates 0..n, or None if the anchor
    falls outside the constraint on some later coordinate."""
    # coordinates beyond n are pinned to the anchor
    later = [i for i in b.coords if i > n] + [i for i in a.support if i > n]
    for i in sorted(set(later)):
        if not b.constraint(i).contains(a.get(i)):
            return None
    # infinitely many coordinates beyond n carry the anchor default value 0
    if not b.tail.contains(Fraction(0)):
        return None
    explicit, shifts = dict(b.explicit), dict(d.entries)
    entries = []
    for i in range(n + 1):
        c = explicit.get(i, b.tail)
        if i in shifts:
            c = c.translate(-shifts[i])
        entries.append((i, c))
    return Box(tuple(entries), UNIT_UNION)


def _poly_shift(coeffs: Tuple[Fraction, ...], c: Fraction) -> Tuple[Fraction, ...]:
    """Coefficients of p(x + c) given those of p(x), via Horner."""
    res = [Fraction(0)]
    for k in range(len(coeffs) - 1, -1, -1):
        new = [Fraction(0)] * (len(res) + 1)
        for j, r in enumerate(res):
            new[j + 1] += r
            new[j] += c * r
        new[0] += coeffs[k]
        res = new
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return tuple(res)


UNKNOWN = object()  # sentinel: support not computable for this tree


@dataclass
class _PartialBox:
    constraints: dict  # coord -> IntervalUnion
    tail: Optional[IntervalUnion]  # None = unconstrained

    def to_box(self) -> Box:
        assert self.tail is not None
        return Box(tuple(self.constraints.items()), self.tail)


def support(f: Expr):
    """A box union S with {f != 0} contained in S and S \\ {f != 0} null,
    for structured trees; UNKNOWN otherwise."""
    parts = _support(f)
    if parts is UNKNOWN:
        return UNKNOWN
    boxes = []
    for p in parts:
        if p.tail is None:
            return UNKNOWN
        boxes.append(p.to_box())
    return BoxUnion(tuple(boxes)).simplify()


def _support(f: Expr):
    if isinstance(f, Const):
        return [] if f.value == 0 else [_PartialBox({}, None)]
    if isinstance(f, Coord):
        # zero only on a null hyperplane
        return [_PartialBox({}, None)]
    if isinstance(f, Scale):
        return [] if f.coef == 0 else _support(f.arg)
    if isinstance(f, Sum):
        out = []
        for t in f.terms:
            p = _support(t)
            if p is UNKNOWN:
                return UNKNOWN
            out.extend(p)
        return out
    if isinstance(f, Prod):
        acc = [_PartialBox({}, None)]
        for g in f.factors:
            p = _support(g)
            if p is UNKNOWN:
                return UNKNOWN
            acc = _cross_intersect(acc, p)
        return acc
    if isinstance(f, Piecewise):
        live = IntervalUnion(())
        for iu, coeffs in f.pieces:
            if any(c != 0 for c in coeffs):
                live = live.union(iu)
        return [] if live.is_empty else [_PartialBox({f.index: live}, None)]
    if isinstance(f, Indicator):
        return [
            _PartialBox({i: c for i, c in b.explicit}, b.tail) for b in f.region.boxes
        ]
    if isinstance(f, Translate):
        parts = _support(f.arg)
        if parts is UNKNOWN:
            return UNKNOWN
        out = []
        for p in parts:
            constraints = dict(p.constraints)
            for i, v in f.shift.entries:
                base = constraints.get(i, p.tail)
                if base is None:
                    continue  # shift of an unconstrained coordinate
                constraints[i] = base.translate(-v)
            out.append(_PartialBox(constraints, p.tail))
        return out
    if isinstance(f, (Clamp, Abs)):
        return _support(f.arg)
    if isinstance(f, Series):
        if f.support_hint is None:
            return UNKNOWN
        return [
            _PartialBox({i: c for i, c in b.explicit}, b.tail)
            for b in f.support_hint.boxes
        ]
    raise TypeError(f"unknown expression node {type(f).__name__}")


def _cross_intersect(a: list, b: list) -> list:
    out = []
    for p in a:
        for q in b:
            constraints = dict(p.constraints)
            for i, c in q.constraints.items():
                constraints[i] = constraints[i].intersect(c) if i in constraints else c
            if p.tail is None:
                tail = q.tail
            elif q.tail is None:
                tail = p.tail
            else:
                tail = p.tail.intersect(q.tail)
            if tail is not None and tail.is_empty:
                continue
            if any(c.is_empty for c in constraints.values()):
                continue
            out.append(_PartialBox(constraints, tail))
    return out
