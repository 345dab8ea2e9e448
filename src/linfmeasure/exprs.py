"""Expression trees for measurable functions on bounded sequence space.

Functions are structured trees rather than opaque callables so that slicing
to finitely many coordinates, support extraction, and exact integration of
piecewise-constant forms are all possible.  Evaluation at finitely supported
rational points is exact.  Slicing, like ``quadrature.normalize``, carries the
shifts of ``Translate`` nodes down the tree to the leaves.  ``support`` is read
off the separable normal form of ``quadrature.normalize``, one box per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Tuple, Union

from .boxes import Box, BoxUnion, SparseVector, ZERO_VECTOR, coerce_union
from .errors import SeriesNotSummable
from .intervals import EMPTY_UNION, IntervalUnion, UNIT_UNION, frac


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
    """Univariate piecewise polynomial applied to one coordinate; 0 outside.
    A point takes the first piece that holds it: each piece is stored
    without the points of the earlier ones."""

    index: int
    pieces: tuple  # ((IntervalUnion, coeffs low-to-high), ...)

    def __post_init__(self):
        norm, earlier = [], EMPTY_UNION
        for iu, coeffs in self.pieces:
            iu, cs = IntervalUnion.coerce(iu), [frac(c) for c in coeffs] or [Fraction(0)]
            while len(cs) > 1 and cs[-1] == 0:  # one representation per polynomial
                cs.pop()
            norm.append((iu.difference(earlier), tuple(cs)))
            earlier = earlier.union(iu)
        object.__setattr__(self, "pieces", tuple(norm))


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
    evaluation point's default value.  It is needed to evaluate, slice or
    integrate the series exactly; without it each raises
    :class:`SeriesNotSummable`.
    """

    term: Callable[[int], Expr]
    start: int = 1
    sparse_cutoff: Optional[Callable[[int], int]] = None
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


def evaluate(f: Expr, point: Point):
    """Exact evaluation at a finitely supported point (zero beyond support)."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Coord):
        return _point_get(point, f.index)
    if isinstance(f, Sum):
        return sum(evaluate(t, point) for t in f.terms)
    if isinstance(f, Prod):
        acc = Fraction(1)
        for g in f.factors:
            acc *= evaluate(g, point)
            if acc == 0:
                return acc
        return acc
    if isinstance(f, Scale):
        return f.coef * evaluate(f.arg, point)
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
        return evaluate(f.arg, shifted)
    if isinstance(f, Clamp):
        v = evaluate(f.arg, point)
        return v if abs(v) <= f.bound else Fraction(0)
    if isinstance(f, Abs):
        return abs(evaluate(f.arg, point))
    if isinstance(f, Series):
        return _evaluate_series(f, point)
    raise TypeError(f"unknown expression node {type(f).__name__}")


def _evaluate_series(f: Series, point: Point):
    if f.sparse_cutoff is None:
        raise SeriesNotSummable("series needs a sparse cutoff to evaluate exactly")
    cutoff = max(f.sparse_cutoff(_max_support(point)), f.start - 1)
    return sum((evaluate(f.term(n), point) for n in range(f.start, cutoff + 1)), Fraction(0))


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
            # one polynomial x + d_i, as in the whole-space form
            di = d.get(f.index)
            return Translate(f, SparseVector(((f.index, di),))) if di != 0 else f
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
        if f.index <= n:
            return _shift_piecewise(f, d.get(f.index))
        return Const(evaluate(f, {f.index: a.get(f.index)}))
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


def _shift_piecewise(f: Piecewise, c: Fraction) -> Piecewise:
    """The node x -> f(x + c e_i) on f's coordinate i; f itself for c = 0."""
    if c == 0:
        return f
    return Piecewise(
        f.index, tuple((iu.translate(-c), _poly_shift(coeffs, c)) for iu, coeffs in f.pieces)
    )


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


def support(f: Expr):
    """A box union S with {f != 0} contained in S and S \\ {f != 0} null,
    for structured trees; UNKNOWN otherwise.

    S is read off the separable normal form of ``_support_tree(f)``: each
    term gives the box of its factors' unions (empty for a zero factor) and
    its tail.  A term with no tail leaves some coordinate unbounded, so its
    support is UNKNOWN.
    """
    from .quadrature import normalize  # quadrature imports this module

    tree = _support_tree(f)
    if tree is UNKNOWN:
        return UNKNOWN
    boxes = []
    for t in normalize(tree):
        # a free factor (a coefficient tuple) only comes in a term with no tail
        explicit = [
            (i, fac.union if any(fac.coeffs) else EMPTY_UNION)
            for i, fac in t.factors
            if type(fac) is not tuple
        ]
        if any(c.is_empty for _, c in explicit):
            continue
        if t.tail is None:
            return UNKNOWN
        boxes.append(Box(tuple(explicit), t.tail))
    return BoxUnion(tuple(boxes)).simplify()


def _support_tree(f: Expr):
    """A tree with the support of f that ``normalize`` reads on the whole
    space, or UNKNOWN: ``Clamp`` and ``Abs`` give way to their argument
    (``normalize`` would restrict them to the unit cube), a ``Series`` to
    the indicator of its support hint, and an indicator to one indicator
    per box, so that no two boxes of a region are ever disjointified."""
    if isinstance(f, (Sum, Prod)):
        parts = []
        for g in f.terms if isinstance(f, Sum) else f.factors:
            p = _support_tree(g)
            if p is UNKNOWN:
                return UNKNOWN
            parts.append(p)
        return type(f)(tuple(parts))
    if isinstance(f, Scale):
        if f.coef == 0:
            return Const(Fraction(0))
        arg = _support_tree(f.arg)
        return UNKNOWN if arg is UNKNOWN else Scale(f.coef, arg)
    if isinstance(f, Translate):
        arg = _support_tree(f.arg)
        return UNKNOWN if arg is UNKNOWN else Translate(arg, f.shift)
    if isinstance(f, (Clamp, Abs)):
        return _support_tree(f.arg)
    if isinstance(f, Series):
        if f.support_hint is None:
            return UNKNOWN
        return _support_tree(Indicator(f.support_hint))
    if isinstance(f, Indicator):
        return Sum(tuple(Indicator(BoxUnion((b,))) for b in f.region.boxes))
    if isinstance(f, (Const, Coord, Piecewise)):
        return f
    raise TypeError(f"unknown expression node {type(f).__name__}")
