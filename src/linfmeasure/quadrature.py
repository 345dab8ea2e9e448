"""The separable normal form, and exact integration of slices over [0,1]^dims.

``normalize`` rewrites a structured expression as a sum of separable terms
``coef * prod_i factor_i(x_i) * 1{x_j in tail for every other j}``.  A
factor is one univariate polynomial on an interval union (zero outside it)
or a free polynomial on the whole axis; no tail leaves the other coordinates
unconstrained.  The form holds on the whole space, so Fubini splits read it
directly; ``_normalize`` with a series reader alone decides which trees
have it.  A ``Translate`` adds its shift to one carried down the tree, and
each leaf applies it once, so a ``Clamp`` or ``Abs`` below a shift sees the
shifted argument.  A sliced body reads its restriction to the unit cube
(``restrict_to_cube``), integrated in rational arithmetic; the slices of a
whole schedule are read off one whole-space form, advanced from n to n+1
(``_form_evaluators``).  A constant piece is a restricted term whose
factors are constant and nonempty; on both paths one per-coordinate test
(``_separate``) decides whether pieces are pairwise apart.  ``Clamp`` and
``Abs`` build constant pieces of the restriction, so they are exact on
slices only.  Magnitude truncation uses the hard-drop semantics
value * 1{|value| <= M}: on disjoint constant pieces, whole pieces above
the bound are removed.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .boxes import SparseVector, ZERO_VECTOR, _unions_meet, coerce_union, union_disjointify
from .errors import FormNotExact, NotDisjointifiable
from .exprs import (
    Abs,
    Clamp,
    Const,
    Coord,
    Expr,
    Indicator,
    Piecewise,
    Prod,
    Scale,
    Series,
    SlicedFunction,
    Sum,
    Translate,
    _poly_at,
    _shift_piecewise,
)
from .intervals import INF, Interval, IntervalUnion, UNIT_INTERVAL, UNIT_UNION, frac


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate one slice: the magnitude truncation bound M."""

    truncation: Union[Fraction, float] = INF

    def with_truncation(self, bound) -> "QuadratureSpec":
        return QuadratureSpec(bound)


@dataclass(frozen=True)
class SliceIntegral:
    n: int
    truncation: Union[Fraction, float]
    value: Union[Fraction, float]


@dataclass(frozen=True)
class PiecewisePoly:
    """One univariate polynomial on an interval union, zero outside it."""

    union: IntervalUnion
    coeffs: tuple  # low-to-high

    @classmethod
    def constant_on(cls, iu: IntervalUnion, value=Fraction(1)) -> "PiecewisePoly":
        return cls(iu, (frac(value),))

    @classmethod
    def poly(cls, coeffs, over: Interval = UNIT_INTERVAL) -> "PiecewisePoly":
        return cls(IntervalUnion.of(over), tuple(frac(c) for c in coeffs))

    def evaluate(self, x):
        return _poly_at(self.coeffs, x) if self.union.contains(x) else Fraction(0)

    def integral_over(self) -> Fraction:
        return sum(
            (_poly_definite_integral(self.coeffs, c.lo, c.hi) for c in self.union.components),
            Fraction(0),
        )

    def multiply(self, other: "PiecewisePoly") -> "PiecewisePoly":
        iu = self.union.intersect(other.union)
        return PiecewisePoly(iu, _poly_mul(self.coeffs, other.coeffs))

    def is_constant(self) -> bool:
        return len(self.coeffs) == 1 or self.union.is_empty

    def abs_bound(self) -> Fraction:
        """Crude bound on |value| over the union."""
        comps = self.union.components
        if not comps:
            return Fraction(0)
        if len(self.coeffs) == 1:
            return abs(self.coeffs[0])
        m = max(abs(comps[0].lo), abs(comps[-1].hi))
        return sum((abs(c) * m**k for k, c in enumerate(self.coeffs)), Fraction(0))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while len(out) > 1 and out[-1] == 0:
        out.pop()  # a zero factor: one representation per polynomial
    return tuple(out)


def _poly_definite_integral(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


# A factor is a PiecewisePoly, one polynomial on an interval union and zero
# outside it, or a free polynomial on the whole axis, written as its
# coefficient tuple.
Factor = Union[PiecewisePoly, tuple]


def _mul_factors(a: Factor, b: Factor) -> Factor:
    if type(a) is tuple:
        if type(b) is tuple:
            return _poly_mul(a, b)
        a, b = b, a
    if type(b) is tuple:
        return PiecewisePoly(a.union, _poly_mul(a.coeffs, b))
    return a.multiply(b)


@dataclass(frozen=True)
class SeparableTerm:
    """coef * prod of per-coordinate factors * 1{x_i in tail} on every
    other coordinate; tail None leaves the other coordinates free."""

    coef: Fraction
    factors: tuple  # ((coord, Factor), ...) sorted by coord
    tail: Optional[IntervalUnion] = None
    _series: tuple = field(default=(), compare=False, repr=False)  # Series tags


SPLIT = -1  # tag of a piece of a box its region's refinement split; below any Series index


def _term(coef, factors: Dict[int, Factor], tail=None, series=()) -> SeparableTerm:
    return SeparableTerm(frac(coef), tuple(sorted(factors.items())), tail, series)


def normalize(expr: Expr) -> List[SeparableTerm]:
    """Rewrite an expression as a sum of separable terms, valid on the
    whole space except below a ``Clamp`` or ``Abs``, whose terms hold on
    the unit cube only.

    Raises FormNotExact for trees outside the structured class.
    """
    return _normalize(expr, ZERO_VECTOR)


def _normalize(expr: Expr, shift: SparseVector, read=None) -> List[SeparableTerm]:
    """The terms of x -> expr(x + shift); each leaf applies the shift.  With
    a reader ``read(series, shift)`` yielding a tag and a tree per series
    term (whose terms carry the tag), the terms hold on the whole space:
    ``Clamp`` and ``Abs`` raise FormNotExact, the reader may refuse a series,
    and boxes that meet with different tails raise NotDisjointifiable."""
    if isinstance(expr, Const):
        return [] if expr.value == 0 else [_term(expr.value, {})]
    if isinstance(expr, Coord):
        return [_term(1, {expr.index: (shift.get(expr.index), Fraction(1))})]
    if isinstance(expr, Scale):
        if expr.coef == 0:
            return []
        return [
            SeparableTerm(expr.coef * t.coef, t.factors, t.tail, t._series)
            for t in _normalize(expr.arg, shift, read)
        ]
    if isinstance(expr, Sum):
        out: List[SeparableTerm] = []
        for t in expr.terms:
            out.extend(_normalize(t, shift, read))
        return out
    if isinstance(expr, Prod):
        acc = [_term(1, {})]
        for g in expr.factors:
            acc = _cross_multiply(acc, _normalize(g, shift, read))
        return acc
    if isinstance(expr, Piecewise):
        expr = _shift_piecewise(expr, shift.get(expr.index))
        return [
            _term(1, {expr.index: PiecewisePoly(iu, coeffs)})
            for iu, coeffs in expr.pieces
            if not iu.is_empty
        ]
    if isinstance(expr, Indicator):
        region = expr.region if shift.is_zero else expr.region.translate(-shift)
        out = []
        made: Dict[IntervalUnion, PiecewisePoly] = {}  # one factor per distinct union
        whole = {id(b) for b in region.boxes}  # a box kept whole is itself
        for b in union_disjointify(region).boxes:
            factors = []
            for i, c in b.explicit:  # sorted by coordinate
                fac = made.get(c)
                if fac is None:
                    fac = made[c] = PiecewisePoly.constant_on(c)
                factors.append((i, fac))
            split = () if id(b) in whole else (SPLIT,)
            out.append(SeparableTerm(Fraction(1), tuple(factors), b.tail, split))
        return out
    if isinstance(expr, Translate):
        return _normalize(expr.arg, shift + expr.shift, read)
    if isinstance(expr, (Clamp, Abs)) and read is not None:
        raise FormNotExact(f"{type(expr).__name__} has no whole-space form")
    if isinstance(expr, Clamp):
        terms = restrict_to_cube(_normalize(expr.arg, shift))
        if expr.bound == INF or _terms_bound(terms) <= expr.bound:
            return terms  # truncation provably inactive
        return _piece_terms(terms, lambda v: v if abs(v) <= expr.bound else 0, "truncation")
    if isinstance(expr, Abs):
        return _piece_terms(restrict_to_cube(_normalize(expr.arg, shift)), abs, "absolute value")
    if isinstance(expr, Series):
        if read is None:
            raise FormNotExact("series must be sliced before exact integration")
        return [
            SeparableTerm(t.coef, t.factors, t.tail, t._series + (tag,))
            for tag, term in read(expr, shift)
            for t in _normalize(term, shift, read)
        ]
    raise FormNotExact(f"cannot normalize node {type(expr).__name__}")


def _cross_multiply(a: List[SeparableTerm], b: List[SeparableTerm]) -> List[SeparableTerm]:
    """Products of every term of a with every term of b.  A coordinate
    that one side constrains only through its tail takes that tail as an
    explicit factor, and the rest meet both tails."""
    others = []
    for t in b:
        t_tail = None if t.tail is None else PiecewisePoly.constant_on(t.tail)
        others.append((t, {i for i, _ in t.factors}, t_tail))
    out = []
    for s in a:
        s_tail = None if s.tail is None else PiecewisePoly.constant_on(s.tail)
        for t, t_coords, t_tail in others:
            factors = dict(s.factors)
            for i, fb in t.factors:
                if i in factors:
                    factors[i] = _mul_factors(factors[i], fb)
                else:
                    factors[i] = fb if s_tail is None else _mul_factors(fb, s_tail)
            if t_tail is not None:
                for i, fa in s.factors:
                    if i not in t_coords:
                        factors[i] = _mul_factors(fa, t_tail)
            if s.tail is None or t.tail is None or s.tail == t.tail:
                tail = s.tail if t.tail is None else t.tail
            else:
                tail = s.tail.intersect(t.tail)
            out.append(_term(s.coef * t.coef, factors, tail, s._series + t._series))
    return out


def restrict_to_cube(
    terms: List[SeparableTerm], dims: Optional[int] = None
) -> List[SeparableTerm]:
    """The terms on the unit cube [0,1]^dims, with no tails: every factor
    is clipped to [0,1] (a free factor becomes the same polynomial on
    [0,1]), and a tail that covers [0,1] up to a null set is dropped.

    Raises FormNotExact for any other tail, and for a factor on a
    coordinate at or beyond ``dims`` when that is given.
    """
    clipped: Dict[IntervalUnion, IntervalUnion] = {}  # per distinct union

    def clip(f: Factor) -> PiecewisePoly:
        if type(f) is tuple:
            return PiecewisePoly.poly(f)
        iu = clipped.get(f.union)
        if iu is None:
            iu = clipped[f.union] = _unit_part(f.union)
        return f if iu is f.union else PiecewisePoly(iu, f.coeffs)

    out = []
    for t in terms:
        if t.tail is not None and t.tail != UNIT_UNION and _unit_part(t.tail).total_length != 1:
            raise FormNotExact(
                "indicator with a restrictive tail cannot appear in a finite slice"
            )
        factors = tuple((i, clip(f)) for i, f in t.factors)
        if dims is not None and factors and factors[-1][0] >= dims:
            last = factors[-1][0]
            raise FormNotExact(f"factor on coordinate {last} outside the slice of dimension {dims}")
        out.append(SeparableTerm(t.coef, factors))
    return out


def _unit_part(iu: IntervalUnion) -> IntervalUnion:
    """iu clipped to [0,1]; iu itself when it already lies inside."""
    comps = iu.components
    if not comps or (comps[0].lo >= 0 and comps[-1].hi <= 1):
        return iu
    return iu.intersect(UNIT_UNION)


def to_constant_pieces(terms: List[SeparableTerm]) -> Optional[List[SeparableTerm]]:
    """The constant pieces of terms that ``restrict_to_cube`` returned, or
    None if non-constant: a piece is a term with no empty factor, constant
    on the product of its factors' unions."""
    if not all(fac.is_constant() for t in terms for _, fac in t.factors):
        return None
    return [t for t in terms if not any(fac.union.is_empty for _, fac in t.factors)]


def _separate(groups: Dict[IntervalUnion, list], apart: list) -> None:
    """Mark every two pieces whose unions on one coordinate share no point
    as apart: ``groups`` holds the indices of the pieces per union, and
    ``apart`` (index -> bitmask of the pieces it is apart from) is ORed
    into.  A group is not compared with itself, as no union is empty."""
    members = [(u, xs, sum(1 << x for x in xs)) for u, xs in groups.items()]
    for (u, xs, mu), (v, ys, mv) in itertools.combinations(members, 2):
        if not _unions_meet(u, v):
            for x in xs:
                apart[x] |= mv
            for y in ys:
                apart[y] |= mu


def pieces_disjoint(pieces: List[SeparableTerm]) -> bool:
    """Pairwise disjointness of the pieces' product sets, decided per
    coordinate by ``_separate``.  Only coordinates with a factor on both
    sides can separate a pair: a missing factor means the full window
    [0,1]."""
    by_coord: Dict[int, Dict[IntervalUnion, list]] = {}
    for x, p in enumerate(pieces):
        for i, fac in p.factors:
            by_coord.setdefault(i, {}).setdefault(fac.union, []).append(x)
    apart = [0] * len(pieces)
    for groups in by_coord.values():
        _separate(groups, apart)
    everyone = (1 << len(pieces)) - 1
    return all(apart[x] | 1 << x == everyone for x in range(len(pieces)))


def _value_volume(piece: SeparableTerm, lengths: dict) -> Tuple[Fraction, Fraction]:
    """A constant piece's value and the volume of its product set.

    ``lengths`` (union -> length) is shared by the pieces of one slice, so
    that each distinct union is measured once.
    """
    num, den, vol_num, vol_den = piece.coef.numerator, piece.coef.denominator, 1, 1
    for _, fac in piece.factors:
        length = lengths.get(fac.union)
        if length is None:
            length = lengths[fac.union] = fac.union.total_length
        num *= fac.coeffs[0].numerator
        den *= fac.coeffs[0].denominator
        vol_num *= length.numerator
        vol_den *= length.denominator
    return Fraction(num, den), Fraction(vol_num, vol_den)


def _piece_terms(terms: List[SeparableTerm], value_of, what: str) -> List[SeparableTerm]:
    """One term per constant piece of the terms on the unit cube, with
    value value_of(piece value); FormNotExact unless the pieces are
    disjoint."""
    pieces = to_constant_pieces(terms)
    if pieces is None or not pieces_disjoint(pieces):
        raise FormNotExact(f"{what} needs disjoint constant pieces")
    out, lengths = [], {}
    for p in pieces:
        value = value_of(_value_volume(p, lengths)[0])
        if value != 0:
            out.append(
                _term(value, {i: PiecewisePoly.constant_on(fac.union) for i, fac in p.factors})
            )
    return out


def _terms_bound(terms: List[SeparableTerm]) -> Fraction:
    """A bound on |sum of the terms| over the unit cube."""
    return sum((abs(t.coef) * _factors_bound(t) for t in terms), Fraction(0))


def _factors_bound(t: SeparableTerm) -> Fraction:
    num = den = 1
    for _, fac in t.factors:
        b = fac.abs_bound()
        num *= b.numerator
        den *= b.denominator
    return Fraction(num, den)


def exact_terms_integral(terms: List[SeparableTerm]) -> Fraction:
    """Integral over the unit cube of terms restricted to it."""
    unit_lengths: Dict[IntervalUnion, Fraction] = {}  # per distinct union
    total = Fraction(0)
    for t in terms:
        num, den = t.coef.numerator, t.coef.denominator
        for _, fac in t.factors:
            if len(fac.coeffs) == 1:
                length = unit_lengths.get(fac.union)
                if length is None:
                    length = unit_lengths[fac.union] = fac.union.total_length
                value = fac.coeffs[0]
                num *= value.numerator * length.numerator
                den *= value.denominator * length.denominator
            else:
                value = fac.integral_over()
                num *= value.numerator
                den *= value.denominator
            if not num:
                break
        total += Fraction(num, den)
    return total


class SliceEvaluator:
    """Exact slice integrals at many truncation bounds, normalizing once.

    The constant-piece decomposition is computed lazily and shared, so
    scanning a whole schedule of bounds costs one normalization plus a
    cheap filter per bound.
    """

    def __init__(self, g: SlicedFunction):
        self.g = g
        self.terms = restrict_to_cube(normalize(g.body), g.dims)
        self.total_bound = _terms_bound(self.terms)
        self._untruncated: Optional[Fraction] = None
        self._prefix: Optional[Tuple[list, list, list]] = None
        self._pieces_tried = False

    @classmethod
    def _of(cls, total_bound: Fraction, untruncated: Fraction, pieces) -> "SliceEvaluator":
        """From a bound, an integral and (value, volume) pieces or None."""
        ev = cls.__new__(cls)
        ev.total_bound, ev._untruncated = total_bound, untruncated
        ev._prefix = None if pieces is None else _sorted_sums(pieces)
        ev._pieces_tried = True
        return ev

    def untruncated_integral(self) -> Fraction:
        if self._untruncated is None:
            self._untruncated = exact_terms_integral(self.terms)
        return self._untruncated

    def _prefix_sums(self) -> Optional[Tuple[list, list, list]]:
        if not self._pieces_tried:
            self._pieces_tried = True
            pieces = to_constant_pieces(self.terms)
            if pieces is not None and pieces_disjoint(pieces):
                lengths: dict = {}
                self._prefix = _sorted_sums([_value_volume(p, lengths) for p in pieces])
        return self._prefix

    def integral_at(self, bound) -> Fraction:
        if bound == INF or self.total_bound <= bound:
            return self.untruncated_integral()
        return self._prefix_at(bound, 1, "truncation")

    def abs_integral_at(self, bound) -> Fraction:
        """Integral of |g| * 1{|g| <= bound}; needs the piece decomposition
        even untruncated, since |g| has no separable form in general."""
        return self._prefix_at(bound, 2, "absolute-value integration")

    def _prefix_at(self, bound, column: int, what: str) -> Fraction:
        """The given prefix-sum column over the pieces with |value| <= bound."""
        prefix = self._prefix_sums()
        if prefix is None:
            raise FormNotExact(f"{what} needs disjoint constant pieces")
        k = bisect.bisect_right(prefix[0], bound)
        return prefix[column][k - 1] if k else Fraction(0)


def _sorted_sums(pieces) -> Tuple[list, list, list]:
    """Magnitudes of (value, volume) pieces in order, with prefix sums of
    value*volume and |value|*volume: one bisect per truncation bound."""
    ordered = sorted(pieces, key=lambda p: abs(p[0]))
    parts = [value * volume for value, volume in ordered]
    sums, abs_sums = itertools.accumulate(parts), itertools.accumulate(map(abs, parts))
    return [abs(value) for value, _ in ordered], list(sums), list(abs_sums)


def _coordinate(f: Factor) -> Optional[tuple]:
    """A term's factor f on a slice coordinate, that is on [0,1]: its union,
    whether it is constant, and the multipliers other than 1 of the term's
    (value, volume, bound, integral); None for 1 on all of [0,1]."""
    r = PiecewisePoly.poly(f) if type(f) is tuple else PiecewisePoly(_unit_part(f.union), f.coeffs)
    value = r.coeffs[0] if r.is_constant() else None
    if value == 1 and r.union == UNIT_UNION:
        return None
    row = (value, r.union.total_length, r.abs_bound(), r.integral_over())
    return r.union, value is not None, tuple((j, v) for j, v in enumerate(row) if v not in (None, 1))


def _frozen(t: SeparableTerm, coords, n: int, a: SparseVector) -> Fraction:
    """t's coefficient times its factors (on ``coords``) beyond n at anchor
    entries a; 0 if the slice at n drops t's Series term or some a_i (0 but
    for finitely many i > n) leaves t's tail."""
    if any(k > cut(max(n, m)) for (cut, m), k in t._series):
        return Fraction(0)
    value = t.coef
    for i, fac in reversed(t.factors):
        if i <= n:
            break
        value *= _poly_at(fac, a.get(i)) if type(fac) is tuple else fac.evaluate(a.get(i))
    frozen = [Fraction(0)] + [v for i, v in a.entries if i > n and i not in coords]
    if t.tail is not None and not all(t.tail.contains(v) for v in frozen):
        return Fraction(0)
    return value


def _form_evaluators(f: Expr, a: SparseVector, n_values):
    """{n: evaluator} of the slices at n_values with the coordinates beyond
    n at a and no cell origin, read off one whole-space form of f; None
    when ``_normalize`` refuses f or splits a box of a region.

    A slice keeps each term's factors and tail on coordinates <= n
    (``_coordinate``) times a number (``_frozen``): one constant piece or
    not constant.  From n to n+1 each term's running products take one
    more coordinate, which may separate terms; pairs apart stay apart.  A
    region whose refinement keeps or drops each box whole restricts to each
    slice's own refinement; one that splits a box (``SPLIT``) may not.
    """
    def read(s: Series, shift: SparseVector):
        if s.sparse_cutoff is None:
            raise FormNotExact("series without a sparse cutoff is sliced at every n")
        m = (a + shift).max_index  # the series terms slice_function expands
        deepest = max((s.sparse_cutoff(max(n, m)) for n in n_values), default=s.start - 1)
        for k in range(s.start, deepest + 1):
            yield ((s.sparse_cutoff, m), k), s.term(k)

    try:
        terms = _normalize(f, ZERO_VECTOR, read)
    except (FormNotExact, NotDisjointifiable):
        return None
    if any(SPLIT in t._series for t in terms):
        return None  # a slice that drops the box which cut a piece keeps it whole
    facs = [dict(t.factors) for t in terms]
    run = [[Fraction(1)] * 4 for _ in terms]  # value, volume, bound, integral
    constant, empty, apart = [True] * len(terms), [False] * len(terms), [0] * len(terms)
    memo: dict = {}  # id of a factor or tail -> _coordinate
    out, last, wanted = {}, None, set(n_values)
    for n in range(max(n_values, default=-1) + 1):
        groups: Dict[IntervalUnion, list] = {}  # terms by their union on n
        for x, t in enumerate(terms):
            fac = facs[x].get(n)
            key = id(t.tail if fac is None else fac)  # t keeps it alive
            if key not in memo:
                g = PiecewisePoly.constant_on(t.tail) if fac is None and t.tail else fac
                memo[key] = g and _coordinate(g)
            co = memo[key]
            if co:
                constant[x] = constant[x] and co[1]
            if co and not empty[x]:
                for j, v in co[2]:
                    run[x][j] *= v
                empty[x] = co[0].is_empty
                groups.setdefault(co[0], []).append(x)
        _separate(groups, apart)
        if n not in wanted:
            continue
        total_bound, total, pieces, live = Fraction(0), Fraction(0), [], 0
        for x, t in enumerate(terms):
            coef = _frozen(t, facs[x], n, a)
            if coef and not constant[x]:
                pieces = None
            if coef and not empty[x]:
                value, volume, bound, integral = run[x]
                total_bound += abs(coef) * bound
                total += coef * integral
                live |= 1 << x
                if pieces is not None:
                    pieces.append((coef * value, volume))
        if any((apart[x] | 1 << x) & live != live for x in range(len(terms)) if live >> x & 1):
            pieces = None
        if last is None or last[:3] != (total_bound, total, pieces):
            last = (total_bound, total, pieces, SliceEvaluator._of(total_bound, total, pieces))
        out[n] = last[3]
    return out


def integrate_slice(g: SlicedFunction, spec: QuadratureSpec) -> SliceIntegral:
    """Integrate g * 1{|g| <= M} over [0,1]^dims exactly."""
    value = SliceEvaluator(g).integral_at(spec.truncation)
    return SliceIntegral(g.dims - 1, spec.truncation, value)


def integrate_indicator(u, dims: int) -> Fraction:
    """Exact Lebesgue volume of the projection to coordinates 0..dims-1."""
    u = coerce_union(u)
    for b in u.boxes:
        if any(i >= dims for i in b.coords):
            raise FormNotExact("explicit coordinate outside the requested dimensions")
    total = Fraction(0)
    for b in union_disjointify(u).boxes:
        vol = Fraction(1)
        for i in range(dims):
            vol *= b.constraint(i).total_length
        total += vol
    return total
