"""The separable normal form, and exact integration of slices over [0,1]^dims.

``normalize`` rewrites a structured expression as a sum of separable terms
``coef * prod_i factor_i(x_i) * 1{x_j in tail for every other j}``.  A
factor is a univariate piecewise polynomial (zero outside its pieces) or a
free polynomial on the whole axis; no tail leaves the other coordinates
unconstrained.  The form holds on the whole space, so Fubini splits read it
directly.  A slice reads its restriction to the unit cube
(``restrict_to_cube``), which is integrated in rational arithmetic.
``Clamp`` and ``Abs`` build constant pieces of that restriction, so they are
exact on slices only.  Magnitude truncation uses the hard-drop semantics
value * 1{|value| <= M}: on disjoint constant pieces, whole pieces above the
bound are removed.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .boxes import coerce_union, union_disjointify
from .errors import FormNotExact
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
    _poly_shift,
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
    """Univariate piecewise polynomial, zero outside its pieces."""

    pieces: tuple  # ((Interval, coeffs), ...)
    # set by constant_on: the factor is one constant on this union, whose
    # components are the pieces; lets per-union work skip the pieces
    union: Optional[IntervalUnion] = field(default=None, compare=False, repr=False)

    @classmethod
    def constant_on(cls, iu: IntervalUnion, value=Fraction(1)) -> "PiecewisePoly":
        v = (frac(value),)
        return cls(tuple((c, v) for c in iu.components), iu)

    @classmethod
    def poly(cls, coeffs, over: Interval = UNIT_INTERVAL) -> "PiecewisePoly":
        return cls(((over, tuple(frac(c) for c in coeffs)),))

    def evaluate(self, x):
        for iv, coeffs in self.pieces:
            if iv.contains(x):
                return _poly_at(coeffs, x)
        return Fraction(0)

    def integral_over(self) -> Fraction:
        total = Fraction(0)
        for iv, coeffs in self.pieces:
            if not iv.is_empty:
                total += _poly_definite_integral(coeffs, iv.lo, iv.hi)
        return total

    def multiply(self, other: "PiecewisePoly") -> "PiecewisePoly":
        out = []
        for (ia, ca), (ib, cb) in itertools.product(self.pieces, other.pieces):
            seg = ia.intersect(ib)
            if not seg.is_empty:
                out.append((seg, _poly_mul(ca, cb)))
        return PiecewisePoly(tuple(out))

    def shift(self, c: Fraction) -> "PiecewisePoly":
        """The factor x -> self(x + c)."""
        return PiecewisePoly(
            tuple((iv.translate(-c), _poly_shift(coeffs, c)) for iv, coeffs in self.pieces)
        )

    def is_constant(self) -> bool:
        return all(len(coeffs) == 1 for _, coeffs in self.pieces)

    def abs_bound(self) -> Fraction:
        """Crude bound on |value| over all pieces."""
        if self.union is not None:  # one constant on every piece
            return abs(self.pieces[0][1][0]) if self.pieces else Fraction(0)
        best = Fraction(0)
        for iv, coeffs in self.pieces:
            if len(coeffs) == 1:
                bound = abs(coeffs[0])
            else:
                m = max(abs(iv.lo), abs(iv.hi))
                bound = sum((abs(c) * m**k for k, c in enumerate(coeffs)), Fraction(0))
            best = max(best, bound)
        return best


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_definite_integral(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


# A factor is a PiecewisePoly, zero outside its pieces, or a free
# polynomial on the whole axis, written as its coefficient tuple.
Factor = Union[PiecewisePoly, tuple]

_FREE_X = (Fraction(0), Fraction(1))


def _mul_factors(a: Factor, b: Factor) -> Factor:
    if type(a) is tuple:
        if type(b) is tuple:
            return _poly_mul(a, b)
        a, b = b, a
    if type(b) is tuple:
        return PiecewisePoly(tuple((iv, _poly_mul(c, b)) for iv, c in a.pieces))
    return a.multiply(b)


def _shift_factor(f: Factor, c: Fraction) -> Factor:
    return _poly_shift(f, c) if type(f) is tuple else f.shift(c)


@dataclass(frozen=True)
class SeparableTerm:
    """coef * prod of per-coordinate factors * 1{x_i in tail} on every
    other coordinate; tail None leaves the other coordinates free."""

    coef: Fraction
    factors: tuple  # ((coord, Factor), ...) sorted by coord
    tail: Optional[IntervalUnion] = None


def _term(coef, factors: Dict[int, Factor], tail=None) -> SeparableTerm:
    return SeparableTerm(frac(coef), tuple(sorted(factors.items())), tail)


def normalize(expr: Expr) -> List[SeparableTerm]:
    """Rewrite an expression as a sum of separable terms, valid on the
    whole space except below a ``Clamp`` or ``Abs``, whose terms hold on
    the unit cube only.

    Raises FormNotExact for trees outside the structured class.
    """
    if isinstance(expr, Const):
        return [] if expr.value == 0 else [_term(expr.value, {})]
    if isinstance(expr, Coord):
        return [_term(1, {expr.index: _FREE_X})]
    if isinstance(expr, Scale):
        if expr.coef == 0:
            return []
        return [
            SeparableTerm(expr.coef * t.coef, t.factors, t.tail)
            for t in normalize(expr.arg)
        ]
    if isinstance(expr, Sum):
        out: List[SeparableTerm] = []
        for t in expr.terms:
            out.extend(normalize(t))
        return out
    if isinstance(expr, Prod):
        acc = [_term(1, {})]
        for g in expr.factors:
            acc = _cross_multiply(acc, normalize(g))
        return acc
    if isinstance(expr, Piecewise):
        return [
            _term(1, {expr.index: PiecewisePoly(tuple((c, coeffs) for c in iu.components))})
            for iu, coeffs in expr.pieces
            if not iu.is_empty
        ]
    if isinstance(expr, Indicator):
        out = []
        made: Dict[IntervalUnion, PiecewisePoly] = {}  # one factor per distinct union
        for b in union_disjointify(expr.region).boxes:
            factors = []
            for i, c in b.explicit:  # sorted by coordinate
                fac = made.get(c)
                if fac is None:
                    fac = made[c] = PiecewisePoly.constant_on(c)
                factors.append((i, fac))
            out.append(SeparableTerm(Fraction(1), tuple(factors), b.tail))
        return out
    if isinstance(expr, Translate):
        out = []
        for t in normalize(expr.arg):
            factors = dict(t.factors)
            for i, v in expr.shift.entries:
                if i in factors:
                    factors[i] = _shift_factor(factors[i], v)
                elif t.tail is not None:
                    # the tail constraint on this coordinate becomes explicit
                    factors[i] = PiecewisePoly.constant_on(t.tail.translate(-v))
            out.append(_term(t.coef, factors, t.tail))
        return out
    if isinstance(expr, Clamp):
        terms = restrict_to_cube(normalize(expr.arg))
        if expr.bound == INF or _terms_bound(terms) <= expr.bound:
            return terms  # truncation provably inactive
        return _piece_terms(terms, lambda v: v if abs(v) <= expr.bound else 0, "truncation")
    if isinstance(expr, Abs):
        return _piece_terms(normalize(expr.arg), abs, "absolute value")
    if isinstance(expr, Series):
        raise FormNotExact("series must be sliced before exact integration")
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
            out.append(_term(s.coef * t.coef, factors, tail))
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
        if f.union is not None:
            iu = clipped.get(f.union)
            if iu is None:
                iu = clipped[f.union] = _unit_part(f.union)
            return f if iu == f.union else PiecewisePoly.constant_on(iu, f.pieces[0][1][0])
        segs = ((iv.intersect(UNIT_INTERVAL), coeffs) for iv, coeffs in f.pieces)
        return PiecewisePoly(tuple((seg, c) for seg, c in segs if not seg.is_empty))

    out = []
    for t in terms:
        tail, factors = t.tail, t.factors
        if tail is not None and tail != UNIT_UNION and _unit_part(tail).total_length != 1:
            raise FormNotExact(
                "indicator with a restrictive tail cannot appear in a finite slice"
            )
        # fast path: every factor is a constant on a union already seen to
        # lie inside [0,1]
        if not all(
            type(f) is PiecewisePoly
            and f.union is not None
            and clipped.get(f.union) is f.union
            for _, f in factors
        ):
            factors = tuple((i, clip(f)) for i, f in factors)
        if dims is not None and factors and factors[-1][0] >= dims:
            last = factors[-1][0]
            raise FormNotExact(f"factor on coordinate {last} outside the slice of dimension {dims}")
        if tail is not None or factors is not t.factors:
            t = SeparableTerm(t.coef, factors)
        out.append(t)
    return out


def _unit_part(iu: IntervalUnion) -> IntervalUnion:
    """iu clipped to [0,1]; iu itself when it already lies inside."""
    comps = iu.components
    if not comps or (comps[0].lo >= 0 and comps[-1].hi <= 1):
        return iu
    return iu.intersect(UNIT_UNION)


@dataclass(frozen=True)
class ConstantPiece:
    """A constant value on a product of interval unions (within [0,1]^dims)."""

    value: Fraction
    constraints: tuple  # ((coord, IntervalUnion), ...); missing coords mean [0,1]

    def volume(self, lengths: dict) -> Fraction:
        """Constraints are pre-clipped to [0,1]; unconstrained coords give 1.

        ``lengths`` (union -> length) is shared by the pieces of one slice,
        so that each distinct union is measured once.
        """
        num = den = 1
        for _, iu in self.constraints:
            length = lengths.get(iu)
            if length is None:
                length = lengths[iu] = iu.total_length
            if not length:
                return Fraction(0)
            num *= length.numerator
            den *= length.denominator
        return Fraction(num, den)


def to_constant_pieces(terms: List[SeparableTerm]) -> Optional[List[ConstantPiece]]:
    """Expand separable terms, restricted to the unit cube, into constant
    pieces, or None if non-constant.

    Factor components sharing the same constant value stay grouped in one
    interval union, so a term that is a single constant on a product of
    unions yields a single piece.  A factor made by ``constant_on`` keeps
    its union.
    """
    pieces: List[ConstantPiece] = []
    for t in restrict_to_cube(terms):
        if not all(fac.is_constant() for _, fac in t.factors):
            return None
        per_coord = []
        for i, fac in t.factors:
            if fac.union is not None:
                per_coord.append([(i, fac.union, fac.pieces[0][1][0])] if fac.pieces else [])
                continue
            by_value: Dict[Fraction, List[Interval]] = {}
            for iv, coeffs in fac.pieces:
                by_value.setdefault(coeffs[0], []).append(iv)
            per_coord.append(
                [(i, IntervalUnion.of(*ivs), v) for v, ivs in by_value.items()]
            )
        for combo in itertools.product(*per_coord):
            num, den = t.coef.numerator, t.coef.denominator
            constraints = []
            for i, iu, v in combo:
                num *= v.numerator
                den *= v.denominator
                constraints.append((i, iu))
            pieces.append(ConstantPiece(Fraction(num, den), tuple(constraints)))
    return pieces


def pieces_disjoint(pieces: List[ConstantPiece]) -> bool:
    """Pairwise disjointness of the pieces' product sets.

    Pieces are grouped per coordinate by their constraint union.  Whether
    two groups are disjoint is decided once per pair of groups on a
    coordinate, with endpoints rank-compressed to even integers (open ends
    nudged by 1); each piece then ORs together the bitmasks of the pieces
    it is separated from.  Only coordinates constrained on both sides can
    separate a pair: a missing constraint means the full window [0,1].
    """
    group_of: Dict[tuple, int] = {}  # (coord, union) -> group id
    members: List[int] = []  # group id -> bitmask of its pieces
    piece_groups = []
    for x, p in enumerate(pieces):
        bit = 1 << x
        ids = []
        for key in p.constraints:
            g = group_of.get(key)
            if g is None:
                g = group_of[key] = len(members)
                members.append(0)
            members[g] |= bit
            ids.append(g)
        piece_groups.append(ids)
    values = sorted({v for _, iu in group_of for v in iu.endpoints()})
    rank = {v: 2 * k for k, v in enumerate(values)}
    by_coord: Dict[int, list] = {}
    for (i, iu), g in group_of.items():
        encoded = tuple(
            (rank[c.lo] + (not c.lo_closed), rank[c.hi] - (not c.hi_closed))
            for c in iu.components
        )
        by_coord.setdefault(i, []).append((g, encoded))
    apart = [0] * len(members)  # group id -> pieces separated from it
    for groups in by_coord.values():
        for k, (g, ea) in enumerate(groups):
            for h, eb in groups[k:]:
                if not any(la <= hb and lb <= ha for la, ha in ea for lb, hb in eb):
                    apart[g] |= members[h]
                    apart[h] |= members[g]
    everyone = (1 << len(pieces)) - 1
    for x, ids in enumerate(piece_groups):
        separated = 1 << x
        for g in ids:
            separated |= apart[g]
        if separated != everyone:
            return False
    return True


def _piece_terms(terms: List[SeparableTerm], value_of, what: str) -> List[SeparableTerm]:
    """One term per constant piece of the terms on the unit cube, with
    value value_of(piece value); FormNotExact unless the pieces are
    disjoint."""
    pieces = to_constant_pieces(terms)
    if pieces is None or not pieces_disjoint(pieces):
        raise FormNotExact(f"{what} needs disjoint constant pieces")
    out = []
    for p in pieces:
        value = value_of(p.value)
        if value != 0:
            out.append(
                _term(value, {i: PiecewisePoly.constant_on(iu) for i, iu in p.constraints})
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
            if fac.union is not None and fac.pieces:
                length = unit_lengths.get(fac.union)
                if length is None:
                    length = unit_lengths[fac.union] = fac.union.total_length
                value = fac.pieces[0][1][0]
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

    def untruncated_integral(self) -> Fraction:
        if self._untruncated is None:
            self._untruncated = exact_terms_integral(self.terms)
        return self._untruncated

    def _prefix_sums(self) -> Optional[Tuple[list, list, list]]:
        """Pieces sorted by |value| with prefix sums of value*volume and
        |value|*volume, so each truncation bound costs one bisect."""
        if not self._pieces_tried:
            self._pieces_tried = True
            pieces = to_constant_pieces(self.terms)
            if pieces is not None and pieces_disjoint(pieces):
                ordered = sorted(pieces, key=lambda p: abs(p.value))
                magnitudes = [abs(p.value) for p in ordered]
                sums, abs_sums = [], []
                acc = abs_acc = Fraction(0)
                lengths: dict = {}
                for p in ordered:
                    contribution = p.value * p.volume(lengths)
                    acc += contribution
                    abs_acc += abs(contribution)
                    sums.append(acc)
                    abs_sums.append(abs_acc)
                self._prefix = (magnitudes, sums, abs_sums)
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
