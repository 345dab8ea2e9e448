"""Finite-dimensional integration of sliced functions over [0,1]^dims.

Integration is exact: a structured expression is normalized into a sum
of separable terms (constant times a product of univariate piecewise
polynomials) and integrated in rational arithmetic.  Magnitude truncation
uses the hard-drop semantics value * 1{|value| <= M}: on disjoint constant
pieces, whole pieces above the bound are removed.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
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

    @classmethod
    def constant_on(cls, iu: IntervalUnion, value=Fraction(1)) -> "PiecewisePoly":
        return cls(tuple((c, (frac(value),)) for c in iu.components))

    @classmethod
    def poly(cls, coeffs, over: Interval = UNIT_INTERVAL) -> "PiecewisePoly":
        return cls(((over, tuple(frac(c) for c in coeffs)),))

    def evaluate(self, x):
        for iv, coeffs in self.pieces:
            if iv.contains(x):
                return _poly_at(coeffs, x)
        return Fraction(0)

    def integral_over(self, window: Optional[Interval] = None) -> Fraction:
        total = Fraction(0)
        for iv, coeffs in self.pieces:
            seg = iv if window is None else iv.intersect(window)
            if seg.is_empty:
                continue
            total += _poly_definite_integral(coeffs, seg.lo, seg.hi)
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
        best = Fraction(0)
        for iv, coeffs in self.pieces:
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


@dataclass(frozen=True)
class SeparableTerm:
    coef: Fraction
    factors: tuple  # ((coord, PiecewisePoly), ...) sorted by coord

    def factor_map(self) -> Dict[int, PiecewisePoly]:
        return dict(self.factors)


def _term(coef, factors: Dict[int, PiecewisePoly]) -> SeparableTerm:
    return SeparableTerm(frac(coef), tuple(sorted(factors.items())))


def normalize(expr: Expr) -> List[SeparableTerm]:
    """Rewrite a sliced expression as a sum of separable terms.

    Raises FormNotExact for trees outside the structured class.
    """
    if isinstance(expr, Const):
        return [] if expr.value == 0 else [_term(expr.value, {})]
    if isinstance(expr, Coord):
        return [_term(1, {expr.index: PiecewisePoly.poly((0, 1))})]
    if isinstance(expr, Scale):
        if expr.coef == 0:
            return []
        return [
            SeparableTerm(expr.coef * t.coef, t.factors) for t in normalize(expr.arg)
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
        for b in union_disjointify(expr.region).boxes:
            tail_window = b.tail.intersect(UNIT_UNION)
            if tail_window.total_length != 1:
                raise FormNotExact(
                    "indicator with a restrictive tail cannot appear in a finite slice"
                )
            factors = {i: PiecewisePoly.constant_on(c) for i, c in b.explicit}
            out.append(_term(1, factors))
        return out
    if isinstance(expr, Translate):
        out = []
        for t in normalize(expr.arg):
            factors = t.factor_map()
            for i, v in expr.shift.entries:
                fac = factors.get(i)
                if fac is None:
                    continue  # absent factor is constant 1, shift-invariant
                factors[i] = fac.shift(v)
            out.append(_term(t.coef, factors))
        return out
    if isinstance(expr, Clamp):
        terms = normalize(expr.arg)
        return truncate_terms(terms, expr.bound)
    if isinstance(expr, Abs):
        terms = normalize(expr.arg)
        pieces = to_constant_pieces(terms)
        if pieces is None or not pieces_disjoint(pieces):
            raise FormNotExact("absolute value needs disjoint constant pieces")
        return [
            _term(
                abs(p.value),
                {i: PiecewisePoly.constant_on(iu) for i, iu in p.constraints},
            )
            for p in pieces
            if p.value != 0
        ]
    if isinstance(expr, Series):
        raise FormNotExact("series must be sliced before exact integration")
    raise FormNotExact(f"cannot normalize node {type(expr).__name__}")


def _cross_multiply(a: List[SeparableTerm], b: List[SeparableTerm]) -> List[SeparableTerm]:
    out = []
    for s, t in itertools.product(a, b):
        factors = s.factor_map()
        for i, fac in t.factors:
            factors[i] = factors[i].multiply(fac) if i in factors else fac
        out.append(_term(s.coef * t.coef, factors))
    return out


@dataclass(frozen=True)
class ConstantPiece:
    """A constant value on a product of interval unions (within [0,1]^dims)."""

    value: Fraction
    constraints: tuple  # ((coord, IntervalUnion), ...); missing coords mean [0,1]

    def volume(self, dims: int) -> Fraction:
        """Constraints are pre-clipped to [0,1]; unconstrained coords give 1."""
        vol = Fraction(1)
        for _, iu in self.constraints:
            vol *= iu.total_length
            if vol == 0:
                break
        return vol


def to_constant_pieces(terms: List[SeparableTerm]) -> Optional[List[ConstantPiece]]:
    """Expand separable terms into constant pieces, or None if non-constant.

    Factor components sharing the same constant value stay grouped in one
    interval union, so a term that is a single constant on a product of
    unions yields a single piece.
    """
    pieces: List[ConstantPiece] = []
    for t in terms:
        if not all(fac.is_constant() for _, fac in t.factors):
            return None
        per_coord = []
        for i, fac in t.factors:
            by_value: Dict[Fraction, List[Interval]] = {}
            for iv, coeffs in fac.pieces:
                if 0 <= iv.lo and iv.hi <= 1:
                    clipped = iv
                else:
                    clipped = iv.intersect(UNIT_INTERVAL)
                if not clipped.is_empty:
                    by_value.setdefault(coeffs[0], []).append(clipped)
            per_coord.append(
                [(i, IntervalUnion.of(*ivs), v) for v, ivs in by_value.items()]
            )
        for combo in itertools.product(*per_coord):
            value = t.coef
            constraints = []
            for i, iu, v in combo:
                value *= v
                constraints.append((i, iu))
            pieces.append(ConstantPiece(value, tuple(constraints)))
    return pieces


def pieces_disjoint(pieces: List[ConstantPiece]) -> bool:
    """Pairwise disjointness of the pieces' product sets.

    Endpoints are rank-compressed to even integers (open ends nudged by 1)
    so the O(pairs * coords) inner loop is pure integer comparison.
    """
    values = set()
    for p in pieces:
        for _, iu in p.constraints:
            for c in iu.components:
                values.add(c.lo)
                values.add(c.hi)
    rank = {v: 2 * k for k, v in enumerate(sorted(values))}
    encoded = []
    for p in pieces:
        m = {}
        for i, iu in p.constraints:
            m[i] = tuple(
                (rank[c.lo] + (not c.lo_closed), rank[c.hi] - (not c.hi_closed))
                for c in iu.components
            )
        encoded.append(m)
    for x, amap in enumerate(encoded):
        for bmap in encoded[x + 1:]:
            # only coordinates constrained on both sides can separate a pair;
            # a missing constraint means the full window [0,1]
            for i, ea in amap.items():
                eb = bmap.get(i)
                if eb is None:
                    continue
                if not any(la <= hb and lb <= ha for la, ha in ea for lb, hb in eb):
                    break
            else:
                return False
    return True


def truncate_terms(terms: List[SeparableTerm], bound) -> List[SeparableTerm]:
    """Apply value * 1{|value| <= bound} exactly, or raise FormNotExact."""
    if bound == INF:
        return terms
    total_bound = sum(
        (abs(t.coef) * _factors_bound(t) for t in terms), Fraction(0)
    )
    if total_bound <= bound:
        return terms  # truncation provably inactive
    pieces = to_constant_pieces(terms)
    if pieces is None or not pieces_disjoint(pieces):
        raise FormNotExact("truncation needs disjoint constant pieces")
    kept = [p for p in pieces if abs(p.value) <= bound]
    return [
        _term(
            p.value,
            {i: PiecewisePoly.constant_on(iu) for i, iu in p.constraints},
        )
        for p in kept
        if p.value != 0
    ]


def _factors_bound(t: SeparableTerm) -> Fraction:
    b = Fraction(1)
    for _, fac in t.factors:
        b *= fac.abs_bound()
    return b


def exact_terms_integral(terms: List[SeparableTerm], dims: int) -> Fraction:
    total = Fraction(0)
    for t in terms:
        v = t.coef
        for i, fac in t.factors:
            if i >= dims:
                raise FormNotExact(
                    f"factor on coordinate {i} outside the slice of dimension {dims}"
                )
            v *= fac.integral_over(UNIT_INTERVAL)
            if v == 0:
                break
        total += v
    return total


class SliceEvaluator:
    """Exact slice integrals at many truncation bounds, normalizing once.

    The constant-piece decomposition is computed lazily and shared, so
    scanning a whole schedule of bounds costs one normalization plus a
    cheap filter per bound.
    """

    def __init__(self, g: SlicedFunction):
        self.g = g
        self.terms = normalize(g.body)
        for t in self.terms:
            for i, _ in t.factors:
                if i >= g.dims:
                    raise FormNotExact(
                        f"factor on coordinate {i} outside the slice of dimension {g.dims}"
                    )
        self.total_bound = sum(
            (abs(t.coef) * _factors_bound(t) for t in self.terms), Fraction(0)
        )
        self._untruncated: Optional[Fraction] = None
        self._prefix: Optional[Tuple[list, list, list]] = None
        self._pieces_tried = False

    def untruncated_integral(self) -> Fraction:
        if self._untruncated is None:
            self._untruncated = exact_terms_integral(self.terms, self.g.dims)
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
                for p in ordered:
                    contribution = p.value * p.volume(self.g.dims)
                    acc += contribution
                    abs_acc += abs(contribution)
                    sums.append(acc)
                    abs_sums.append(abs_acc)
                self._prefix = (magnitudes, sums, abs_sums)
        return self._prefix

    def integral_at(self, bound) -> Fraction:
        if bound == INF or self.total_bound <= bound:
            return self.untruncated_integral()
        prefix = self._prefix_sums()
        if prefix is None:
            raise FormNotExact("truncation needs disjoint constant pieces")
        magnitudes, sums, _ = prefix
        k = bisect.bisect_right(magnitudes, bound)
        return sums[k - 1] if k else Fraction(0)

    def abs_integral_at(self, bound) -> Fraction:
        """Integral of |g| * 1{|g| <= bound}; needs the piece decomposition
        even untruncated, since |g| has no separable form in general."""
        prefix = self._prefix_sums()
        if prefix is None:
            raise FormNotExact(
                "absolute-value integration needs disjoint constant pieces"
            )
        magnitudes, _, abs_sums = prefix
        if bound == INF or self.total_bound <= bound:
            return abs_sums[-1] if abs_sums else Fraction(0)
        k = bisect.bisect_right(magnitudes, bound)
        return abs_sums[k - 1] if k else Fraction(0)


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
