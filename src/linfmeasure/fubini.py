"""Coordinate-split iterated integration.

A split partitions the coordinate axes into V and W (finite/cofinite, or
the two infinite halves even/odd).  For structured functions the inner
W-integral is evaluated symbolically — the function is rewritten as a sum
of global separable terms (coefficient, per-coordinate univariate factors,
and a tail constraint on all remaining coordinates) — and the iterated
value is compared against direct integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .boxes import Box, tail_factor, union_disjointify
from .errors import SplitUnsupported
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
    Sum,
    Translate,
    _poly_shift,
)
from .intervals import INF, IntervalUnion, UNIT_UNION
from .limits import (
    DEFAULT_SCHEDULE,
    IntegralResult,
    LimitSchedule,
    Number,
    _stabilized,
    integrability_check,
    integrate_global,
)
from .quadrature import PiecewisePoly, _poly_mul


@dataclass(frozen=True)
class CoordinateSplit:
    """V and its complement W.  kind 'finite' lists V explicitly (W is the
    cofinite rest); 'even'/'odd' put those indices in V, the others in W."""

    kind: str = "finite"
    indices: tuple = ()

    def __post_init__(self):
        if self.kind not in ("finite", "even", "odd"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))
        if self.kind != "finite" and self.indices:
            raise ValueError("even/odd splits take no explicit indices")

    def v_contains(self, i: int) -> bool:
        if self.kind == "finite":
            return i in self.indices
        if self.kind == "even":
            return i % 2 == 0
        return i % 2 == 1

    @property
    def v_infinite(self) -> bool:
        return self.kind != "finite"

    @property
    def is_empty(self) -> bool:
        return self.kind == "finite" and not self.indices


@dataclass(frozen=True)
class SplitMeasures:
    v_measure: Union[Fraction, float]
    w_measure: Union[Fraction, float]

    @property
    def product(self) -> Union[Fraction, float]:
        if self.v_measure == 0 or self.w_measure == 0:
            return Fraction(0)
        return self.v_measure * self.w_measure


def box_split_measures(b: Box, split: CoordinateSplit) -> SplitMeasures:
    """Measures of the V- and W-projections of a box; their product equals
    the box measure (0 times infinity reads as 0)."""

    def side(in_side, infinite: bool):
        m = Fraction(1)
        for i, c in b.explicit:
            if in_side(i):
                m *= c.total_length
                if m == 0:
                    return Fraction(0)
        if infinite:
            return m * tail_factor(b.tail.total_length)
        return m

    v = side(split.v_contains, split.v_infinite)
    w = side(lambda i: not split.v_contains(i), True)
    return SplitMeasures(v_measure=v, w_measure=w)


# A factor is either a PiecewisePoly (zero outside its pieces) or a
# polynomial valid on the whole axis, written ("free", coeffs).
Factor = Union[PiecewisePoly, tuple]


def _mul_factors(a: Factor, b: Factor) -> Factor:
    a_free = isinstance(a, tuple)
    b_free = isinstance(b, tuple)
    if a_free and b_free:
        return ("free", _poly_mul(a[1], b[1]))
    if a_free:
        a, b = b, a
        a_free, b_free = b_free, a_free
    if b_free:
        return PiecewisePoly(
            tuple((iv, _poly_mul(coeffs, b[1])) for iv, coeffs in a.pieces)
        )
    return a.multiply(b)


def _integrate_factor(f: Factor) -> Fraction:
    if isinstance(f, tuple):
        raise SplitUnsupported(
            "a coordinate factor without bounded support has no finite integral"
        )
    return f.integral_over(None)


def _shift_factor(f: Factor, c: Fraction) -> Factor:
    if isinstance(f, tuple):
        return ("free", _poly_shift(f[1], c))
    return f.shift(c)


@dataclass(frozen=True)
class GlobalTerm:
    """coef * prod of per-coordinate factors * 1{x_i in tail} on all other
    coordinates.  tail None means no constraint on the rest."""

    coef: Fraction
    factors: tuple  # ((coord, Factor), ...) sorted
    tail: Optional[IntervalUnion]

    def factor_map(self) -> Dict[int, Factor]:
        return dict(self.factors)


def _gterm(coef, factors: Dict[int, Factor], tail) -> GlobalTerm:
    return GlobalTerm(Fraction(coef) if not isinstance(coef, Fraction) else coef,
                      tuple(sorted(factors.items(), key=lambda kv: kv[0])), tail)


def _intersect_tails(a: Optional[IntervalUnion], b: Optional[IntervalUnion]):
    if a is None:
        return b
    if b is None:
        return a
    return a.intersect(b)


def normalize_global(expr: Expr) -> List[GlobalTerm]:
    """Rewrite a whole-space expression as a sum of global separable terms.

    Raises SplitUnsupported outside the structured class (clamp, absolute
    value, and unexpanded series do not factor through a split)."""
    if isinstance(expr, Const):
        return [] if expr.value == 0 else [_gterm(expr.value, {}, None)]
    if isinstance(expr, Coord):
        return [_gterm(1, {expr.index: ("free", (Fraction(0), Fraction(1)))}, None)]
    if isinstance(expr, Scale):
        if expr.coef == 0:
            return []
        return [GlobalTerm(expr.coef * t.coef, t.factors, t.tail)
                for t in normalize_global(expr.arg)]
    if isinstance(expr, Sum):
        out: List[GlobalTerm] = []
        for t in expr.terms:
            out.extend(normalize_global(t))
        return out
    if isinstance(expr, Prod):
        acc = [_gterm(1, {}, None)]
        for g in expr.factors:
            acc = _cross_multiply_global(acc, normalize_global(g))
        return acc
    if isinstance(expr, Piecewise):
        return [
            _gterm(
                1,
                {expr.index: PiecewisePoly(tuple((c, coeffs) for c in iu.components))},
                None,
            )
            for iu, coeffs in expr.pieces
            if not iu.is_empty
        ]
    if isinstance(expr, Indicator):
        out = []
        for b in union_disjointify(expr.region).boxes:
            factors = {i: PiecewisePoly.constant_on(c) for i, c in b.explicit}
            out.append(_gterm(1, factors, b.tail))
        return out
    if isinstance(expr, Translate):
        out = []
        for t in normalize_global(expr.arg):
            factors = t.factor_map()
            for i, v in expr.shift.entries:
                if i in factors:
                    factors[i] = _shift_factor(factors[i], v)
                elif t.tail is not None:
                    # the tail constraint on this coordinate becomes explicit
                    factors[i] = PiecewisePoly.constant_on(t.tail.translate(-v))
            out.append(_gterm(t.coef, factors, t.tail))
        return out
    if isinstance(expr, Series):
        raise SplitUnsupported("series must be expanded before split integration")
    if isinstance(expr, (Clamp, Abs)):
        raise SplitUnsupported(
            f"{type(expr).__name__} does not factor through a coordinate split"
        )
    raise SplitUnsupported(f"cannot factor node {type(expr).__name__} through a split")


def _cross_multiply_global(
    a: List[GlobalTerm], b: List[GlobalTerm]
) -> List[GlobalTerm]:
    out = []
    for s in a:
        for t in b:
            tail = _intersect_tails(s.tail, t.tail)
            factors = s.factor_map()
            for i, fb in t.factors:
                if i in factors:
                    factors[i] = _mul_factors(factors[i], fb)
                else:
                    # s constrains this coordinate only through its tail
                    fb2 = fb
                    if s.tail is not None:
                        fb2 = _mul_factors(fb, PiecewisePoly.constant_on(s.tail))
                    factors[i] = fb2
            for i, fa in s.factors:
                if t.tail is not None and all(j != i for j, _ in t.factors):
                    factors[i] = _mul_factors(
                        factors[i], PiecewisePoly.constant_on(t.tail)
                    )
            out.append(_gterm(s.coef * t.coef, factors, tail))
    return out


def _term_iterated_value(term: GlobalTerm, split: CoordinateSplit) -> Fraction:
    """Iterated integral of one separable term: inner W, then outer V.

    Separability makes the inner integral a constant in the V-variables, so
    each side contributes the product of its factor integrals, a tail length
    per unconstrained finite-side coordinate, and a 0/1/infinity tail factor
    per infinite side.  A zero side annihilates the term before any infinite
    factor can appear (the measure convention 0 times infinity is 0)."""
    fmap = term.factor_map()

    def side_value(in_side, infinite: bool) -> Union[Fraction, float]:
        val = Fraction(1)
        for i, fac in term.factors:
            if in_side(i):
                val *= _integrate_factor(fac)
                if val == 0:
                    return Fraction(0)
        if not infinite:
            # finitely many V-coordinates without an explicit factor are
            # constrained by the tail; each contributes its length
            if term.tail is not None:
                for i in split.indices:
                    if i not in fmap:
                        val *= term.tail.total_length
                        if val == 0:
                            return Fraction(0)
            return val
        if term.tail is None:
            raise SplitUnsupported(
                "a term without a tail constraint has no finite integral over "
                "the infinite side of the split"
            )
        return val * tail_factor(term.tail.total_length)

    v = side_value(split.v_contains, split.v_infinite)
    if v == 0:
        return Fraction(0)
    w = side_value(lambda i: not split.v_contains(i), True)
    if w == 0:
        return Fraction(0)
    if v == INF or w == INF:
        raise SplitUnsupported("iterated integral is infinite on one side")
    return term.coef * v * w


def _contains_series(expr: Expr) -> bool:
    if isinstance(expr, Series):
        return True
    if isinstance(expr, Sum):
        return any(_contains_series(t) for t in expr.terms)
    if isinstance(expr, Prod):
        return any(_contains_series(g) for g in expr.factors)
    if isinstance(expr, (Scale, Translate, Clamp, Abs)):
        return _contains_series(expr.arg)
    return False


def _expand_series(expr: Expr, depth: int) -> Expr:
    if isinstance(expr, Series):
        return Sum(tuple(expr.term(k) for k in range(expr.start, depth + 1)))
    if isinstance(expr, Sum):
        return Sum(tuple(_expand_series(t, depth) for t in expr.terms))
    if isinstance(expr, Prod):
        return Prod(tuple(_expand_series(g, depth) for g in expr.factors))
    if isinstance(expr, Scale):
        return Scale(expr.coef, _expand_series(expr.arg, depth))
    if isinstance(expr, Translate):
        return Translate(_expand_series(expr.arg, depth), expr.shift)
    return expr


def _iterated_value_exact(f: Expr, split: CoordinateSplit) -> Fraction:
    return sum(
        (_term_iterated_value(t, split) for t in normalize_global(f)), Fraction(0)
    )


def iterated_integrate(
    f: Expr,
    split: CoordinateSplit,
    sched: LimitSchedule = DEFAULT_SCHEDULE,
    assume_integrable: bool = False,
) -> IntegralResult:
    """Integral of f computed as outer-over-V of the inner W-integral.

    Integrability is verified first (skippable when the caller has already
    established it); the split value itself is symbolic and exact for
    structured terms.  Series are expanded to increasing depth and the
    partial iterated values must stabilize."""
    if split.is_empty:
        return integrate_global(f, sched)
    if not assume_integrable:
        check = integrability_check(f, sched)
        if check.verdict != "integrable":
            return IntegralResult(
                value=None,
                status="not-integrable" if check.verdict == "not-integrable" else "inconclusive",
                warnings=(f"integrability check: {check.reason}",),
            )
    warnings = (
        "inner-slice integrability holds term-by-term for structured f; the "
        "almost-everywhere condition is not verified pointwise",
    )
    if not _contains_series(f):
        value = _iterated_value_exact(f, split)
        return IntegralResult(value=value, status="converged", warnings=warnings)
    partials: List[Fraction] = []
    for depth in sched.n_values:
        partials.append(_iterated_value_exact(_expand_series(f, depth), split))
        if _stabilized(partials, sched.window, sched.epsilon):
            return IntegralResult(
                value=partials[-1], status="converged", warnings=warnings
            )
    return IntegralResult(
        value=partials[-1] if partials else None,
        status="inconclusive",
        warnings=warnings + ("series expansion did not stabilize",),
    )


@dataclass(frozen=True)
class FubiniRow:
    split: CoordinateSplit
    iterated: IntegralResult
    direct: IntegralResult
    difference: Optional[Number]

    @property
    def consistent(self) -> bool:
        if self.iterated.status != self.direct.status:
            return False
        if self.iterated.status != "converged":
            return True  # verdicts agree (e.g. both not-integrable)
        return self.difference is not None


@dataclass(frozen=True)
class FubiniReport:
    rows: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        for r in self.rows:
            if not r.consistent:
                return False
            if r.difference is not None and float(r.difference) > self.tolerance:
                return False
        return True


def fubini_check(
    f: Expr,
    splits: List[CoordinateSplit],
    sched: LimitSchedule = DEFAULT_SCHEDULE,
) -> FubiniReport:
    """Compare iterated integration against direct integration per split.

    The integrability verdict is taken from the direct run, so each split
    costs only the symbolic iterated evaluation."""
    direct = integrate_global(f, sched)
    rows = []
    for split in splits:
        try:
            if split.is_empty:
                it = direct
            elif direct.status == "converged":
                it = iterated_integrate(f, split, sched, assume_integrable=True)
            elif direct.status in ("not-integrable", "inconclusive"):
                it = IntegralResult(
                    value=None,
                    status=direct.status,
                    warnings=("integrability verdict taken from the direct run",),
                )
            else:
                it = iterated_integrate(f, split, sched)
        except SplitUnsupported as exc:
            it = IntegralResult(value=None, status="inconclusive", warnings=(str(exc),))
        diff = None
        if it.value is not None and direct.value is not None:
            diff = abs(it.value - direct.value)
        rows.append(FubiniRow(split=split, iterated=it, direct=direct, difference=diff))
    return FubiniReport(rows=tuple(rows), tolerance=2 * sched.epsilon)
