"""Coordinate-split iterated integration.

A split partitions the coordinate axes into V and W (finite/cofinite, or
the two infinite halves even/odd).  For structured functions the inner
W-integral is evaluated symbolically: the separable terms of
``quadrature.normalize`` (coefficient, per-coordinate univariate factors,
and a tail constraint on all remaining coordinates) hold on the whole
space, so each term's iterated value is a product of factor integrals and
tail factors, read off ``quadrature._normalize`` by ``normalize_global``.
The iterated value is compared against direct integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .boxes import Box, ZERO_VECTOR, tail_factor
from .errors import FormNotExact, NotDisjointifiable, SplitUnsupported
from .exprs import Expr, Series
from .intervals import INF
from .limits import (
    DEFAULT_SCHEDULE,
    IntegralResult,
    LimitSchedule,
    Number,
    _stabilized,
    integrability_check,
    integrate_global,
)
from .quadrature import PiecewisePoly, SeparableTerm, _normalize


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
    """Measures of the V- and W-projections of a box: the two sides of its
    indicator's separable term.  Their product equals the box measure (0
    times infinity reads as 0)."""
    factors = tuple((i, PiecewisePoly.constant_on(c)) for i, c in b.explicit)
    term = SeparableTerm(Fraction(1), factors, b.tail)
    return SplitMeasures(_side(term, split, True), _side(term, split, False))


def _side(term: SeparableTerm, split: CoordinateSplit, v_side: bool) -> Number:
    """A term's integral over the V side (v_side) or the W side of a split,
    without its coefficient: the product of the side's factor integrals, a
    tail length per finite-side coordinate without a factor, and a
    0/1/infinity tail factor on an infinite side.  A zero product returns
    before any infinite factor can appear (0 times infinity is 0)."""
    val = Fraction(1)
    for i, fac in term.factors:
        if split.v_contains(i) == v_side:
            if isinstance(fac, tuple):
                raise SplitUnsupported(
                    "a coordinate factor without bounded support has no finite integral"
                )
            val *= fac.integral_over()
            if val == 0:
                return Fraction(0)
    if v_side and not split.v_infinite:
        # finitely many V-coordinates without an explicit factor are
        # constrained by the tail; each contributes its length
        if term.tail is not None:
            coords = {i for i, _ in term.factors}
            for i in split.indices:
                if i not in coords:
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


def _unexpanded(s: Series, shift) -> None:
    raise FormNotExact("series must be expanded before split integration")


def normalize_global(expr: Expr, read=None) -> List[SeparableTerm]:
    """The whole-space terms of an expression, each ``Series`` expanded by
    ``read`` as in ``quadrature._normalize``.  A clamp or absolute value, or
    a series with no reader, raises SplitUnsupported naming the node; boxes
    that meet with different tails raise NotDisjointifiable."""
    try:
        return _normalize(expr, ZERO_VECTOR, read or _unexpanded)
    except FormNotExact as exc:
        raise SplitUnsupported(str(exc)) from None


def _term_iterated_value(term: SeparableTerm, split: CoordinateSplit) -> Fraction:
    """Iterated integral of one separable term: inner W, then outer V.

    Separability makes the inner integral a constant in the V-variables, so
    the value is the coefficient times the two sides' integrals.  A zero V
    side annihilates the term before the W side is read."""
    v = _side(term, split, True)
    if v == 0:
        return Fraction(0)
    w = _side(term, split, False)
    if w == 0:
        return Fraction(0)
    if v == INF or w == INF:
        raise SplitUnsupported("iterated integral is infinite on one side")
    return term.coef * v * w


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
    # each Series is summed to growing depth: every series term up to the
    # last depth is read and normalized once, and a term enters the running
    # sum at the largest series index it was read from
    expanded = []  # the series read; none: the first depth holds every term

    def read(s: Series, shift):
        expanded.append(s)
        for k in range(s.start, sched.n_values[-1] + 1):
            yield k, s.term(k)

    terms = sorted(normalize_global(f, read), key=lambda t: max(t._series, default=0))
    partials: List[Fraction] = []
    total, i = Fraction(0), 0
    for depth in sched.n_values:
        while i < len(terms) and max(terms[i]._series, default=0) <= depth:
            total += _term_iterated_value(terms[i], split)
            i += 1
        partials.append(total)
        if not expanded or _stabilized(partials, sched.window, sched.epsilon):
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
    costs only the symbolic iterated evaluation.  A split that raises
    SplitUnsupported or NotDisjointifiable (a region whose boxes overlap
    with different tails, which only the whole-space form meets; every
    slice has a unit tail) is inconclusive, with the message as warning."""
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
        except (SplitUnsupported, NotDisjointifiable) as exc:
            it = IntegralResult(value=None, status="inconclusive", warnings=(str(exc),))
        diff = None
        if it.value is not None and direct.value is not None:
            diff = abs(it.value - direct.value)
        rows.append(FubiniRow(split=split, iterated=it, direct=direct, difference=diff))
    return FubiniReport(rows=tuple(rows), tolerance=2 * sched.epsilon)
