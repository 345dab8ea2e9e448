"""The two-limit integration engine.

An integral over a unit cell is the double limit (first in the slice
dimension n, then in the magnitude bound M) of finite-dimensional Lebesgue
integrals of truncated slices.  The engine runs both limits along a finite
schedule, detects stabilization with an auditable window criterion, and
assembles global integrals cell by cell over a sigma-finite cover of the
function's support, reading a cell's slices off one whole-space form (or
cutting them one n at a time where it cannot).  The |f| double limit is
computed in the same pass as the signed one, sharing the pieces.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .boxes import SparseVector
from .cells import Cell, NotSigmaFinite, ORIGIN_CELL, sigma_cover
from .errors import FormNotExact, UnknownSupport
from .exprs import (
    Anchor,
    Expr,
    ZERO_ANCHOR,
    slice_function,
    slice_horizon,
    support,
    translate,
)
from .exprs import UNKNOWN as UNKNOWN_SUPPORT
from .intervals import INF
from .quadrature import SliceEvaluator, SliceIntegral, _form_evaluators

# Dense while slices are cheap, then every other n up to 60.  The upper end
# is set by the largest default truncation bound: a truncated slice of an
# unbounded function can plateau until n passes the bound's threshold (about
# n = 33 at M = 2^20 for the stock counterexample), and the window test
# needs several shrinking steps beyond that.
_DEFAULT_N = tuple(range(0, 25)) + tuple(range(26, 61, 2))
_DEFAULT_M = tuple(Fraction(2) ** k for k in range(0, 21))

# The most values a schedule or a slice scan may list; front ends check a
# requested count against it before building the values.
MAX_SCHEDULE_VALUES = 10_000


@dataclass(frozen=True)
class LimitSchedule:
    """Finite realization of the double limit: which n and M to visit,
    and when a sequence counts as stabilized."""

    n_values: tuple = _DEFAULT_N
    M_values: tuple = _DEFAULT_M
    window: int = 3
    epsilon: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "M_values", tuple(self.M_values))
        if not 0 < self.epsilon < INF:
            raise ValueError("epsilon must be positive and finite")
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if not self.n_values or list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n_values must be nonempty and strictly increasing")
        if self.n_values[0] < 0:
            raise ValueError(f"n_values must be nonnegative, got {self.n_values[0]}")
        ms = list(self.M_values)
        if not ms or any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError("M_values must be nonempty and strictly increasing")
        if max(len(self.n_values), len(ms)) > MAX_SCHEDULE_VALUES:
            raise ValueError(f"at most {MAX_SCHEDULE_VALUES} values of n or of M")

    def untruncated(self) -> "LimitSchedule":
        return LimitSchedule(self.n_values, (INF,), self.window, self.epsilon)


DEFAULT_SCHEDULE = LimitSchedule()

Number = Union[Fraction, float]


class Trace(_Sequence):
    """Read-only SliceIntegral rows, stored as columns (n_values, bound,
    values): a bound's row per n is built only when it is read.  Equality
    and hashing are those of the row tuple."""

    __slots__ = ("columns",)

    def __init__(self, columns=()):
        self.columns = tuple(columns)

    def __len__(self) -> int:
        return sum(len(values) for _, _, values in self.columns)

    def __iter__(self):
        for n_values, bound, values in self.columns:
            for n, value in zip(n_values, values):
                yield SliceIntegral(n, bound, value)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other):
        if not isinstance(other, (Trace, tuple, list)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


@dataclass(frozen=True)
class IntegralResult:
    value: Optional[Number]
    status: str  # converged | diverged | inconclusive | not-integrable
    trace: Trace = Trace()  # SliceIntegral per (n, M) visited
    cells_used: tuple = ()
    absolute_integral: Optional[Number] = None
    absolute_status: Optional[str] = None
    warnings: tuple = ()


def _close(a: Number, b: Number, eps: float) -> bool:
    if a == INF or b == INF:
        return a == b
    return abs(float(a - b)) < eps


def _stabilized(values: Sequence[Number], w: int, eps: float) -> bool:
    """True when the last w successive differences are all below eps."""
    if len(values) < w + 1:
        return False
    tail = values[-(w + 1):]
    return all(_close(tail[i], tail[i + 1], eps) for i in range(w))


@dataclass(frozen=True)
class _InnerLimit:
    values: tuple  # slice integral per n of the cache's schedule
    stabilized: bool
    abs_value: Optional[Number]
    abs_stabilized: bool


class _SliceCache:
    """The evaluators of a function's slices at increasing n, shared by
    every truncation bound: read off its whole-space form when ``_normalize``
    gives the tree one, else sliced and normalized one n at a time.

    Past the function's slice horizon every slice has the same body and the
    same integrals (each free coordinate is a unit-interval factor of 1), so
    all n beyond it share the evaluator built at the horizon.
    """

    def __init__(self, f: Expr, anchor: Anchor, n_values: Sequence[int]):
        self.f = f
        self.anchor = anchor
        self.n_values = tuple(n_values)
        self.horizon = slice_horizon(f, anchor)
        # all slices at once, off the form of x -> f(x + d) (no cell origin)
        ks = {n if self.horizon is None else min(n, self.horizon) for n in self.n_values}
        d, a = anchor.cell_origin, anchor.entries
        self._evaluators: dict = _form_evaluators(translate(f, d), a - d, ks) or {}

    def evaluator_at(self, n: int) -> SliceEvaluator:
        k = n if self.horizon is None else min(n, self.horizon)
        if k not in self._evaluators:
            self._evaluators[k] = SliceEvaluator(slice_function(self.f, self.anchor, k))
        return self._evaluators[k]


def _inner_limit(
    cache: _SliceCache, sched: LimitSchedule, bound: Number
) -> Optional[_InnerLimit]:
    """Run the n-limit at a fixed truncation bound.

    The whole n schedule is evaluated and stabilization is judged on the
    trailing window only: a sequence can sit on a plateau (the unbounded
    counterexample holds slice value 1 until n passes the truncation
    threshold) and an early exit would mistake the plateau for the limit.
    Each distinct evaluator is integrated once, and its values are spread
    over the n that share it.
    """
    integrals: dict = {}  # evaluator -> (value, |value| or None)
    abs_exact = True
    try:
        evaluators = [cache.evaluator_at(n) for n in cache.n_values]
        for ev in dict.fromkeys(evaluators):  # distinct, in order
            value = ev.integral_at(bound)
            abs_value = None
            if abs_exact:
                try:
                    abs_value = ev.abs_integral_at(bound)
                except FormNotExact:
                    abs_exact = False
            integrals[ev] = (value, abs_value)
    except FormNotExact:
        # an active Clamp, or truncating below the function's own bound,
        # would cut through a non-constant piece; the caller skips this
        # bound (any bound at or above the function's magnitude changes
        # nothing)
        return None
    values = tuple(integrals[ev][0] for ev in evaluators)
    abs_values = [integrals[ev][1] for ev in evaluators] if abs_exact else None
    return _InnerLimit(
        values,
        _stabilized(values, sched.window, sched.epsilon),
        abs_values[-1] if abs_values else None,
        abs_exact and _stabilized(abs_values, sched.window, sched.epsilon),
    )


def _inner_limits(cache: _SliceCache, sched: LimitSchedule, M_values):
    """(bound, inner limit or None) for each bound in turn.

    A bound at or above every slice's ``total_bound`` truncates nothing, so
    the first such bound runs the untruncated inner limit and every later
    one shares it.  The cap is read only after a limit came back, when the
    whole n schedule is built.
    """
    saturated: Optional[_InnerLimit] = None
    cap: Optional[Number] = None
    for bound in M_values:
        if saturated is not None and bound >= cap:
            yield bound, saturated
            continue
        lim = _inner_limit(cache, sched, bound)
        if lim is not None and cap is None:
            cap = max(
                (cache.evaluator_at(n).total_bound for n in cache.n_values),
                default=None,
            )
        if cap is not None and bound >= cap:
            saturated = lim
        yield bound, lim


def _outer_verdict(
    outer: List[Number], sched: LimitSchedule
) -> Tuple[str, Optional[Number]]:
    """Judge the M-limit from the per-bound inner limits (all stabilized)."""
    if len(outer) == 1 or _close(outer[-1], outer[-2], sched.epsilon):
        return "converged", outer[-1]
    diffs = [abs(float(outer[i + 1] - outer[i])) for i in range(len(outer) - 1)]
    nondecreasing = all(outer[i] <= outer[i + 1] for i in range(len(outer) - 1))
    diffs_not_shrinking = len(diffs) >= 2 and diffs[-1] >= diffs[-2] - sched.epsilon
    if nondecreasing and diffs_not_shrinking and diffs[-1] >= sched.epsilon:
        return "diverged", outer[-1]
    return "inconclusive", outer[-1]


def integrate_cell(
    f: Expr,
    cell: Cell = ORIGIN_CELL,
    anchor: Anchor = ZERO_ANCHOR,
    sched: LimitSchedule = DEFAULT_SCHEDULE,
) -> IntegralResult:
    """Integral of f over the given unit cell via the double limit.

    Every truncation bound in the schedule is visited (no early exit across
    M: a sequence that merely looks flat at small M proves nothing about the
    outer limit).
    """
    return _integrate_cell(f, cell, anchor, sched)[0]


def _integrate_cell(
    f: Expr, cell: Cell, anchor: Anchor, sched: LimitSchedule
) -> Tuple[IntegralResult, _SliceCache]:
    """``integrate_cell`` and the slice cache it ran on."""
    g = f if cell == ORIGIN_CELL else translate(f, cell.origin())
    cache = _SliceCache(g, anchor, sched.n_values)
    inner: List[_InnerLimit] = []
    columns: list = []
    warnings: List[str] = []
    for bound, lim in _inner_limits(cache, sched, sched.M_values):
        if lim is None:
            warnings.append(
                f"truncation at {bound} is not exactly representable for this "
                "function; bound skipped"
            )
            continue
        inner.append(lim)
        columns.append((cache.n_values, bound, lim.values))
    if not inner:
        warnings.append("no truncation bound in the schedule could be evaluated")
        result = IntegralResult(None, "inconclusive", cells_used=(cell,), warnings=tuple(warnings))
        return result, cache
    if sched.M_values == (INF,):
        warnings.append(
            "untruncated: the slice limit can disagree with the integral for "
            "unbounded functions"
        )
    abs_value = abs_status = None
    if all(lim.abs_stabilized for lim in inner):
        abs_status, abs_limit = _outer_verdict([lim.abs_value for lim in inner], sched)
        if abs_status == "converged":
            abs_value = abs_limit
    common = dict(
        trace=Trace(columns),
        cells_used=(cell,),
        absolute_integral=abs_value,
        absolute_status=abs_status,
        warnings=tuple(warnings),
    )
    if any(not lim.stabilized for lim in inner):
        bad = next(lim for lim in inner if not lim.stabilized)
        return IntegralResult(value=bad.values[-1], status="inconclusive", **common), cache
    status, value = _outer_verdict([lim.values[-1] for lim in inner], sched)
    return IntegralResult(value=value, status=status, **common), cache


@dataclass(frozen=True)
class CellEvidence:
    cell: Cell
    result: IntegralResult
    absolute_integral: Optional[Number]
    note: str = ""


@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str  # integrable | not-integrable | inconclusive
    reason: str
    cells: tuple
    evidence: tuple  # CellEvidence per cell
    absolute_integral: Optional[Number] = None


def _resolve_cells(f: Expr, cells) -> Union[List[Cell], NotSigmaFinite]:
    if cells is not None:
        return list(cells)
    supp = support(f)
    if supp is UNKNOWN_SUPPORT:
        raise UnknownSupport(
            "support of the function is not computable; pass cells explicitly"
        )
    return sigma_cover(supp)


def integrability_check(
    f: Expr,
    sched: LimitSchedule = DEFAULT_SCHEDULE,
    cells: Optional[Sequence[Cell]] = None,
) -> IntegrabilityReport:
    """Integrable iff the support is sigma-finite and the per-cell |f|
    integrals sum to a finite value along the schedule.

    This is the support -> sigma-cover -> per-cell double-limit stage that
    integrate_global shares.
    """
    resolved = _resolve_cells(f, cells)
    if isinstance(resolved, NotSigmaFinite):
        return IntegrabilityReport(
            verdict="not-integrable",
            reason=f"support is not sigma-finite: {resolved.reason}",
            cells=(),
            evidence=(),
        )
    evidence: List[CellEvidence] = []

    def report(verdict: str, reason: str, total=None) -> IntegrabilityReport:
        return IntegrabilityReport(verdict, reason, tuple(resolved), tuple(evidence), total)

    for cell in resolved:
        res, cache = _integrate_cell(f, cell, ZERO_ANCHOR, sched)
        if res.absolute_status == "converged":
            evidence.append(CellEvidence(cell, res, res.absolute_integral))
        elif res.absolute_status == "diverged":
            return report("not-integrable", "the |f| double limit diverges on at least one cell")
        else:
            # a bounded function is integrable on a unit cell, so the term
            # magnitudes of the largest slice bound the |f| integral
            try:
                bound = cache.evaluator_at(max(sched.n_values)).total_bound
            except FormNotExact:
                at = dict(cell.base.entries)
                return report("inconclusive", f"no |f| bound on the cell at {at}: slices not exact")
            note = f"upper bound {bound} from term magnitudes, not an exact |f| integral"
            evidence.append(CellEvidence(cell, res, bound, note))
    total = sum((e.absolute_integral for e in evidence), Fraction(0))
    largest = sched.M_values[-1]
    if largest != INF and float(total) > float(largest):
        # exceeding every truncation bound in the schedule is divergence
        # evidence only when the summands are converged |f| integrals; a
        # structural upper bound that overshoots proves nothing either way
        if all(not e.note for e in evidence):
            return report(
                "not-integrable",
                "partial sums of per-cell |f| integrals exceed every bound in the schedule",
                total,
            )
        return report(
            "inconclusive",
            "only an |f| upper bound is available and it exceeds every bound in the schedule",
        )
    return report(
        "integrable", "support is sigma-finite and per-cell |f| integrals sum finitely", total
    )


def integrate_global(
    f: Expr,
    sched: LimitSchedule = DEFAULT_SCHEDULE,
    cells: Optional[Sequence[Cell]] = None,
) -> IntegralResult:
    """Full pipeline: support, sigma-cover, per-cell |f| check, then the
    per-piece signed integrals summed in deterministic cell order.

    The cover's cells are distinct unit cells, so consecutive set
    differences remove only null boundary overlaps; each piece integral
    equals the full cell integral.  The signed values reuse the same
    per-cell runs as the integrability stage.
    """
    p = integrability_check(f, sched, cells)
    if p.verdict != "integrable":
        return IntegralResult(
            value=None,
            status="not-integrable" if p.verdict == "not-integrable" else "inconclusive",
            cells_used=p.cells,
            absolute_integral=p.absolute_integral,
            warnings=(f"integrability check: {p.reason}",),
        )
    total: Optional[Number] = Fraction(0)
    status = "converged"
    columns: list = []
    warnings: List[str] = []
    for e in p.evidence:
        res = e.result
        columns.extend(res.trace.columns)
        warnings.extend(res.warnings)
        if res.status != "converged":
            total, status = None, res.status
            break
        total = total + res.value
    return IntegralResult(
        value=total,
        status=status,
        trace=Trace(columns),
        cells_used=p.cells,
        absolute_integral=p.absolute_integral,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class InvarianceReport:
    shift: SparseVector
    direct: IntegralResult
    translated: IntegralResult
    difference: Optional[Number]
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.direct.status == "converged"
            and self.translated.status == "converged"
            and self.difference is not None
            and float(self.difference) <= self.tolerance
        )


def invariance_check(
    f: Expr,
    t: SparseVector,
    sched: LimitSchedule = DEFAULT_SCHEDULE,
    cells: Optional[Sequence[Cell]] = None,
) -> InvarianceReport:
    """Compare the integral of f with the integral of x -> f(x + t)."""
    direct = integrate_global(f, sched, cells)
    shifted = integrate_global(translate(f, t), sched)
    diff = None
    if direct.value is not None and shifted.value is not None:
        diff = abs(direct.value - shifted.value)
    return InvarianceReport(
        shift=t,
        direct=direct,
        translated=shifted,
        difference=diff,
        tolerance=2 * sched.epsilon,
    )


def slice_scan(
    f: Expr,
    anchor: Anchor = ZERO_ANCHOR,
    n_values: Sequence[int] = _DEFAULT_N,
    M_values: Sequence[Number] = (INF,),
) -> List[SliceIntegral]:
    """The raw (n, M) -> slice integral table, for plotting and inspection."""
    cache = _SliceCache(f, anchor, tuple(n_values))
    columns = [
        (cache.n_values, bound, lim.values)
        for bound, lim in _inner_limits(cache, DEFAULT_SCHEDULE, M_values)
        if lim is not None
    ]
    return list(Trace(columns))
