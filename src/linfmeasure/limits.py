"""The two-limit integration engine.

An integral over a unit cell is the double limit (first in the slice
dimension n, then in the magnitude bound M) of finite-dimensional Lebesgue
integrals of truncated slices.  The engine runs both limits along a finite
schedule, detects stabilization with an auditable window criterion, and
assembles global integrals cell by cell over a sigma-finite cover of the
function's support.  The |f| double limit is computed in the same pass as
the signed one, sharing the per-slice piece decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .quadrature import SliceEvaluator, SliceIntegral

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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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


@dataclass(frozen=True)
class IntegralResult:
    value: Optional[Number]
    status: str  # converged | diverged | inconclusive | not-integrable
    trace: tuple = ()  # SliceIntegral per (n, M) visited
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
    bound: Number
    value: Optional[Number]
    stabilized: bool
    abs_value: Optional[Number]
    abs_stabilized: bool
    trace: tuple


class _SliceCache:
    """Lazily slices and normalizes a function at increasing n, so every
    truncation bound reuses the per-slice normalization.

    Past the function's slice horizon every slice has the same body and the
    same integrals (each free coordinate is a unit-interval factor of 1), so
    all n beyond it share the evaluator built at the horizon.
    """

    def __init__(self, f: Expr, anchor: Anchor, n_values: Sequence[int]):
        self.f = f
        self.anchor = anchor
        self.n_values = tuple(n_values)
        self.horizon = slice_horizon(f, anchor)
        self._evaluators: dict = {}

    def _key(self, n: int) -> int:
        return n if self.horizon is None else min(n, self.horizon)

    def evaluator_at(self, n: int) -> SliceEvaluator:
        k = self._key(n)
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
    """
    trace: List[SliceIntegral] = []
    values: List[Number] = []
    abs_values: Optional[List[Number]] = []
    for n in cache.n_values:
        ev = cache.evaluator_at(n)
        try:
            value = ev.integral_at(bound)
        except FormNotExact:
            # truncating below the function's own bound would cut through
            # a non-constant piece; the caller skips this bound (any bound
            # at or above the function's magnitude changes nothing)
            return None
        trace.append(SliceIntegral(n, bound, value))
        values.append(value)
        if abs_values is not None:
            try:
                abs_values.append(ev.abs_integral_at(bound))
            except FormNotExact:
                abs_values = None
    ok = _stabilized(values, sched.window, sched.epsilon)
    abs_ok = abs_values is not None and _stabilized(
        abs_values, sched.window, sched.epsilon
    )
    return _InnerLimit(
        bound,
        values[-1] if values else None,
        ok,
        abs_values[-1] if abs_values else None,
        abs_ok,
        tuple(trace),
    )


def _inner_limits(cache: _SliceCache, sched: LimitSchedule, M_values):
    """(bound, inner limit or None) for each bound in turn.

    A bound at or above every slice's ``total_bound`` truncates nothing, so
    the first such bound runs the untruncated inner limit and every later
    one reuses it, its trace relabelled with the later bound.  The cap is
    read only after a limit came back, when the whole n schedule is built.
    """
    saturated: Optional[_InnerLimit] = None
    cap: Optional[Number] = None
    for bound in M_values:
        if saturated is not None and bound >= cap:
            trace = tuple(SliceIntegral(t.n, bound, t.value) for t in saturated.trace)
            yield bound, replace(saturated, bound=bound, trace=trace)
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
    g = f if cell == ORIGIN_CELL else translate(f, cell.origin())
    cache = _SliceCache(g, anchor, sched.n_values)
    inner: List[_InnerLimit] = []
    trace: List[SliceIntegral] = []
    warnings: List[str] = []
    for bound, lim in _inner_limits(cache, sched, sched.M_values):
        if lim is None:
            warnings.append(
                f"truncation at {bound} is not exactly representable for this "
                "function; bound skipped"
            )
            continue
        inner.append(lim)
        trace.extend(lim.trace)
    if not inner:
        return IntegralResult(
            value=None,
            status="inconclusive",
            cells_used=(cell,),
            warnings=tuple(warnings)
            + ("no truncation bound in the schedule could be evaluated",),
        )
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
        trace=tuple(trace),
        cells_used=(cell,),
        absolute_integral=abs_value,
        absolute_status=abs_status,
        warnings=tuple(warnings),
    )
    if any(not lim.stabilized for lim in inner):
        bad = next(lim for lim in inner if not lim.stabilized)
        return IntegralResult(value=bad.value, status="inconclusive", **common)
    status, value = _outer_verdict([lim.value for lim in inner], sched)
    return IntegralResult(value=value, status=status, **common)


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


def _structural_bound(
    f: Expr, cell: Cell, sched: LimitSchedule
) -> Optional[Fraction]:
    """Upper bound on the |f| integral over the cell from term magnitudes;
    valid because a bounded function is integrable on a unit cell."""
    try:
        g = f if cell == ORIGIN_CELL else translate(f, cell.origin())
        cache = _SliceCache(g, ZERO_ANCHOR, sched.n_values)
        return cache.evaluator_at(max(sched.n_values)).total_bound
    except FormNotExact:
        return None


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
    for cell in resolved:
        res = integrate_cell(f, cell, ZERO_ANCHOR, sched)
        if res.absolute_status == "converged":
            evidence.append(CellEvidence(cell, res, res.absolute_integral))
        elif res.absolute_status == "diverged":
            return IntegrabilityReport(
                verdict="not-integrable",
                reason="the |f| double limit diverges on at least one cell",
                cells=tuple(resolved),
                evidence=tuple(evidence),
            )
        else:
            bound = _structural_bound(f, cell, sched)
            if bound is None:
                return IntegrabilityReport(
                    verdict="inconclusive",
                    reason="|f| admits neither a stabilized double limit nor a "
                    "structural bound on every cell",
                    cells=tuple(resolved),
                    evidence=tuple(evidence),
                )
            evidence.append(
                CellEvidence(
                    cell,
                    res,
                    bound,
                    note=f"upper bound {bound} from term magnitudes, not an "
                    "exact |f| integral",
                )
            )
    total = sum((e.absolute_integral for e in evidence), Fraction(0))
    largest = sched.M_values[-1]
    if largest != INF and float(total) > float(largest):
        # exceeding every truncation bound in the schedule is divergence
        # evidence only when the summands are converged |f| integrals; a
        # structural upper bound that overshoots proves nothing either way
        exact = all(not e.note for e in evidence)
        return IntegrabilityReport(
            verdict="not-integrable" if exact else "inconclusive",
            reason=(
                "partial sums of per-cell |f| integrals exceed every bound "
                "in the schedule"
                if exact
                else "only an |f| upper bound is available and it exceeds "
                "every bound in the schedule"
            ),
            cells=tuple(resolved),
            evidence=tuple(evidence),
            absolute_integral=total if exact else None,
        )
    return IntegrabilityReport(
        verdict="integrable",
        reason="support is sigma-finite and per-cell |f| integrals sum finitely",
        cells=tuple(resolved),
        evidence=tuple(evidence),
        absolute_integral=total,
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
    total: Number = Fraction(0)
    trace: List[SliceIntegral] = []
    warnings: List[str] = []
    for e in p.evidence:
        res = e.result
        trace.extend(res.trace)
        warnings.extend(res.warnings)
        if res.status != "converged":
            return IntegralResult(
                value=None,
                status=res.status,
                trace=tuple(trace),
                cells_used=p.cells,
                absolute_integral=p.absolute_integral,
                warnings=tuple(warnings),
            )
        total = total + res.value
    return IntegralResult(
        value=total,
        status="converged",
        trace=tuple(trace),
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
    out: List[SliceIntegral] = []
    cache = _SliceCache(f, anchor, tuple(n_values))
    for _, lim in _inner_limits(cache, DEFAULT_SCHEDULE, M_values):
        if lim is not None:
            out.extend(lim.trace)
    return out
