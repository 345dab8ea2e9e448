"""Independent oracles the test suite checks the library against.

Everything here is computed from first principles — closed forms worked out
by hand, exhaustive enumeration, inclusion-exclusion, and Monte Carlo — and
deliberately avoids the library's own measure and integration code paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

INF = float("inf")


# ---------------------------------------------------------------------------
# box measures


def box_measure_oracle(
    lengths: Sequence[Fraction], tail_length: Fraction
) -> Fraction | float:
    """Product of explicit lengths times the tail rule 0/1/infinity."""
    prod = Fraction(1)
    for length in lengths:
        prod *= length
    if prod == 0:
        return Fraction(0)
    if tail_length < 1:
        return Fraction(0)
    if tail_length == 1:
        return prod
    return INF


def inclusion_exclusion_volume(
    boxes: List[Dict[int, Tuple[Fraction, Fraction]]], coords: Sequence[int]
) -> Fraction:
    """|union| over the listed coordinates, each box a coord -> (lo, hi) map
    with missing coordinates meaning [0, 1]."""
    total = Fraction(0)
    for r in range(1, len(boxes) + 1):
        for combo in itertools.combinations(boxes, r):
            vol = Fraction(1)
            for c in coords:
                lo = max((b.get(c, (Fraction(0), Fraction(1)))[0] for b in combo))
                hi = min((b.get(c, (Fraction(0), Fraction(1)))[1] for b in combo))
                vol *= max(Fraction(0), hi - lo)
                if vol == 0:
                    break
            total += (-1) ** (r + 1) * vol
    return total


def _tail_closure(tail: Sequence[Tuple[Fraction, Fraction, bool, bool]]) -> list:
    """Closures of the nondegenerate intervals of a tail, merged where they
    meet: equal for two tails exactly when they differ in finitely many
    points."""
    merged: list = []
    for lo, hi, _, _ in sorted(tail):
        if lo == hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def tail_law_union_volume(
    boxes: List[Tuple[Dict[int, Tuple[Fraction, Fraction]], list]]
) -> Fraction | float:
    """Measure of a finite union of boxes by the 0/1/infinity tail law.

    Each box is (explicit, tail): explicit maps a coordinate to one interval
    (lo, hi), and tail lists disjoint intervals (lo, hi, lo_closed,
    hi_closed) whose closures merge into one interval.  A box with a null
    explicit side or a tail shorter than 1 is null; any other box with a
    longer tail makes the union infinite.  Unit tails with different
    closures meet in a tail shorter than 1, a null set, so the volume is a
    sum over closures, each by inclusion-exclusion with the closed tail
    standing in on every coordinate a member leaves to its tail.
    """
    classes: Dict[Tuple[Fraction, Fraction], list] = {}
    for explicit, tail in boxes:
        side = Fraction(1)
        for lo, hi in explicit.values():
            side *= hi - lo
        tail_length = sum((hi - lo for lo, hi, _, _ in tail), Fraction(0))
        if side == 0 or tail_length < 1:
            continue
        if tail_length > 1:
            return INF
        (closure,) = _tail_closure(tail)
        classes.setdefault(closure, []).append(explicit)
    total = Fraction(0)
    for closure, members in classes.items():
        coords = sorted(set().union(*members))
        filled = [{c: e.get(c, closure) for c in coords} for e in members]
        total += inclusion_exclusion_volume(filled, coords)
    return total


def monte_carlo_volume(
    boxes: List[Dict[int, Tuple[float, float]]],
    coords: Sequence[int],
    samples: int = 10**6,
    seed: int = 0,
) -> Tuple[float, float]:
    """(estimate, standard error) of the union volume inside [0,1]^coords."""
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, len(coords)))
    hit = np.zeros(samples, dtype=bool)
    for b in boxes:
        inside = np.ones(samples, dtype=bool)
        for k, c in enumerate(coords):
            lo, hi = b.get(c, (0.0, 1.0))
            inside &= (pts[:, k] >= lo) & (pts[:, k] <= hi)
        hit |= inside
    p = hit.mean()
    return float(p), float(np.sqrt(p * (1 - p) / samples))


# ---------------------------------------------------------------------------
# constant-piece disjointness


def _intervals_meet(a: tuple, b: tuple) -> bool:
    """Whether two intervals (lo, hi, lo_closed, hi_closed) share a point."""
    a_lo, a_hi, a_lo_closed, a_hi_closed = a
    b_lo, b_hi, b_lo_closed, b_hi_closed = b
    if a_lo > b_lo:
        lo, lo_closed = a_lo, a_lo_closed
    elif b_lo > a_lo:
        lo, lo_closed = b_lo, b_lo_closed
    else:
        lo, lo_closed = a_lo, a_lo_closed and b_lo_closed
    if a_hi < b_hi:
        hi, hi_closed = a_hi, a_hi_closed
    elif b_hi < a_hi:
        hi, hi_closed = b_hi, b_hi_closed
    else:
        hi, hi_closed = a_hi, a_hi_closed and b_hi_closed
    return lo < hi or (lo == hi and lo_closed and hi_closed)


def product_sets_pairwise_disjoint(
    pieces: List[Dict[int, List[Tuple[Fraction, Fraction, bool, bool]]]]
) -> bool:
    """Brute-force pairwise disjointness of product sets inside [0,1]^dims.

    Each piece maps a coordinate to a list of intervals (lo, hi, lo_closed,
    hi_closed) whose union is that coordinate's constraint; a coordinate
    missing from a piece is the closed window [0,1].  Two pieces meet iff on
    every coordinate either of them constrains some interval of one meets
    some interval of the other.
    """
    window = [(Fraction(0), Fraction(1), True, True)]
    for a, b in itertools.combinations(pieces, 2):
        meet = all(
            any(
                _intervals_meet(x, y)
                for x in a.get(c, window)
                for y in b.get(c, window)
            )
            for c in set(a) | set(b)
        )
        if meet:
            return False
    return True


def _interval_contains(interval: tuple, x: Fraction) -> bool:
    lo, hi, lo_closed, hi_closed = interval
    return (lo < x or (x == lo and lo_closed)) and (x < hi or (x == hi and hi_closed))


def product_sets_union_equal(
    first: List[Dict[int, list]], second: List[Dict[int, list]], coords: Sequence[int]
) -> bool:
    """Whether two finite unions of product sets hold the same points.

    Each set maps every coordinate in ``coords`` to a list of intervals
    (lo, hi, lo_closed, hi_closed).  On each coordinate membership is
    constant at every endpoint and between consecutive endpoints, and no set
    reaches past the outermost ones, so comparing membership over the grid
    of endpoints and midpoints decides equality exactly.  The grid is
    evaluated with numpy.
    """
    axes = []
    for c in coords:
        ends = sorted({e for s in first + second for iv in s[c] for e in iv[:2]})
        mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        axes.append(sorted(ends + mids))

    def members(sets):
        hit = np.zeros(tuple(len(a) for a in axes), dtype=bool)
        for s in sets:
            inside = np.ones_like(hit)
            for k, (c, pts) in enumerate(zip(coords, axes)):
                shape = [1] * len(axes)
                shape[k] = len(pts)
                on_axis = [any(_interval_contains(iv, x) for iv in s[c]) for x in pts]
                inside &= np.array(on_axis, dtype=bool).reshape(shape)
            hit |= inside
        return hit

    return bool(np.array_equal(members(first), members(second)))


# ---------------------------------------------------------------------------
# the unbounded counterexample ("spike" function)
#
# f = (3/2) 1{x0 in U, x_i in A for i >= 1}
#     + sum_{n>=1} 2 (3/2)^n 1{x_i in U for i < n, x_n in C, x_i in A for i > n}
# with A = [0,1/3], C = [2/3,1], U = A union C.


def spike_coef(n: int) -> Fraction:
    if n == 0:
        return Fraction(3, 2)
    return Fraction(2) * Fraction(3, 2) ** n


def spike_truncation_threshold(M: Fraction) -> int:
    """Largest n whose term magnitude survives 1{|f| <= M} (-1 if none)."""
    n = 0
    while spike_coef(n + 1) <= M:
        n += 1
    return n if spike_coef(0) <= M else -1


def spike_slice_untruncated(N: int) -> Fraction:
    """Closed form: the N-slice of f integrates to exactly 1 for every N."""
    total = spike_coef(0) * Fraction(2, 3) * Fraction(1, 3) ** N
    for n in range(1, N + 1):
        total += (
            spike_coef(n)
            * Fraction(2, 3) ** n
            * Fraction(1, 3)
            * Fraction(1, 3) ** (N - n)
        )
    return total


def spike_slice_truncated(N: int, M: Fraction) -> Fraction:
    """Closed form 3^{min(N, n0)+1} / 3^{N+1} with n0 the truncation
    threshold (derived by summing the surviving terms' geometric series)."""
    n0 = spike_truncation_threshold(M)
    if n0 < 0:
        return Fraction(0)
    return Fraction(3 ** (min(N, n0) + 1), 3 ** (N + 1))


def spike_slice_enumerated(N: int, M: Fraction | float) -> Fraction:
    """Exhaustive oracle: label every coordinate 0..N with A / B / C
    (B = (1/3, 2/3)), visit all 3^{N+1} label cells, and add each cell's
    constant value when it survives the truncation.  Pattern masks are
    evaluated with numpy over the whole grid; counts stay exact integers."""
    dims = N + 1
    # labels[t, i] in {0 (A), 1 (B), 2 (C)} for tuple t
    grids = np.meshgrid(*([np.arange(3, dtype=np.int8)] * dims), indexing="ij")
    labels = np.stack([g.ravel() for g in grids], axis=1)
    in_A = labels == 0
    in_C = labels == 2
    in_U = in_A | in_C
    total = Fraction(0)
    cell_volume = Fraction(1, 3) ** dims
    # head: x0 in U, the rest in A
    mask = in_U[:, 0]
    for i in range(1, dims):
        mask = mask & in_A[:, i]
    value = spike_coef(0)
    if not (M != INF and value > M):
        total += value * int(mask.sum()) * cell_volume
    # term n: coords < n in U, coord n in C, coords > n in A
    for n in range(1, dims):
        mask = in_C[:, n]
        for i in range(n):
            mask = mask & in_U[:, i]
        for i in range(n + 1, dims):
            mask = mask & in_A[:, i]
        value = spike_coef(n)
        if M != INF and value > M:
            continue
        total += value * int(mask.sum()) * cell_volume
    return total


def spike_support_slice_volume(N: int) -> Fraction:
    """Volume of U^{N+1}: (2/3)^{N+1}."""
    return Fraction(2, 3) ** (N + 1)


# ---------------------------------------------------------------------------
# functions constant on the cells of a rational grid


def grid_average(
    f,
    n: int,
    M: Fraction | float = INF,
    q: int = 4,
    origin: Dict[int, int] | None = None,
    frozen: Dict[int, Fraction] | None = None,
) -> Fraction:
    """Integral of f * 1{|f| <= M} over coordinates 0..n of one unit cell.

    Coordinate i <= n runs over [origin_i, origin_i + 1]; a coordinate
    beyond n is held at ``frozen`` (0 where not given).  When f is constant
    on the open cells of the grid with spacing 1/q, the integral is the
    average of its values at the cell midpoints, each found by
    ``exprs.evaluate``; the separable normal form is never used.
    """
    from linfmeasure.exprs import evaluate

    origin = origin or {}
    total = Fraction(0)
    for cell in itertools.product(range(q), repeat=n + 1):
        point = dict(frozen or {})
        for i, k in enumerate(cell):
            point[i] = origin.get(i, 0) + Fraction(2 * k + 1, 2 * q)
        v = evaluate(f, point)
        if abs(v) <= M:
            total += v
    return total / q ** (n + 1)
