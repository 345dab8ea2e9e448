"""Seeded task lists for the benchmark workloads, as plain data.

A spec is a dict that names one call into the library (``kind``) and its
inputs as rationals, coordinates and shapes.  It holds no library object, so
``reference.py`` computes the expected result from the spec alone and never
runs the code under test.  Shapes (box counts, coordinate counts, which
coordinates are constrained, how intervals interleave) are fixed per
workload; the seed picks only the values and the task order, so every seed
does the same amount of work, which keeps run-to-run spread down.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("spike-limit", "box-union", "cylinder-verify", "cli-basics")

PROBLEM_FILE = "problems/basics.json"

# tails of length exactly 1 (finite measure) and one of length 1/2 (null)
UNIT_TAILS = ((F(0), F(1)), (F(1, 3), F(4, 3)), (F(1, 2), F(3, 2)))
NULL_TAIL = (F(0), F(1, 2))

# Sizes stop below the known cliffs, which cannot finish within a run: 2
# boxes overlapping on 4 coordinates (17.7 s), 3 boxes on 3 coordinates
# (about 7 s), 4 random boxes over 4 coordinates (54 s), and the indicator of
# an overlapping union on 3 coordinates (18 s per integral).  The sizes where
# the growth shows (2 boxes on 3 coordinates, 12 mixed-tail boxes, 200
# disjoint boxes) are kept.
OVERLAP_SHAPES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2))
MIXED_SIZES = (8, 9, 10, 11, 12)
DISJOINT_SIZES = (50, 100, 200)
# one task runs patch_measure, cell_decompose, sigma_cover and nz_set on a
# union; there are enough of them that the median task is one of them
CELL_UNIONS = 16

CYLINDER_BOX_COORDS = ((0,), (1,), (0, 2), (1, 3), (0, 1, 2))
CYLINDER_PROD_COORDS = ((0,), (2,), (0, 1), (1, 3))
# one task runs a function through integrate_global, invariance_check and
# fubini_check; 59 of them fill one 20 s run
CYLINDER_FAMILIES = (("box", 26), ("prod", 26), ("union1", 6), ("union2", 1))

SPIKE_N_MAX = 22
SCAN_N_MAX = 20


def fmt(value):
    """An exact value as a string: rationals as 'p/q', infinity as 'inf'.
    A float other than infinity keeps its repr, so it never equals an
    exact reference."""
    if value is None:
        return None
    if isinstance(value, (F, int)):
        return str(value)
    return "inf" if value == float("inf") else repr(value)


def cell_key(entries) -> str:
    """A lattice cell as 'coord:step,...' over its nonzero steps."""
    parts = [f"{i}:{v}" for i, v in sorted(entries) if v != 0]
    return ",".join(parts) or "origin"


def workload_specs(workload: str, seed: int, root: Path) -> list:
    """The workload's task list in an order the seed picks.  Shuffling
    spreads each kind of task over the whole pass, so the median and tail
    task times are not drawn from one stretch of a noisy machine."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spike-limit":
        specs = spike_limit(rng)
    elif workload == "box-union":
        specs = box_union(rng)
    elif workload == "cylinder-verify":
        specs = cylinder_verify(rng)
    elif workload == "cli-basics":
        specs = cli_basics(root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# spike-limit


def spike_limit(rng: random.Random) -> list:
    """The stock unbounded spike, scaled by a rational and moved to another
    lattice cell by an integer shift; neither changes the work done."""
    scale = F(rng.randint(1, 9), rng.randint(1, 9))
    shift = {c: rng.choice((-2, -1, 1, 2)) for c in rng.sample(range(3), 2)}
    common = {"scale": scale, "shift": shift}
    specs = [dict(name="integrate_global", kind="spike_global", **common)]
    for label, bound in (("inf", None), ("m100", F(100))):
        for n in range(SPIKE_N_MAX + 1):
            specs.append(
                dict(name=f"slice_{label}_n{n}", kind="spike_slice", n=n, M=bound, **common)
            )
    specs.append(dict(name="support_scan", kind="support_scan", n_max=SCAN_N_MAX, **common))
    return specs


# ---------------------------------------------------------------------------
# box-union


def _box(explicit: dict, tail=UNIT_TAILS[0]) -> dict:
    return {"explicit": explicit, "tail": tail}


def _inner_interval(rng: random.Random) -> tuple:
    """A subinterval of (0, 1) in twelfths that never touches 0 or 1, so a
    constraint is never dropped as equal to the unit tail."""
    return F(rng.randint(1, 5), 12), F(rng.randint(7, 11), 12)


def overlap_boxes(rng: random.Random, k: int, c: int) -> list:
    """k boxes sharing one unit tail, overlapping on c coordinates.

    On every coordinate the 2k endpoints are distinct and box j spans ranks
    j..j+k, so all boxes meet and the atom grid has the same shape for
    every seed."""
    tail = rng.choice(UNIT_TAILS)
    coords = sorted(rng.sample(range(6), c))
    explicit = [{} for _ in range(k)]
    for coord in coords:
        ends = [F(v, 24) for v in sorted(rng.sample(range(1, 24), 2 * k))]
        for j in range(k):
            explicit[j][coord] = (ends[j], ends[j + k])
    return [_box(e, tail) for e in explicit]


def mixed_boxes(rng: random.Random, k: int) -> list:
    """k boxes over three unit tails and one null tail.

    Every interval and every tail contains 1/2, so all 2^k - 1
    intersections are nonempty, and overlapping boxes with different tails force the
    inclusion-exclusion path."""
    tails = UNIT_TAILS + (NULL_TAIL,)
    # the tail order is fixed: inclusion-exclusion runs over subsets in index
    # order, and where the null tail meets [1/2, 3/2] the running
    # intersection collapses early, so a shuffled order changes the work
    return [_box({j % 3: _inner_interval(rng)}, tails[j % 4]) for j in range(k)]


def disjoint_boxes(rng: random.Random, k: int) -> list:
    """k pairwise-disjoint boxes: box j sits strictly inside slot j of
    coordinate 0 and carries one more constraint on coordinate 1, 2 or 3."""
    boxes = []
    for j in range(k):
        lo = F(j, k) + F(rng.randint(1, 2), 4 * k)
        hi = F(j + 1, k) - F(rng.randint(1, 2), 4 * k)
        boxes.append(_box({0: (lo, hi), 1 + j % 3: _inner_interval(rng)}))
    return boxes


def cell_spec(rng: random.Random, name: str) -> dict:
    """Two boxes on coordinates 0 and 1 whose intervals run from (-1, 0) to
    (1, 2) in sixths: every box meets the same 3 x 3 cells and no endpoint
    is an integer, so every piece has positive length.  The shift, mass
    threshold and 5 x 5 window feed nz_set; the shift stays on coordinates
    0 and 1, since one on a third coordinate would make every cell mass a
    3-coordinate overlap and multiply the task's time by up to five."""
    boxes = [
        _box({c: (F(-rng.randint(1, 5), 6), F(rng.randint(7, 11), 6)) for c in (0, 1)})
        for _ in range(2)
    ]
    return dict(
        name=name, kind="cells", boxes=boxes,
        shift={c: F(rng.randint(1, 7), 8) for c in (0, 1)},
        delta=rng.choice((F(1, 8), F(1, 4), F(1, 3), F(1, 2))),
        window=[{0: a, 1: b} for a in range(-2, 3) for b in range(-2, 3)],
    )


def box_union(rng: random.Random) -> list:
    specs = []
    for k, c in OVERLAP_SHAPES:
        specs.append(dict(
            name=f"overlap_k{k}_c{c}", kind="union_measure", boxes=overlap_boxes(rng, k, c)
        ))
    for k in MIXED_SIZES:
        specs.append(dict(name=f"mixed_k{k}", kind="union_measure", boxes=mixed_boxes(rng, k)))
    for k in DISJOINT_SIZES:
        specs.append(dict(
            name=f"disjoint_k{k}", kind="union_measure", boxes=disjoint_boxes(rng, k),
            disjoint=True,
        ))
    for j in range(CELL_UNIONS):
        specs.append(cell_spec(rng, f"cells{j}"))
    return specs


# ---------------------------------------------------------------------------
# cylinder-verify


def _nonzero(rng: random.Random) -> F:
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _overlapping_pair(rng: random.Random, coords) -> list:
    explicit = [{}, {}]
    for c in coords:
        v = [F(x, 12) for x in sorted(rng.sample(range(1, 12), 4))]
        explicit[0][c], explicit[1][c] = (v[0], v[2]), (v[1], v[3])
    return [_box(e) for e in explicit]


def cylinder_function(rng: random.Random, family: str, j: int) -> dict:
    """One small function modelled on acceptance criteria 6 and 7."""
    if family == "box":
        coords = CYLINDER_BOX_COORDS[j % len(CYLINDER_BOX_COORDS)]
        box = _box({c: _inner_interval(rng) for c in coords})
        return {"family": family, "coef": _nonzero(rng), "boxes": [box]}
    if family == "prod":
        coords = CYLINDER_PROD_COORDS[j % len(CYLINDER_PROD_COORDS)]
        factors = [(c, _inner_interval(rng), _nonzero(rng)) for c in coords]
        return {"family": family, "factors": factors}
    coords = (j % 2,) if family == "union1" else (0, 1)
    return {"family": family, "coef": _nonzero(rng), "boxes": _overlapping_pair(rng, coords)}


def _shift(rng: random.Random, fn: dict) -> dict:
    """A shift on the function's first constrained coordinate, by an odd
    multiple of 1/24 strictly inside the support's hull there: the shifted
    support then always straddles a cell boundary (a two-cell cover), and no
    coordinate is added to the overlap, which for the unions would hit the
    3-coordinate cliff."""
    if fn["family"] == "prod":
        c, (lo, hi), _ = fn["factors"][0]
    else:
        c = min(fn["boxes"][0]["explicit"])
        lo = min(b["explicit"][c][0] for b in fn["boxes"])
        hi = max(b["explicit"][c][1] for b in fn["boxes"])
    inside = [k for k in range(1, 24, 2) if lo < F(k, 24) < hi]
    return {c: F(rng.choice(inside), 24)}


def cylinder_verify(rng: random.Random) -> list:
    specs = []
    for family, count in CYLINDER_FAMILIES:
        for j in range(count):
            fn = cylinder_function(rng, family, j)
            specs.append(dict(name=f"{family}{j}", kind="cylinder", function=fn, shift=_shift(rng, fn)))
    return specs


# ---------------------------------------------------------------------------
# cli-basics


def cli_basics(root: Path) -> list:
    """Every CLI command on the problem file."""
    problem = json.loads((root / PROBLEM_FILE).read_text())
    commands = [["measure", name] for name in sorted(problem["sets"])]
    commands += [
        ["verify"],
        ["integrate", "xy"],
        ["integrate", "spike", "--use-schedule", "quick"],
        ["slice-scan", "spike", "--n", f"0..{SCAN_N_MAX}", "--M", "2,100,inf"],
    ]
    return [
        dict(name="_".join(cmd[:2]), kind="cli", argv=cmd + ["-f", PROBLEM_FILE])
        for cmd in commands
    ]


# ---------------------------------------------------------------------------
# fixed-size probes for the traced run


PROBE_SLICE_N = (20, 40, 60)
PROBE_LADDER = (
    ("overlap_c1", lambda r: overlap_boxes(r, 2, 1)),
    ("overlap_c2", lambda r: overlap_boxes(r, 2, 2)),
    ("overlap_c3", lambda r: overlap_boxes(r, 2, 3)),
    ("mixed_k8", lambda r: mixed_boxes(r, 8)),
    ("mixed_k12", lambda r: mixed_boxes(r, 12)),
    ("disjoint_k50", lambda r: disjoint_boxes(r, 50)),
    ("disjoint_k200", lambda r: disjoint_boxes(r, 200)),
)


def probe_specs() -> list:
    """Seed-independent inputs run in every traced run, in two groups.

    "curve" probes time the spike slice stages at fixed n and the union
    measure at fixed sizes, so growth shows up as numbers; they are kept out
    of the per-layer totals.  "cover" probes are small calls that reach
    every traced layer once, so no layer's totals read zero on a workload
    that does not use it."""
    rng = random.Random("probes")
    curve = [dict(name=f"slice_n{n}", kind="slice_stages", n=n) for n in PROBE_SLICE_N]
    for name, make in PROBE_LADDER:
        curve.append(dict(
            name=name, kind="union_measure", boxes=make(rng),
            disjoint=name.startswith("disjoint"),
        ))
    cover = [cell_spec(rng, "cells")]
    fn = cylinder_function(rng, "prod", 2)
    cover.append(dict(name="prod_checks", kind="cylinder", function=fn, shift=_shift(rng, fn)))
    cover.append(dict(
        name="cli_measure", kind="cli_inprocess", argv=["measure", "unit-cell", "-f", PROBLEM_FILE]
    ))
    return [dict(s, probe="curve") for s in curve] + [dict(s, probe="cover") for s in cover]
