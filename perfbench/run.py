"""The linfmeasure benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it puts ``src`` on the path
itself and needs no install.  Each workload is a closed loop with one
client: one process, one thread, each task started when the previous one
has finished.  The seed makes the inputs (``specs.py``); the expected
results come from closed forms and ``tests/oracles.py`` in a separate
process (``reference.py``), and every task's output is compared with them.

With ``--trace 0`` the fixed task list runs a fixed number of times, set
from S and the list's nominal length, and the end-to-end metrics are
printed.  With ``--trace 1`` each task runs untraced and traced back to
back, fixed-size probes follow, and the per-layer metrics are printed.  Lines
before the last describe the run; the last line is the JSON result.  The
full report, with every task time, goes to
``.perfbench-out/result-WORKLOAD-traceT.json``, and the spans of a traced
run to ``.perfbench-out/spans-WORKLOAD.jsonl``.  The exit code is 1 when any
task fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from specs import WORKLOADS, probe_specs, workload_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
REQUIRED = ("src/linfmeasure/__init__.py", "tests/oracles.py", "problems/basics.json")

# Seconds one pass of each task list took at the commit that defined the
# benchmark (CPython 3.11, 2 shared cores).  They only set how many passes
# fit in --seconds; the count never depends on the code under test, so the
# same work is compared across commits.
NOMINAL_PASS_S = {
    "spike-limit": 7.0,
    "box-union": 5.2,
    "cylinder-verify": 16.4,
    "cli-basics": 4.1,
}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
PROBE_REPEATS = 3
PROBE_BUDGET_S = 1.0


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failing task)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """The environment of child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed:\n{proc.stderr[-3000:]}")
    return proc.stdout.splitlines()[-1]


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up seconds and import seconds of fresh interpreters; the first
    child warms the file and bytecode caches and is not counted."""
    setups, imports = [], []
    for k in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        ready = json.loads(_child("setup", workload, str(seed)))
        if k:
            setups.append(ready["ready"] - start)
            imports.append(ready["import_s"])
    return setups, imports


# ---------------------------------------------------------------------------
# running tasks


def cpu_clock(workload: str):
    if workload == "cli-basics":
        return lambda: sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])
    return time.process_time


def run_task(task, cpu) -> tuple:
    """(wall seconds, cpu seconds, JSON-ready summary or None, error or None)."""
    c0, t0 = cpu(), time.perf_counter()
    try:
        result = task.call()
    except Exception as exc:  # a raising task is a failed task, not a crash
        return time.perf_counter() - t0, cpu() - c0, None, f"{type(exc).__name__}: {exc}"
    wall, used = time.perf_counter() - t0, cpu() - c0
    try:
        summary = json.loads(json.dumps(task.summarize(result)))
    except Exception as exc:
        return wall, used, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return wall, used, summary, None


class Ledger:
    """Attempted and failed tasks, with the first few failures spelled out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, name: str, summary, error, expected) -> None:
        self.attempted += 1
        if error is None and summary == expected:
            return
        self.failed += 1
        if len(self.notes) < 5:
            detail = error or f"got {json.dumps(summary)[:300]} expected {json.dumps(expected)[:300]}"
            self.notes.append(f"{name}: {detail}")

    def mismatch(self, name: str, detail: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"{name}: {detail}")


def run_pass(tasks, expected, ledger, cpu) -> dict:
    walls, cpus = [], []
    for task, exp in zip(tasks, expected):
        wall, used, summary, error = run_task(task, cpu)
        ledger.record(task.name, summary, error, exp)
        walls.append(wall)
        cpus.append(used)
    return {"walls": walls, "wall": sum(walls), "cpu": sum(cpus)}


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    above it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise BenchError(f"{len(ordered)} tasks are too few for a tail percentile")
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds, tasks, expected, ledger, setups, runner) -> tuple:
    # enough passes that the tail percentile, with TAIL_BEYOND tasks above
    # it, lies above the median
    min_passes = math.ceil((2 * TAIL_BEYOND + 1) / len(tasks))
    passes = max(round(seconds / NOMINAL_PASS_S[workload]), min_passes)
    cpu = cpu_clock(workload)
    runs = [run_pass(tasks, expected, ledger, cpu) for _ in range(passes)]
    walls = [w for r in runs for w in r["walls"]]
    tail_value, tail_pct = tail(walls)
    if workload == "cli-basics":
        peak_kb = runner.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": metric(statistics.median(r["wall"] for r in runs), "s"),
        "cpu_s": metric(statistics.median(r["cpu"] for r in runs), "s"),
        "task_p50_s": metric(statistics.median(walls), "s"),
        "task_tail_s": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MiB"),
    }
    notes = {
        "passes": passes,
        "tasks_per_pass": len(tasks),
        "task_tail_s": f"p{tail_pct:.1f} of {len(walls)} tasks, {TAIL_BEYOND} beyond",
        "setup_s": f"median of {len(setups)} fresh interpreters",
    }
    samples = {
        "tasks": [t.name for t in tasks],
        "task_wall_s": [r["walls"] for r in runs],
        "pass_cpu_s": [r["cpu"] for r in runs],
        "setup_s": setups,
    }
    return metrics, notes, samples


def traced_pair(task, cpu, tracer, runner, traced_first: bool) -> tuple:
    """Runs a task once untraced and once traced, back to back, so that
    both runs see the same machine; returns the two run_task results."""

    def with_tracer():
        tracer.task = task.name
        tracer.install()
        runner.tracer = tracer
        try:
            return run_task(task, cpu)
        finally:
            runner.tracer = None
            tracer.uninstall()

    if traced_first:
        seen = with_tracer()
        return run_task(task, cpu), seen
    plain = run_task(task, cpu)
    return plain, with_tracer()


def traced(workload, tasks, expected, probes, probe_expected, ledger, imports, runner) -> tuple:
    from tasks import make_task
    from tracing import COUNTER_NAMES, SPAN_NAMES, Tracer

    cpu = cpu_clock(workload)
    tracer = Tracer()
    plain_wall = seen_wall = 0.0
    # untraced and traced runs alternate which goes first, so neither side
    # gains from warm caches
    for k, (task, exp) in enumerate(zip(tasks, expected)):
        plain, seen = traced_pair(task, cpu, tracer, runner, traced_first=k % 2 == 1)
        ledger.record(task.name, plain[2], plain[3], exp)
        ledger.record(task.name, seen[2], seen[3], exp)
        if plain[2] != seen[2]:
            ledger.mismatch(task.name, "traced and untraced results differ")
        plain_wall += plain[0]
        seen_wall += seen[0]
    cover = [(p, e) for p, e in zip(probes, probe_expected) if p["probe"] == "cover"]
    curve = [(p, e) for p, e in zip(probes, probe_expected) if p["probe"] == "curve"]
    tracer.install()
    try:
        run_probes(cover, ledger, tracer, make_task)
        counters = dict(tracer.counters)  # the curve probes stay out of the totals
        probe_times = run_probes(curve, ledger, tracer, make_task)
    finally:
        tracer.uninstall()

    calls, self_s = tracer.totals(exclude="curve:")
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        metrics[f"{name}.self_s"] = metric(self_s[name], "s")
    for name in COUNTER_NAMES:
        metrics[name] = metric(counters.get(name, 0), "count")
    boxes_in = counters.get("boxes.union_disjointify.boxes_in", 0)
    metrics["boxes.union_disjointify.fanout"] = metric(
        counters.get("boxes.union_disjointify.boxes_out", 0) / boxes_in if boxes_in else 0.0,
        "ratio",
    )
    metrics.update(probe_times)
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    metrics["trace.overhead_s"] = metric(seen_wall - plain_wall, "s")
    spans_file = OUT_DIR / f"spans-{workload}.jsonl"
    tracer.write(spans_file)
    notes = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": seen_wall,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "totals": "traced task runs plus the cover probes; curve probes excluded",
    }
    return metrics, notes, {}


PROBE_STAGES = (
    "exprs.slice_function",
    "quadrature.evaluator_build",
    "quadrature.to_constant_pieces",
    "quadrature.pieces_disjoint",
)


def run_probes(probes, ledger, tracer, make_task) -> dict:
    """Runs the probes and returns the curve metrics: the spike slice
    stages at n = 20, 40, 60 and the union-measure ladder, each the median
    of up to PROBE_REPEATS runs within PROBE_BUDGET_S."""
    times: dict = {}
    for spec, exp in probes:
        task = make_task(spec, ROOT)
        repeats = PROBE_REPEATS if spec["probe"] == "curve" else 1
        durations: dict = {}
        spent = 0.0
        for rep in range(repeats):
            if rep and spent >= PROBE_BUDGET_S:
                break
            first = len(tracer.spans)
            tracer.task = f"{spec['probe']}:{spec['name']}#{rep}"
            wall, _, summary, error = run_task(task, time.process_time)
            ledger.record(tracer.task, summary, error, exp)
            spent += wall
            for name, seconds in tracer.top_level(first).items():
                durations.setdefault(name, []).append(seconds)
        # a stage that a failing probe never reached reads 0; the failure
        # itself is in the ledger
        if spec["kind"] == "slice_stages":
            for name in PROBE_STAGES:
                times[f"{name}.n{spec['n']}_s"] = metric(
                    statistics.median(durations.get(name, [0.0])), "s"
                )
        elif spec["probe"] == "curve":
            times[f"boxes.union_measure.{spec['name']}_s"] = metric(
                statistics.median(durations.get("boxes.union_measure", [0.0])), "s"
            )
    return times


# ---------------------------------------------------------------------------
# environment record


def _commit():
    """HEAD of the checkout when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "load1_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a linfmeasure checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups, imports = measure_setup(args.workload, args.seed)
        all_expected = json.loads(_child("reference", args.workload, str(args.seed), str(args.trace)))
        sys.path.insert(0, str(ROOT / "src"))
        from tasks import CliRunner, make_task

        specs = workload_specs(args.workload, args.seed, ROOT)
        expected, probe_expected = all_expected[:len(specs)], all_expected[len(specs):]
        runner = CliRunner(ROOT, OUT_DIR, child_env())
        tasks = [make_task(spec, ROOT, runner) for spec in specs]
        ledger = Ledger()
        if args.trace:
            metrics, notes, samples = traced(
                args.workload, tasks, expected, probe_specs(), probe_expected,
                ledger, imports, runner,
            )
        else:
            metrics, notes, samples = end_to_end(
                args.workload, args.seconds, tasks, expected, ledger, setups, runner
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["load1_end"] = os.getloadavg()[0]

    ratio = ledger.failed / ledger.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_ratio {ratio} ({ledger.failed} of {ledger.attempted} tasks)")
    for note in ledger.notes:
        print(f"FAILED {note}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    report = {"env": env, "notes": notes, "fail_ratio": ratio, "samples": samples, **result}
    name = f"result-{args.workload}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
