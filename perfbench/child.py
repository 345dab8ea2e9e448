"""Fresh-interpreter helpers that run.py starts as separate processes.

    python3 perfbench/child.py setup WORKLOAD SEED
        Imports the library and builds the workload's inputs (for cli-basics,
        loads the problem file), then prints the monotonic clock reading at
        which the first task is ready and the time ``import linfmeasure``
        took.
    python3 perfbench/child.py reference WORKLOAD SEED PROBES
        Prints the expected summaries of the workload's tasks, followed by
        those of the probes when PROBES is 1.  Runs apart from the timed
        process so that the oracles' imports never count in its memory.
    python3 perfbench/child.py cli-trace SPANS ARGS...
        Runs the command line on ARGS with tracing on and writes the spans
        to SPANS.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import linfmeasure  # noqa: F401

    import_s = time.perf_counter() - start
    from specs import PROBLEM_FILE, workload_specs

    specs = workload_specs(workload, seed, ROOT)
    if workload == "cli-basics":
        from linfmeasure import cli

        cli._load_problem(str(ROOT / PROBLEM_FILE))
    else:
        from tasks import make_task

        for spec in specs:
            make_task(spec, ROOT)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))


def reference(workload: str, seed: int, probes: bool) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from reference import expected
    from specs import probe_specs, workload_specs

    specs = workload_specs(workload, seed, ROOT) + (probe_specs() if probes else [])
    print(json.dumps([expected(spec, ROOT) for spec in specs]))


def cli_trace(spans: str, argv: list) -> int:
    from linfmeasure import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans).write_text(json.dumps(tracer.export()))
    return code


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
        return 0
    if mode == "reference":
        reference(rest[0], int(rest[1]), rest[2] == "1")
        return 0
    if mode == "cli-trace":
        return cli_trace(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
