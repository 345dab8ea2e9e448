"""CLI reports on problems/basics.json, checked byte for byte (stdout and
exit code) against a fixture recorded before the two separable normal forms
were merged into one.

Each command runs in-process through ``cli.main``.  The fixture was written
by running this file as a script against that earlier version of the
library:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from linfmeasure.cli import main

ROOT = Path(__file__).resolve().parent.parent
BASICS = ROOT / "problems" / "basics.json"
FIXTURE = Path(__file__).parent / "data" / "golden_cli.json"


def _commands() -> list:
    problem = json.loads(BASICS.read_text())
    commands = [["measure", name] for name in sorted(problem["sets"])]
    commands.append(["verify"])
    for name in sorted(problem["functions"]):
        commands.append(["integrate", name])
        commands.append(["integrate", name, "--use-schedule", "quick"])
    commands.append(["slice-scan", "spike", "--n", "0..20", "--M", "2,100,inf"])
    return commands


COMMANDS = _commands()


def run(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["-f", str(BASICS)])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
def test_report_matches_golden_report(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(' '.join(c))}: {json.dumps(run(c))}" for c in COMMANDS]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    sys.exit(0)
