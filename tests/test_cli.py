import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linfmeasure.cli import main
from linfmeasure.limits import MAX_SCHEDULE_VALUES

ROOT = Path(__file__).resolve().parent.parent
BASICS = str(ROOT / "problems" / "basics.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_prints_exact_value(capsys):
    code, out, _ = run(capsys, "measure", "unit-cell", "-f", BASICS)
    assert code == 0
    assert out.strip() == "1"


def test_measure_null_and_wide_sets(capsys):
    assert run(capsys, "measure", "half-tail", "-f", BASICS)[:2] == (0, "0\n")
    assert run(capsys, "measure", "wide-coord0", "-f", BASICS)[:2] == (0, "3\n")


def test_measure_unknown_set_is_usage_error(capsys):
    code, _, err = run(capsys, "measure", "no-such-set", "-f", BASICS)
    assert code == 2
    assert "unknown set" in err


def test_measure_writes_json_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "measure", "half-box", "-f", BASICS, "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["measure"] == "1/4"
    assert report["command"] == "measure"


def test_integrate_cylinder_exact_quarter(capsys):
    code, out, _ = run(
        capsys,
        "integrate", "xy", "-f", BASICS,
        "--schedule", "n_max=12,M_max_power=4", "--no-trace",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == "1/4"
    assert report["result"]["status"] == "converged"
    assert "trace" not in report["result"]


def test_integrate_spike_short_schedule_inconclusive(capsys):
    # n up to 12 cannot outrun the truncation threshold at M = 2^6
    code, out, _ = run(
        capsys, "integrate", "spike", "-f", BASICS, "--use-schedule", "quick",
        "--no-trace",
    )
    assert code == 3
    assert json.loads(out)["result"]["status"] == "inconclusive"


def test_integrate_spike_deep_schedule_converges_to_zero(capsys):
    code, out, _ = run(
        capsys,
        "integrate", "spike", "-f", BASICS,
        "--use-schedule", "quick", "--schedule", "n_max=30", "--no-trace",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "converged"
    # 3^9 / 3^31 survives the deepest bound: an exact, tiny rational
    assert report["result"]["value"] == f"1/{3 ** 22}"


def test_integrate_no_truncation_reports_misleading_one(capsys):
    code, out, _ = run(
        capsys,
        "integrate", "spike", "-f", BASICS,
        "--no-truncation", "--schedule", "n_max=30", "--no-trace",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == "1"
    assert any("untruncated" in w for w in report["result"]["warnings"])


def test_integrate_multiple_cells(capsys):
    code, out, _ = run(
        capsys,
        "integrate", "one-on-cell", "-f", BASICS,
        "--cells", "origin,0:1", "--schedule", "n_max=10,M_max_power=3",
        "--no-trace",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == "1"
    assert len(report["result"]["cells"]) == 2


def test_integrate_malformed_cells_usage_error(capsys):
    code, _, err = run(
        capsys, "integrate", "xy", "-f", BASICS, "--cells", "0:potato"
    )
    assert code == 2
    assert "--cells" in err


def test_integrate_bad_schedule_flag(capsys):
    code, _, err = run(
        capsys, "integrate", "xy", "-f", BASICS, "--schedule", "n_max"
    )
    assert code == 2
    assert "--schedule" in err


def test_slice_scan_csv(capsys, tmp_path):
    csv_file = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys,
        "slice-scan", "spike", "-f", BASICS,
        "--n", "0..6", "--M", "2,100,inf", "--csv", str(csv_file),
    )
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "n,M,value"
    assert len(lines) == 1 + 7 * 3
    report = json.loads(out)
    # untruncated rows all read exactly 1
    ones = [r for r in report["table"] if r["M"] == "inf"]
    assert len(ones) == 7 and all(r["value"] == "1" for r in ones)


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "-f", BASICS)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(check["passed"] for check in report["checks"])


def test_verify_tampered_expectation_fails(capsys, tmp_path):
    raw = json.loads(Path(BASICS).read_text())
    raw["verify"] = [
        {"type": "expect-measure", "set": "unit-cell", "value": "2"}
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "verify", "-f", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][0]["actual"] == "1"


def test_malformed_rational_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sets": {"s": {"explicit": {"0": [["0", "one"]]}}}}))
    code, _, err = run(capsys, "measure", "s", "-f", str(bad))
    assert code == 2
    assert "malformed rational" in err


def test_unknown_builtin_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"functions": {"f": {"op": "builtin", "name": "mystery"}}})
    )
    code, _, err = run(capsys, "integrate", "f", "-f", str(bad))
    assert code == 2
    assert "unknown builtin" in err


def test_invalid_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "measure", "x", "-f", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_reports_are_deterministic(capsys):
    argv = (
        "integrate", "xy", "-f", BASICS,
        "--schedule", "n_max=8,M_max_power=3",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "section, value, argv, location",
    [
        ("verify", [{"type": "expect-measure", "value": "1"}],
         ["verify"], "verify[0].set"),
        ("verify", [{"type": "invariance", "shift": {}}],
         ["verify"], "verify[0].function"),
        ("schedules", {"quick": {"n_max": "abc"}},
         ["integrate", "xy"], "schedules.quick.n_max"),
        ("schedules", {"quick": {"epsilon": [1]}},
         ["integrate", "xy"], "schedules.quick.epsilon"),
        ("schedules", {"quick": {"n_values": 5}},
         ["integrate", "xy"], "schedules.quick.n_values"),
        ("schedules", {},
         ["integrate", "xy", "--schedule", "n_max=abc"], "--schedule n_max"),
        ("anchors", {"origin": 5}, ["measure", "unit-cell"], "anchors.origin"),
        ("functions", {"bad": {"op": "piecewise", "index": 0, "pieces": [5]}},
         ["measure", "unit-cell"], "functions.bad.pieces[0]"),
        ("sets", {"bad": {"explicit": [1]}},
         ["measure", "unit-cell"], "sets.bad[0].explicit"),
        ("verify", [{"type": "compatibility", "samples": 5}],
         ["verify"], "verify[0].samples"),
        ("functions", [1], ["measure", "unit-cell"], "functions"),
        ("verify", [{"type": "fubini", "function": "half-box-indicator", "splits": "v0"}],
         ["verify"], "verify[0].splits: expected a list"),
        ("schedules", {"quick": {"n_values": [-1, 0, 1]}},
         ["integrate", "xy"], "schedules.quick: n_values must be nonnegative"),
        ("schedules", {"quick": {"n_max": MAX_SCHEDULE_VALUES}},
         ["integrate", "xy"], "schedules.quick.n_max: 10001 values"),
        ("schedules", {"quick": {"M_max_power": MAX_SCHEDULE_VALUES}},
         ["integrate", "xy"], "schedules.quick.M_max_power: 10001 values"),
        ("schedules", {},
         ["integrate", "xy", "--schedule", f"M_max_power={MAX_SCHEDULE_VALUES}"],
         "--schedule M_max_power: 10001 values"),
        ("schedules", {}, ["slice-scan", "xy", "--n=-2..1"], "--n: expected 0 <= LO <= HI"),
        ("schedules", {}, ["slice-scan", "xy", "--n", "5..2"], "--n: expected 0 <= LO <= HI"),
        ("schedules", {}, ["slice-scan", "xy", "--n", f"0..{MAX_SCHEDULE_VALUES}"],
         "--n: 10001 values"),
    ],
)
def test_problem_errors_name_their_location(capsys, tmp_path, section, value, argv, location):
    raw = json.loads(Path(BASICS).read_text())
    raw[section] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run(capsys, *argv, "-f", str(bad))
    assert code == 2
    assert err.startswith(f"error: {location}")


@pytest.mark.parametrize(
    "argv, available",
    [
        (["integrate", "xy", "--use-schedule", "nosuch"], "available: quick"),
        (["slice-scan", "spike", "--n", "0..2", "--anchor", "nosuch"], "available: origin"),
    ],
)
def test_unknown_named_option_is_usage_error(capsys, argv, available):
    code, out, err = run(capsys, *argv, "-f", BASICS)
    assert code == 2
    assert out == ""
    assert "'nosuch'" in err and available in err


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        raise BrokenPipeError


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["slice-scan", "spike", "-f", BASICS, "--n", "0..4"])
    monkeypatch.undo()
    assert code == 0
    assert capsys.readouterr().err == ""


def test_import_pulls_in_neither_numpy_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    probe = (
        "import sys, linfmeasure, linfmeasure.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "section, name, value, argv, location",
    [
        ("sets", "clash", {"explicit": {"0": [["0", "1/2"]], "00": [["0", "1/4"]]}},
         ["measure", "clash"], "sets.clash[0].explicit"),
        ("verify", None, [{"type": "invariance", "function": "one-on-cell",
                           "shift": {"0": "1/2", "+0": "1/4"}}],
         ["verify"], "verify[0].shift"),
    ],
)
def test_keys_naming_one_coordinate_are_rejected(
    capsys, tmp_path, section, name, value, argv, location
):
    raw = json.loads(Path(BASICS).read_text())
    if name is None:
        raw[section] = value
    else:
        raw[section][name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, *argv, "-f", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {location}")
    assert "names coordinate 0 again" in err
