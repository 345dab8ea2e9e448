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


def test_measure_of_a_set_meeting_a_billion_cells(capsys, tmp_path):
    # x1 in [0, 10^9] meets 10^9 cells; the measure is read off the tail law
    problem = tmp_path / "long.json"
    explicit = {"0": [["0", "1/2"]], "1": [["0", "1000000000"]]}
    long_set = {"explicit": explicit, "tail": [["0", "1"]]}
    problem.write_text(json.dumps({"sets": {"long": long_set}}))
    assert run(capsys, "measure", "long", "-f", str(problem))[:2] == (0, "500000000\n")


def test_cover_past_the_cap_is_a_located_usage_error(capsys, tmp_path):
    # the support meets 10^9 cells, more than cells.MAX_COVER_CELLS: the cover
    # is refused from the endpoints before any cell is listed
    explicit = {"0": [["0", "1/2"]], "1": [["0", "1000000000"]]}
    problem = {
        "sets": {"long": [{"explicit": explicit}]},
        "functions": {"long-indicator": {"op": "indicator", "region": "long"}},
        "verify": [
            {"type": "expect-measure", "set": "long", "value": "500000000"},
            {"type": "invariance", "function": "long-indicator", "shift": {"0": "1/2"}},
        ],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(problem))
    code, _, err = run(capsys, "integrate", "long-indicator", "-f", str(path))
    assert code == 2
    assert err == (
        "error: functions.long-indicator: cover needs up to 1000000000 cells, "
        "more than the 10000 allowed\n"
    )
    code, _, err = run(capsys, "verify", "-f", str(path))
    assert code == 2
    assert err.startswith("error: verify[1]: cover needs up to 1000000000 cells")


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


@pytest.mark.parametrize("function", ["xy", "half-box-indicator", "spike"])
def test_no_trace_drops_only_the_trace(capsys, function):
    argv = ("integrate", function, "-f", BASICS, "--schedule", "n_max=12,M_max_power=4")
    code, out, _ = run(capsys, *argv)
    bare_code, bare_out, _ = run(capsys, *argv, "--no-trace")
    report, bare = json.loads(out), json.loads(bare_out)
    del report["result"]["trace"]
    assert (bare_code, bare) == (code, report)


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


def test_integrate_active_clamp_is_inconclusive(capsys, tmp_path):
    # clamping x0 * x1 at 1/2 leaves no exactly representable slice
    problem = json.loads(Path(BASICS).read_text())
    xy = problem["functions"]["xy"]
    problem["functions"]["cx"] = {"op": "clamp", "bound": "1/2", "arg": xy}
    path = tmp_path / "clamp.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "integrate", "cx", "-f", str(path), "--no-trace")
    assert code == 3
    result = json.loads(out)["result"]
    assert result["status"] == "inconclusive" and result["value"] is None


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
        ("splits", {"v0": {"indices": 5}}, ["verify"], "splits.v0.indices"),
        ("splits", {"v0": {"indices": ["a"]}}, ["verify"], "splits.v0.indices"),
        ("splits", {"v0": {"indices": [-1]}}, ["verify"], "splits.v0.indices"),
        ("splits", {"v0": {"indices": [True]}}, ["verify"], "splits.v0.indices"),
        ("splits", {"v0": {"indices": [1.5]}}, ["verify"], "splits.v0.indices"),
        ("schedules", {"quick": {"epsilon": "inf"}},
         ["integrate", "xy"], "schedules.quick: epsilon must be positive and finite"),
        ("schedules", {"quick": {"epsilon": "nan"}},
         ["integrate", "xy"], "schedules.quick: epsilon must be positive and finite"),
        ("schedules", {}, ["integrate", "xy", "--schedule", "epsilon=inf"],
         "--schedule: epsilon must be positive and finite"),
        ("schedules", {}, ["integrate", "one-on-cell", "--schedule", "epsilon=nan"],
         "--schedule: epsilon must be positive and finite"),
        ("schedules", {}, ["integrate", "xy", "--cells", "0:1;0:2"],
         "--cells: coordinate 0 is negative or repeated"),
        ("schedules", {}, ["integrate", "xy", "--cells=origin,-1:1"],
         "--cells: coordinate -1 is negative or repeated"),
        ("schedules", {"quick": {"n_max": 2.9}}, ["integrate", "xy"], "schedules.quick.n_max"),
        ("schedules", {"quick": {"n_max": True}}, ["integrate", "xy"], "schedules.quick.n_max"),
        ("schedules", {"quick": {"n_values": [0, 1.5, 3]}},
         ["integrate", "xy"], "schedules.quick.n_values[1]"),
        ("schedules", {"quick": {"M_max_power": 3.7}},
         ["integrate", "xy"], "schedules.quick.M_max_power"),
        ("schedules", {"quick": {"window": True}}, ["integrate", "xy"], "schedules.quick.window"),
        ("schedules", {"quick": {"window": 1.5}}, ["integrate", "xy"], "schedules.quick.window"),
        ("schedules", {"quick": {"epsilon": True}}, ["integrate", "xy"], "schedules.quick.epsilon"),
        ("functions", {"bad": {"op": "coord", "index": True}},
         ["measure", "unit-cell"], "functions.bad.index"),
        ("functions", {"bad": {"op": "piecewise", "index": False, "pieces": []}},
         ["measure", "unit-cell"], "functions.bad.index"),
        ("functions", {"bad": {"op": "translate", "arg": {"op": "const", "value": 1},
                               "shift": {"-1": "1/2"}}},
         ["measure", "unit-cell"], "functions.bad.shift: coordinate -1 is negative"),
        ("anchors", {"origin": {"entries": {"-2": "1"}}},
         ["slice-scan", "spike", "--n", "0..2", "--anchor", "origin"],
         "anchors.origin.entries: coordinate -2 is negative"),
        ("verify", [{"type": "invariance", "function": "one-on-cell", "shift": {"-1": "1/2"}}],
         ["verify"], "verify[0].shift: coordinate -1 is negative"),
        ("verify", [{"type": "compatibility", "first": {"-1": "1/2"}, "second": {},
                     "samples": ["quarter-sample"]}],
         ["verify"], "verify[0].first: coordinate -1 is negative"),
        ("verify", [{"type": "compatibility", "first": {}, "second": {"-1": "1/2"},
                     "samples": ["quarter-sample"]}],
         ["verify"], "verify[0].second: coordinate -1 is negative"),
        ("verify", [{"type": "expect-measure", "set": "unit-cell", "value": "1"},
                    {"type": "compatibility", "first": {"0": "1/2"}, "second": {},
                     "samples": ["quarter-sample", {"explicit": {"0": [["0", "1/4"]]}}]}],
         ["verify"], "verify[1].samples[1]: not inside the overlap"),
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
