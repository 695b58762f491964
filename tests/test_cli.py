"""CLI workflows: exit codes, artifacts, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridplan import cli
from gridplan.branch_bound import TIME_LIMIT, solve_milp
from gridplan.case import render_case
from gridplan.cli import run_cli
from gridplan.report import VARIANT_ORDER

from conftest import ALL_CASES


@pytest.fixture()
def case_file(tmp_path, bundled):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(render_case(bundled(name)))
        return str(path)

    return write


def test_validate_ok(case_file, capsys):
    assert run_cli(["validate", case_file("tri_switch")]) == 0
    assert "case is valid" in capsys.readouterr().out


def test_validate_broken_case_exits_2(tmp_path, capsys):
    doc = {
        "buses": [{"id": "a", "reference": True}, {"id": "b"}],
        "generators": [{"id": "g", "bus": "a", "p_max": 10, "cost": -3}],
        "branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 0}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "negative cost" in out and "nonpositive rate" in out


@pytest.mark.parametrize("argv", [["solve", "--variant", "static"], ["compare"],
                                  ["build", "--variant", "static"]])
def test_invalid_case_prints_each_finding_once(tmp_path, capsys, argv):
    doc = {
        "buses": [{"id": "a", "reference": True}, {"id": "b"}],
        "generators": [{"id": "g", "bus": "a", "p_min": 1, "p_max": 10, "cost": -3}],
        "branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 0}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run_cli([argv[0], str(path), *argv[1:], "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: generator 'g' has negative cost -3.0",
        "error: branch 'k' has nonpositive rate 0.0",
        "warning: generator 'g' has p_min 1.0 > 0; commitment decisions are "
        "not modeled, the unit is always on",
    ]
    assert not out_dir.exists()


def test_input_errors_exit_2(case_file, tmp_path, capsys):
    assert run_cli(["validate", str(tmp_path / "missing.json")]) == 2
    for command in ("build", "solve"):
        capsys.readouterr()
        assert run_cli([command, case_file("two_bus"), "--variant", "bogus",
                        "--out", str(tmp_path / "o")]) == 2
        # the usage and the error name every variant
        err = capsys.readouterr().err
        assert "--variant {static,switch-existing,switch-all}" in err
        error = err.splitlines()[-1]
        assert "invalid choice" in error and "bogus" in error
        assert all(v in error for v in ("static", "switch-existing", "switch-all"))
        assert not (tmp_path / "o").exists()
    assert run_cli(["solve", case_file("two_bus"), "--variant", "static",
                    "--frobnicate"]) == 2
    assert run_cli(["unknown-command"]) == 2
    assert run_cli(["solve", case_file("two_bus"), "--variant", "static",
                    "--gap", "-0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["solve", "--variant", "switch-all"], ["compare"]])
def test_nan_gap_exits_2_and_writes_nothing(case_file, tmp_path, capsys, command):
    # argparse reads "nan" as a float; SolveParams refuses it
    out_dir = tmp_path / "o"
    assert run_cli([command[0], case_file("eight_bus"), *command[1:], "--gap", "nan",
                    "--out", str(out_dir)]) == 2
    assert "mip_gap must be nonnegative, got nan" in capsys.readouterr().err
    assert not out_dir.exists()


_MINIMAL = {
    "buses": [{"id": "a", "reference": True}, {"id": "b"}],
    "generators": [{"id": "g", "bus": "a", "p_max": 10, "cost": 3}],
    "branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 5}],
    "horizon": {"seasons": 1, "hours": 1},
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"buses": 5}, "case 'buses' must be an array, got 5"),
        ({"buses": [5]}, "bus must be a JSON object, got 5"),
        ({"horizon": 5}, "horizon must be a JSON object, got 5"),
        ({"load": {"a": [5]}}, "load for bus 'a' must be a dense 1x1"),
        ({"load": {"a": [["5"]]}}, "load for bus 'a' must hold numbers, got '5'"),
        ({"load": {"a": [[True]]}}, "load for bus 'a' must hold numbers, got True"),
        ({"generators": [{"id": "g", "bus": "a", "p_max": "10", "cost": 3}]},
         "generator g 'p_max' must be a number, got '10'"),
        ({"branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 5,
                        "switchable": "false"}]},
         "branch k 'switchable' must be true or false, got 'false'"),
        ({"buses": [{"id": "a", "reference": True}, {"id": "b", "reference": "false"}]},
         "bus b 'reference' must be true or false, got 'false'"),
        ({"horizon": {"load_growth": True}}, "horizon 'load_growth' must be a number, got True"),
        ({"generators": [{"id": "g", "bus": "a", "p_max": 10**400, "cost": 3}]},
         "generator g 'p_max' is an integer too large for a float"),
        ({"load": {"a": [[10**400]]}}, "load for bus 'a' holds an integer too large for a float"),
        ({"horizon": {"seasons": 1, "hours": 1, "epochs": 10**400}},
         "horizon 'epochs' is an integer too large for a float"),
        ({"load": [[[5]]]}, "dense load array has 1 bus entries, case has 2 buses"),
        ({"load": [[[5]], 5]}, "load for bus 'b' must be a dense 1x1"),
        ({"load": 5}, "'load' must be an object keyed by bus id or a dense array"),
    ],
)
def test_malformed_case_documents_exit_2(tmp_path, capsys, change, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({**_MINIMAL, **change}))
    assert run_cli(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err + captured.out


def test_build_writes_mps(case_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli(["build", case_file("two_bus"), "--variant", "switch-all",
                    "--out", str(out_dir)]) == 0
    path = out_dir / "model_switch-all.mps"
    assert path.exists()
    assert path.read_text().startswith("NAME")
    explicit = tmp_path / "custom.mps"
    assert run_cli(["build", case_file("two_bus"), "--variant", "static",
                    "--mps", str(explicit)]) == 0
    assert explicit.exists()
    capsys.readouterr()


def test_solve_writes_plan_and_report(case_file, tmp_path, capsys):
    out_dir = tmp_path / "solve-out"
    code = run_cli(["solve", case_file("tri_switch"), "--variant",
                    "switch-existing", "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.txt").read_text()
    assert "gridplan solve" in report
    assert "gap target: 1e-05" in report
    assert "time limit: 3000.0 s" in report
    assert "switch-existing" in report
    assert (out_dir / "plan_switch-existing.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("name", ALL_CASES)
def test_solve_writes_what_compare_writes_for_its_variant(case_file, tmp_path, capsys, name):
    case = case_file(name)
    assert run_cli(["compare", case, "--out", str(tmp_path / "cmp")]) == 0
    for variant in VARIANT_ORDER:
        out_dir = tmp_path / variant.value
        assert run_cli(["solve", case, "--variant", variant.value,
                        "--out", str(out_dir)]) == 0
        plan = f"plan_{variant.value}.csv"
        assert {p.name for p in out_dir.iterdir()} == {
            "report.txt", "summary.csv", "investment.csv", "switching.csv", plan,
        }
        assert (out_dir / plan).read_text() == (tmp_path / "cmp" / plan).read_text()
    capsys.readouterr()


def test_solve_honors_flags_in_header(case_file, tmp_path, capsys):
    out_dir = tmp_path / "flagged"
    code = run_cli(["solve", case_file("two_bus"), "--variant", "static",
                    "--gap", "0.001", "--timelim", "120", "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.txt").read_text()
    assert "gap target: 0.001" in report
    assert "time limit: 120.0 s" in report
    capsys.readouterr()


def test_compare_writes_full_artifact_set(case_file, tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert run_cli(["compare", case_file("defer_build"),
                    "--out", str(out_dir)]) == 0
    produced = {p.name for p in out_dir.iterdir()}
    assert produced == {
        "report.txt", "summary.csv", "investment.csv", "switching.csv",
        "plan_static.csv", "plan_switch-existing.csv", "plan_switch-all.csv",
    }
    summary = (out_dir / "summary.csv").read_text().strip().splitlines()
    totals = {row.split(",")[0]: float(row.split(",")[1]) for row in summary[1:]}
    assert totals["switch-all"] <= totals["switch-existing"] <= totals["static"]
    capsys.readouterr()


def test_compare_against_a_zero_baseline_reads_na(tmp_path, bundled, capsys):
    # two_bus with no load is valid and costs nothing in every variant: no
    # saving is defined against it, and the run still writes its artifacts
    doc = json.loads(render_case(bundled("two_bus")))
    del doc["load"]
    path = tmp_path / "no_load.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]) == 0
    out_dir = tmp_path / "cmp"
    assert run_cli(["compare", str(path), "--out", str(out_dir)]) == 0
    report = (out_dir / "report.txt").read_text().splitlines()
    for label in ("saving vs baseline ($)", "saving vs baseline (%)"):
        row = next(line for line in report if line.startswith(label))
        assert row.split()[-3:] == ["N/A", "N/A", "N/A"], row
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[1] == "static,0.0,0.0,0.0,,"
    assert summary[2:] == [f"{v},0.0,0.0,0.0,N/A,N/A"
                           for v in ("switch-existing", "switch-all")]
    assert (out_dir / "plan_switch-all.csv").exists()
    capsys.readouterr()


def test_compare_prints_a_saving_that_rounds_to_zero_unsigned(case_file, tmp_path, capsys):
    # diamond's three totals agree within rounding, so both savings are
    # zero or nearly so: the CSV keeps them as computed, and the text cells
    # read 0 and 0.00, never -0 or -0.00 (test_report covers a saving a few
    # ulp below zero)
    out_dir = tmp_path / "cmp"
    assert run_cli(["compare", case_file("diamond"), "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    savings = [float(row.split(",")[4]) for row in summary[2:]]
    assert all(abs(s) < 1e-6 for s in savings), savings
    report = (out_dir / "report.txt").read_text().splitlines()
    for label, zero in (("saving vs baseline ($)", "0"), ("saving vs baseline (%)", "0.00")):
        row = next(line for line in report if line.startswith(label))
        assert row.split()[-3:] == ["N/A", zero, zero], row
    capsys.readouterr()


def test_compare_is_deterministic(case_file, tmp_path, capsys):
    case = case_file("season_flip")
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(["compare", case, "--out", str(first)]) == 0
    assert run_cli(["compare", case, "--out", str(second)]) == 0
    for artifact in first.iterdir():
        assert artifact.read_text() == (second / artifact.name).read_text()
    capsys.readouterr()


def test_infeasible_case_exits_1(tmp_path, capsys):
    doc = {
        "buses": [{"id": "a", "reference": True}],
        "generators": [{"id": "g", "bus": "a", "p_max": 50, "cost": 5}],
        "branches": [],
        "horizon": {"epochs": 1, "years_per_epoch": 1, "seasons": 1, "hours": 1},
        "load": {"a": [[100.0]]},
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", str(path), "--variant", "static",
                    "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "no plan for static (static: infeasible)" in err
    assert not (tmp_path / "o").exists()


def test_time_limit_exits_1(case_file, tmp_path, capsys):
    code = run_cli(["solve", case_file("eight_bus"), "--variant", "switch-all",
                    "--timelim", "1e-9", "--out", str(tmp_path / "t")])
    assert code == 1
    err = capsys.readouterr().err
    assert "no plan for switch-all (switch-all: time_limit)" in err
    assert not (tmp_path / "t").exists()


def test_compare_time_limit_exits_1(case_file, tmp_path, capsys):
    # the limit expires before any root LP, so no variant has a plan
    code = run_cli(["compare", case_file("eight_bus"), "--timelim", "1e-9",
                    "--out", str(tmp_path / "t")])
    assert code == 1
    err = capsys.readouterr().err
    assert ("no plan for static, switch-existing, switch-all (static: time_limit, "
            "switch-existing: time_limit, switch-all: time_limit)") in err
    assert not (tmp_path / "t").exists()


def test_compare_warns_when_a_solve_stops_at_a_limit(case_file, tmp_path, capsys, monkeypatch):
    # the second solve, switch-existing, stops at its time limit with a plan
    calls = []

    def second_stops(model, params):
        calls.append(model)
        outcome = solve_milp(model, params)
        return dataclasses.replace(outcome, status=TIME_LIMIT) if len(calls) == 2 else outcome

    monkeypatch.setattr(cli, "solve_milp", second_stops)
    out_dir = tmp_path / "cmp"
    assert run_cli(["compare", case_file("tri_switch"), "--out", str(out_dir)]) == 1
    header = (out_dir / "report.txt").read_text().split("\n\n")[0].splitlines()
    assert [line.split(",")[0] for line in header[4:]] == [
        "static: optimal", "switch-existing: time_limit", "switch-all: optimal",
        "warning: a solve stopped at a limit; the incumbent may differ between runs",
    ]
    assert (out_dir / "plan_switch-existing.csv").exists()
    capsys.readouterr()


def test_validate_overflowing_load_growth_exits_2(tmp_path, capsys):
    doc = dict(_MINIMAL, horizon={"epochs": 10000, "load_growth": 0.02})
    path = tmp_path / "growth.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]) == 2
    assert "error: load growth 0.02 over 10000 epochs of 5 years overflows a float" \
        in capsys.readouterr().out


def test_runtime_imports_need_only_numpy():
    # the package and its CLI run with numpy alone; scipy, hypothesis and
    # pytest are test dependencies
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, gridplan, gridplan.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'hypothesis', 'pytest'}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
