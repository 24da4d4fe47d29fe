"""Command-line harness, exercised in process via main(argv)."""

import argparse
import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ddrollout
from ddrollout import cli, make_instance
from ddrollout.cli import _merge_config, _report_chain, build_parser, main
from ddrollout.serialization import (
    dumps_json,
    read_json,
    run_from_doc,
    sample_set_to_doc,
    write_text,
)

from conftest import widened_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_basic_run_reports_a_passing_chain(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--instance", "grid",
                           "--ell", "2", "--horizon", "30",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert "status=stopped" in out
    assert "improvement chain:" in out and ": PASS" in out
    # artifacts land where asked and round-trip as a run document
    doc = read_json(tmp_path / "basic-0.json")
    assert doc["format"] == "rollout-run"
    assert (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("sets,tour", [
    ("cdb", "ACDBA"),
    ("cdb,bcd", "ABCDA"),
    ("cdb,bcd,abd", "ABDCA"),
])
def test_tour_runs_recover_the_expected_tours(capsys, tmp_path, sets, tour):
    code, out, _ = run_cli(capsys, "run", "--instance", "tsp",
                           "--variant", "multi-policy", "--set", sets,
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert f"tour: {tour}" in out


def test_multiagent_run_beats_the_base_cost(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--instance", "grid",
                           "--variant", "multiagent", "--ell", "2",
                           "--horizon", "30", "--out-dir", str(tmp_path))
    assert code == 0
    cost = float(out.split("total_cost=")[1].split()[0])
    assert cost <= 10.0


def test_disturbance_recoverable_is_not_gated(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--instance", "spiral",
                           "--variant", "disturbance", "--ell", "3",
                           "--horizon", "120",
                           "--disturb-step", "3", "--disturb", "0.5,-0.5",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert "not gated after disturbance" in out


def test_disturbance_unreachable_is_flagged_not_crashed(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--instance", "spiral",
                             "--variant", "disturbance", "--ell", "3",
                             "--horizon", "40",
                             "--disturb-step", "2", "--disturb", "60,60",
                             "--out-dir", str(tmp_path))
    assert code == 2
    assert "status=infeasible_after_disturbance" in out
    assert "flagged" in err


def test_verify_passes_on_every_named_set(capsys):
    for instance in ("spiral", "integrator", "grid", "tsp"):
        bundle = make_instance(instance)
        pool = dict(bundle.sample_sets)
        if bundle.augmented_sets:
            pool.update(bundle.augmented_sets)
        for name in pool:
            code, out, err = run_cli(capsys, "verify", "--instance", instance,
                                     "--set", name)
            assert code == 0, (instance, name, err)


def test_verify_rejects_a_tampered_set_file(capsys, tmp_path):
    bundle = make_instance("spiral")
    doc = copy.deepcopy(sample_set_to_doc(bundle.sample_sets["trajectory-0"]))
    doc["entries"][2]["successor"] = {"__vector__": [50.0, 50.0]}
    path = tmp_path / "bad-set.json"
    write_text(dumps_json(doc), str(path))
    code, _, err = run_cli(capsys, "verify", "--instance", "spiral",
                           "--set-file", str(path))
    assert code == 1
    assert "rejected" in err


def test_verify_rejects_a_set_file_that_widens_the_state_tolerance(capsys, tmp_path):
    doc = widened_doc(make_instance("spiral").sample_sets["trajectory-0"])
    path = tmp_path / "wide-set.json"
    write_text(dumps_json(doc), str(path))
    code, out, err = run_cli(capsys, "verify", "--instance", "spiral",
                             "--set-file", str(path))
    assert code == 1
    assert "rejected" in err and "eps_state" in err and "PASS" not in out


def test_verify_accepts_the_same_file_untampered(capsys, tmp_path):
    bundle = make_instance("spiral")
    doc = sample_set_to_doc(bundle.sample_sets["trajectory-0"])
    path = tmp_path / "good-set.json"
    write_text(dumps_json(doc), str(path))
    code, _, err = run_cli(capsys, "verify", "--instance", "spiral",
                           "--set-file", str(path))
    assert code == 0, err


@pytest.mark.parametrize("tamper,message", [
    ("cost", "fixed-point violation at state array([-3.11225  ,  0.4642375]): "
             "residual 3.313e-01"),
    ("state", "invariance violation at array([-2.16743375,  0.46880575]): "
              "recorded successor mismatch"),
], ids=("cost", "state"))
def test_verify_rejects_a_budget_set_file_whose_seed_is_tampered(capsys, tmp_path, tamper,
                                                                 message):
    """A budget set's members are valued at its seed's recorded tail costs:
    a stored seed with one tail cost halved, or one state moved, keeps its
    usage ledger but fails the seed's own certificate, naming the state."""
    doc = copy.deepcopy(sample_set_to_doc(make_instance("integrator").augmented_sets["budget"]))
    seed = doc["seed"]
    if tamper == "cost":
        seed["tail_costs"][5] *= 0.5
    else:
        seed["states"][7]["__vector__"][0] += 0.25
    path = tmp_path / "bad-budget-set.json"
    write_text(dumps_json(doc), str(path))
    code, out, err = run_cli(capsys, "verify", "--instance", "integrator",
                             "--set-file", str(path), "--samples", "5")
    assert code == 1
    assert "usage accounting: PASS (81 members)" in out
    assert message in err


def test_table_runs_for_the_tour_instance(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "table", "--instance", "tsp",
                           "--out-dir", str(tmp_path))
    assert code == 0
    rows = {line.split()[2]: line.split()[4] for line in out.splitlines()
            if line.startswith("four-city-tour")}
    assert rows == {"[cdb]": "11.0000", "[merged]": "7.0000",
                    "[merged+abd]": "4.0000"}
    assert (tmp_path / "table.csv").exists()


def test_table_marks_the_cost_of_a_run_that_ended_at_the_horizon(capsys, tmp_path):
    # the free-terminal baseline stops at the horizon; the rollout closes
    code, out, _ = run_cli(capsys, "table", "--instance", "integrator", "--horizon", "40",
                           "--out-dir", str(tmp_path))
    assert code == 0
    note = "* the run ended at the horizon: its cost is truncated"
    lines = out.splitlines()
    assert lines[1].split()[3:] == ["49.9311", "49.9186*"]
    assert lines[2] == note and len(lines) == 4
    assert (tmp_path / "table.txt").read_text() == "\n".join(lines[:3]) + "\n"
    csv = (tmp_path / "table.csv").read_text().splitlines()
    assert csv[1].endswith(",49.9311,49.9186*") and csv[2] == note and len(csv) == 3
    # nothing is marked once every run closed or stopped
    code, out, _ = run_cli(capsys, "table", "--instance", "grid", "--horizon", "40",
                           "--out-dir", str(tmp_path))
    assert code == 0 and "*" not in out and "*" not in (tmp_path / "table.csv").read_text()


def test_table_csv_quotes_a_start_label_that_holds_a_comma(capsys, tmp_path):
    note = "* the run ended at the horizon: its cost is truncated"
    for instance, want_note in (("integrator", True), ("spiral", False)):
        out_dir = tmp_path / instance
        code, _, _ = run_cli(capsys, "table", "--instance", instance, "--horizon", "40",
                             "--out-dir", str(out_dir))
        assert code == 0
        text = (out_dir / "table.csv").read_text()
        lines = text.splitlines()
        assert (lines[-1] == note) == want_note
        rows = list(csv.reader(lines[:-1] if want_note else lines))
        assert rows[0] == ["instance", "x0", "base_cost", "rollout_cost",
                           "baseline_mpc_cost"]
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows[1:])
        assert all("," in r[1] for r in rows[1:])  # the vector start survives whole


def test_the_package_runs_as_a_module(tmp_path):
    pkg_root = str(Path(ddrollout.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=pkg_root)
    proc = subprocess.run([sys.executable, "-m", "ddrollout", "list-instances"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "two-vehicle-grid" in proc.stdout


_IMPORT_PROBE = """
import json, sys
import ddrollout
from ddrollout import catalog, cli
for name in catalog.INSTANCES:
    catalog.make_instance(name)
code = cli.main(["run", "--instance", "double-integrator", "--variant", "augmented",
                 "--horizon", "3", "--out-dir", sys.argv[1]])
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_a_run_imports_no_scipy(tmp_path):
    # scipy is a test dependency only; this process already holds it through
    # test_shooting.py, so the import graph is read in a fresh interpreter
    pkg_root = str(Path(ddrollout.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=pkg_root)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "scipy": []}
    assert (tmp_path / "summary.csv").exists()


def test_list_instances_names_all_four(capsys):
    code, out, _ = run_cli(capsys, "list-instances")
    assert code == 0
    for name in ("hybrid-spiral", "double-integrator", "two-vehicle-grid",
                 "four-city-tour"):
        assert name in out


def test_unknown_instance_is_a_clean_error(capsys):
    code, _, err = run_cli(capsys, "run", "--instance", "nope")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["run", "verify", "table"])
def test_a_missing_instance_is_a_clean_error(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command)
    assert (code, out, err) == (1, "", "error: --instance is required\n")
    assert not any(tmp_path.iterdir())


def test_config_file_merges_and_flags_override(capsys, tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({
        "instance": "grid", "ell": 2, "horizon": 30,
        "out_dir": str(tmp_path / "from-config"),
    }))
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg_path))
    assert code == 0
    assert os.path.exists(tmp_path / "from-config" / "basic-0.json")

    override = tmp_path / "override"
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg_path),
                           "--out-dir", str(override))
    assert code == 0
    assert os.path.exists(override / "basic-0.json")


@pytest.mark.parametrize("retired", ["eps_term", "max_iters", "workers", "backend"])
def test_config_file_naming_a_retired_solver_field_is_rejected(capsys, tmp_path, retired):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"instance": "grid", "horizon": 5, retired: 1}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path))
    assert code == 1
    assert f"unknown config keys: ['{retired}']" in err


@pytest.mark.parametrize("x0", ["inf,0", "1e400,0", "nan,0"])
def test_non_finite_x0_is_a_clean_error(capsys, tmp_path, x0):
    code, _, err = run_cli(capsys, "run", "--instance", "integrator", "--x0", x0,
                           "--horizon", "2", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize("argv", [
    ("--instance", "spiral", "--x0", "1,2,3"),
    ("--instance", "spiral", "--x0", "5"),
    ("--instance", "integrator", "--x0", "3"),
    ("--instance", "spiral", "--variant", "disturbance", "--x0", "1,2,3"),
    ("--instance", "spiral", "--x0", "[true,1]"),
])
def test_an_x0_of_the_wrong_shape_is_a_clean_error(capsys, tmp_path, argv):
    """A vector x0 is checked against the start state's shape before the
    run: the error names x0, not a numpy product or --disturb."""
    code, out, err = run_cli(capsys, "run", *argv, "--horizon", "2", "--out-dir", str(tmp_path))
    assert code == 1 and "PASS" not in out
    assert err.startswith("error: x0 must be a finite vector of the start state's shape (2,), "
                          f"got '{argv[-1]}'")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("--instance", "tsp", "--x0", "1,2"),
    ("--instance", "tsp", "--x0", "5"),
    ("--instance", "grid", "--x0", "Z"),
    ("--instance", "grid", "--x0", "1,2"),
    ("--instance", "grid", "--x0", "[[0,2]]"),
    ("--instance", "grid", "--x0", "[[0,2],[2,0],[1,1]]"),
    ("--instance", "grid", "--x0", "[[0.5,2],[2,0]]"),
    ("--instance", "grid", "--x0", "[[true,2],[2,0]]"),
])
def test_an_x0_of_the_wrong_form_is_a_clean_error(capsys, tmp_path, argv):
    """A token or tuple x0 is checked against the start state's form (leaf
    types, tuple nesting and lengths) before the run."""
    code, out, err = run_cli(capsys, "run", *argv, "--horizon", "2", "--out-dir", str(tmp_path))
    assert code == 1 and "PASS" not in out
    assert err.startswith("error: x0 must have the start state's form ")
    assert err.rstrip().endswith(f"got '{argv[-1]}'")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("budget", ["nan", "-1", "-inf", "config:-0.5"])
def test_a_negative_or_nan_budget_is_a_clean_error(capsys, tmp_path, budget):
    argv = ["run", "--instance", "integrator", "--variant", "augmented",
            "--horizon", "2", "--out-dir", str(tmp_path / "runs")]
    if budget.startswith("config:"):
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps({"budget": float(budget[7:])}))
        argv += ["--config", str(cfg_path)]
    else:
        argv.append(f"--budget={budget}")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: budget must be nonnegative or inf")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [
    ("run", "--instance", "integrator", "--variant", "augmented", "--budget", "-inf"),
    ("run", "--instance", "grid", "--no-such-flag"),
])
def test_usage_errors_exit_one(capsys, argv):
    """Bad input exits 1; argparse's own 2 would read as an infeasible run."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ddrollout") and "error:" in err


def test_an_infinite_budget_runs(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--instance", "integrator", "--variant",
                             "augmented", "--budget", "inf", "--horizon", "2",
                             "--out-dir", str(tmp_path))
    assert code == 0, err
    assert "status=horizon steps=2" in out


def test_config_file_x0_list_runs_like_the_flag_string(capsys, tmp_path):
    outs = []
    for i, x0 in enumerate(([-3.95, -0.05], "-3.95,-0.05")):
        cfg_path = tmp_path / f"job{i}.json"
        cfg_path.write_text(json.dumps({"instance": "integrator", "horizon": 3, "x0": x0,
                                        "out_dir": str(tmp_path / "runs")}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "x0=array([-3.95, -0.05])" in outs[0]


@pytest.mark.parametrize("command", ["run", "verify", "table"])
def test_every_flag_is_a_config_key(tmp_path, command):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    flags = {a.dest: 1 for a in sub._actions if a.dest not in ("help", "config")}
    assert "instance" in flags and ("ell" in flags) == (command == "run")
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(flags))
    assert _merge_config(parser.parse_args([command, "--config", str(cfg_path)])) == flags
    cfg_path.write_text(json.dumps({"instance": "grid", "fn": 1}))
    with pytest.raises(ValueError, match=r"unknown config keys: \['fn'\]"):
        _merge_config(parser.parse_args([command, "--config", str(cfg_path)]))


@pytest.mark.parametrize("argv,config", [
    (("--mode-cap", "64", "--mpc-horizon", "4"), {"ell": 4, "mode_cap": 64}),
    (("--ell", "4"), {"ell": 4, "mode_cap": 512}),
    (("--ell", "4", "--mpc-horizon", "3"), {"ell": 3, "mode_cap": 512}),
])
def test_classical_mpc_flags_win_over_the_bundle_notes(capsys, tmp_path, argv, config):
    """The spiral's notes ask for ell=10 and mode_cap=512 under MPC; a value
    the user gave wins, and --mpc-horizon wins over --ell."""
    code, _, err = run_cli(capsys, "run", "--instance", "spiral", "--variant", "classical-mpc",
                           "--horizon", "2", *argv, "--out-dir", str(tmp_path))
    assert code == 0, err
    assert read_json(tmp_path / "classical-mpc-0.json")["config"] == config


def test_a_start_far_past_the_sample_grid_is_a_clean_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--instance", "integrator", "--x0", "1e300,0",
                             "--horizon", "2", "--out-dir", str(tmp_path))
    assert code in (1, 2) and "Traceback" not in err and "PASS" not in out


def test_mode_sequences_over_the_cap_are_a_clean_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--instance", "spiral", "--ell", "9",
                           "--horizon", "2", "--out-dir", str(tmp_path))
    assert code == 1
    assert "256 mode sequences of length 9 exceed mode_cap=128" in err


def test_one_step_lookahead_stays_on_its_samples(capsys, tmp_path):
    """With ell=1 the integrator cannot correct its first coordinate, so a
    plan that lands near its sample rather than on it drifts off the set."""
    code, out, err = run_cli(capsys, "run", "--instance", "integrator", "--ell", "1",
                             "--horizon", "80", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert "status=closed_in_set" in out
    assert "improvement chain:" in out and ": PASS" in out


@pytest.mark.parametrize("argv", [
    ("list-instances",),
    ("table", "--instance", "tsp"),
])
def test_closed_stdout_pipe_ends_quietly(tmp_path, argv):
    # the reader closes its end before the first line arrives, like a
    # `| head` that has already exited; nothing may reach stderr
    pkg_root = str(Path(ddrollout.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p))
    if argv[0] == "table":
        argv += ("--out-dir", str(tmp_path))
    proc = subprocess.Popen([sys.executable, "-m", "ddrollout.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
    if argv[0] == "table":  # artifacts are written before anything is printed
        assert (tmp_path / "table.csv").exists() and (tmp_path / "table.txt").exists()


def test_chain_slack_ignores_an_infinite_recorded_value(capsys):
    # realized above the lookahead by 1e-3 relative: an infinite recorded
    # value must not widen the slack enough to pass it
    closed = dict(initial_set_value=math.inf, variant="basic", status="closed_in_set")
    run = SimpleNamespace(total_cost=5.0 * (1.0 + 1e-3), per_step_values=(5.0,), **closed)
    assert not _report_chain(run)
    assert ": FAIL" in capsys.readouterr().out
    run = SimpleNamespace(total_cost=5.0, per_step_values=(5.0,), **closed)
    assert _report_chain(run)


@pytest.mark.parametrize("horizon,status,verdict", [
    ("40", "status=closed_in_set steps=10", ": PASS"),
    ("2", "status=horizon steps=2", ": UNCLOSED"),
])
def test_only_a_closed_run_passes_the_chain(capsys, tmp_path, horizon, status, verdict):
    """A run cut off at its horizon has a truncated cost: its chain line
    reads UNCLOSED, never PASS, and the exit code stays 0."""
    code, out, err = run_cli(capsys, "run", "--instance", "spiral", "--set", "trajectory-0",
                             "--horizon", horizon, "--out-dir", str(tmp_path))
    assert code == 0, err
    assert status in out and verdict in out
    assert out.count(": PASS") == (verdict == ": PASS")


@pytest.mark.parametrize("argv,name", [
    (("--instance", "tsp", "--horizon", "4"), "basic-0"),
    (("--instance", "grid", "--horizon", "5"), "basic-0"),
    (("--instance", "grid", "--variant", "multiagent", "--horizon", "5"), "multiagent-0"),
])
def test_a_run_that_finishes_on_its_last_allowed_move_stops(capsys, tmp_path, argv, name):
    """The last allowed solve's move reaches the stopping set: the run stops
    there with exact tail costs and passes its chain, as it would with a
    longer horizon."""
    code, out, err = run_cli(capsys, "run", *argv, "--out-dir", str(tmp_path))
    assert code == 0, err
    assert f"status=stopped steps={argv[-1]} " in out and ": PASS" in out
    traj = run_from_doc(read_json(tmp_path / f"{name}.json")).trajectory
    assert traj.terminated_in_stopping_set
    assert traj.tail_costs is not None and traj.tail_costs[-1] == 0.0


def test_an_unclosed_run_can_still_fail_the_chain(capsys):
    unclosed = dict(initial_set_value=7.0, variant="basic", status="horizon")
    run = SimpleNamespace(total_cost=6.0, per_step_values=(5.0,), **unclosed)
    assert not _report_chain(run)
    assert ": FAIL" in capsys.readouterr().out
    run = SimpleNamespace(total_cost=4.0, per_step_values=(5.0,), **unclosed)
    assert _report_chain(run)
    assert ": UNCLOSED" in capsys.readouterr().out


def test_run_ending_at_x0_checks_realized_against_recorded(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--instance", "spiral", "--x0", "0,0",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert ("improvement chain: realized 0.000000 <= lookahead n/a "
            "<= certified 0.000000 : PASS") in out


@pytest.mark.parametrize("argv", [
    ("verify", "--instance", "spiral", "--samples", "0"),
    ("verify", "--instance", "spiral", "--samples", "-3"),
    ("run", "--instance", "spiral", "--start-index", "7"),
    ("run", "--instance", "spiral", "--start-index", "-1"),
    ("run", "--instance", "grid", "--horizon", "0"),
    ("run", "--instance", "grid", "--horizon", "-2"),
    ("run", "--instance", "grid", "--variant", "multiagent", "--sweeps", "-1"),
    ("table", "--instance", "tsp", "--horizon", "0"),
    ("run", "--instance", "integrator", "--variant", "classical-mpc", "--mpc-horizon", "0"),
    ("run", "--instance", "spiral", "--variant", "disturbance", "--disturb-step", "-1"),
    ("verify", "--instance", "spiral", "--seed", "-1"),
    ("run", "--instance", "spiral", "--variant", "disturbance", "--disturb", "foo"),
    ("run", "--instance", "spiral", "--variant", "disturbance", "--disturb", "[true,0]"),
])
def test_out_of_range_counts_are_clean_errors(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, *(("--out-dir", str(tmp_path))
                                               if argv[0] != "verify" else ()))
    assert code == 1
    assert err.startswith("error: ") and "PASS" not in out
    assert not list(tmp_path.iterdir())


_CONFIG_COUNTS = [("run", "horizon", 0, 1), ("run", "ell", 2.5, 1), ("run", "ell", True, 1),
                  ("run", "ell", 0, 1), ("run", "mode_cap", "x", 1), ("run", "mode_cap", 0, 1),
                  ("run", "mpc_horizon", 2.5, 1), ("run", "disturb_step", 1.5, 0),
                  ("verify", "seed", 1.5, 0)]


@pytest.mark.parametrize("command,key,value,low", _CONFIG_COUNTS,
                         ids=[f"{key}-{value}" for _, key, value, _ in _CONFIG_COUNTS])
def test_out_of_range_count_in_a_config_file_is_a_clean_error(capsys, tmp_path, command, key,
                                                              value, low):
    cfg = {"instance": "grid", key: value}
    if command == "run":
        cfg["out_dir"] = str(tmp_path / "runs")
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, command, "--config", str(cfg_path))
    assert code == 1
    assert err.startswith(f"error: {key} must be an integer in [{low}, inf), got {value!r}")
    assert not (tmp_path / "runs").exists() and "PASS" not in out


@pytest.mark.parametrize("argv,kind,name", [
    (("run", "--instance", "foo"), "instance", "foo"),
    (("table", "--instance", "foo"), "instance", "foo"),
    (("verify", "--instance", "foo"), "instance", "foo"),
    (("run", "--instance", "tsp", "--set", "nope"), "sample set", "nope"),
])
def test_an_unknown_name_prints_the_message_not_its_repr(capsys, tmp_path, monkeypatch, argv,
                                                         kind, name):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    head, known = err.split("; known: ")
    assert head == f"error: unknown {kind} '{name}'"
    assert known.endswith("\n") and '"' not in err and known.strip()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("variant", ["augmented", "classical-mpc"])
def test_a_set_on_a_variant_that_takes_none_is_rejected(capsys, tmp_path, variant):
    code, out, err = run_cli(capsys, "run", "--instance", "integrator", "--variant", variant,
                             "--set", "nope", "--out-dir", str(tmp_path / "runs"))
    assert (code, out, err) == (1, "", f"error: --variant {variant} takes no --set\n")
    assert not (tmp_path / "runs").exists()


def test_a_config_file_naming_an_unknown_variant_is_rejected(capsys, tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"instance": "grid", "variant": "bogus",
                                    "out_dir": str(tmp_path / "runs")}))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg_path))
    assert (code, out, err) == (1, "", "error: unknown variant 'bogus'\n")
    assert not (tmp_path / "runs").exists()


def test_the_variant_flag_offers_exactly_the_variants_run_accepts():
    run = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    assert next(a for a in run._actions if a.dest == "variant").choices == cli.VARIANTS


@pytest.mark.parametrize("instance", ["spiral", "integrator", "grid", "tsp"])
def test_table_cells_are_the_costs_of_the_matching_runs(capsys, tmp_path, instance):
    """Every table row is the run `run` makes for that start and set: the
    rollout (agent by agent where the instance has a partition) and, where
    the instance has one, the classical baseline."""
    code, _, _ = run_cli(capsys, "table", "--instance", instance, "--horizon", "40",
                         "--out-dir", str(tmp_path / "table"))
    assert code == 0
    rows = [r for r in csv.reader((tmp_path / "table" / "table.csv").read_text().splitlines())
            if len(r) == 5][1:]
    bundle = make_instance(instance)
    labels = [cli._start_label(x0) for x0 in bundle.start_states]
    rollout = "multiagent" if bundle.partition is not None else "basic"
    assert rows

    def cell_of(variant, start, *extra):
        out_dir = tmp_path / f"{variant}-{start}-{len(extra)}"
        run_cli(capsys, "run", "--instance", instance, "--variant", variant, "--horizon", "40",
                "--start-index", str(start), *extra, "--out-dir", str(out_dir))
        run = run_from_doc(read_json(out_dir / f"{variant}-{start}.json"))
        return f"{run.total_cost:.4f}" + ("*" if run.status == "horizon" else "")

    for _, label, _, rollout_cell, baseline_cell in rows:
        start_label, _, name = label.partition(" [")
        start = labels.index(start_label)
        assert rollout_cell == cell_of(rollout, start, "--set",
                                       name.rstrip("]") or bundle.default_set)
        if baseline_cell:
            assert baseline_cell == cell_of("classical-mpc", start)
    assert any(r[4] for r in rows) == ("mpc_terminal" in bundle.notes)


@pytest.mark.parametrize("variant", ["basic", "multiagent"])
@pytest.mark.parametrize("x0,cell", [("[[-1,2],[2,0]]", "(-1, 2)"), ("[[9,9],[2,0]]", "(9, 9)")])
def test_a_grid_start_off_the_grid_is_an_error(capsys, tmp_path, variant, x0, cell):
    code, out, err = run_cli(capsys, "run", "--instance", "grid", "--variant", variant,
                             "--x0", x0, "--out-dir", str(tmp_path / "runs"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"off the 5x5 grid at {cell}" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("x0", ["Z", "ZA", "ABB", "AA", "ABCDAA"])
def test_a_tour_start_that_is_no_tour_state_is_an_error(capsys, tmp_path, x0):
    code, out, err = run_cli(capsys, "run", "--instance", "tsp", "--x0", x0,
                             "--out-dir", str(tmp_path / "runs"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {x0!r} is not a tour state: ")
    assert not (tmp_path / "runs").exists()


_IGNORED = [("basic", "budget", "2.0"), ("basic", "sweeps", "5"), ("basic", "disturb", "9,9"),
            ("basic", "disturb_step", "1"), ("basic", "mpc_horizon", "3"),
            ("multiagent", "budget", "2.0"), ("augmented", "sweeps", "1"),
            ("classical-mpc", "disturb", "0.1,0.1"), ("disturbance", "mpc_horizon", "3")]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("variant,key,value", _IGNORED,
                         ids=[f"{v}-{k}" for v, k, _ in _IGNORED])
def test_an_option_the_variant_does_not_read_is_rejected(capsys, tmp_path, variant, key,
                                                        value, via_config):
    flag = "--" + key.replace("_", "-")
    argv = ["run", "--instance", "grid" if variant == "multiagent" else "integrator",
            "--variant", variant, "--horizon", "2", "--out-dir", str(tmp_path / "runs")]
    if via_config:
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps({key: value if key == "disturb" else
                                        float(value) if key == "budget" else int(value)}))
        argv += ["--config", str(cfg_path)]
    else:
        argv += [flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: --variant {variant} takes no {flag}\n")
    assert not (tmp_path / "runs").exists()


def test_the_classical_baseline_on_the_tour_asks_for_a_vector_start(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--instance", "tsp", "--variant", "classical-mpc",
                             "--out-dir", str(tmp_path / "runs"))
    assert (code, out) == (1, "")
    assert err == "error: the classical MPC baseline needs a vector start state, got 'A'\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("instance,start", [("tsp", "'A'"), ("grid", "((0, 2), (2, 0))")])
@pytest.mark.parametrize("disturb", [None, "0,1,0,0"])
def test_the_disturbance_variant_asks_for_a_vector_start(capsys, tmp_path, instance, start,
                                                         disturb):
    argv = ["run", "--instance", instance, "--variant", "disturbance",
            "--out-dir", str(tmp_path / "runs")] + (["--disturb", disturb] if disturb else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: the disturbance variant needs a vector start state, got {start}\n"
    assert not (tmp_path / "runs").exists()


def test_the_run_json_carries_each_discrete_solves_nodes_and_rows(capsys, tmp_path):
    """Counts fixed by the search: the first solve tables all 600 joint
    states, and the later solves find every row in the rollout's memo."""
    code, _, _ = run_cli(capsys, "run", "--instance", "grid", "--ell", "8",
                         "--out-dir", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "basic-0.json")
    reports = [r["__map__"] for r in doc["solver_reports"]]
    assert [r["nodes"] for r in reports] == [2929, 521, 194, 261, 10]
    assert [r["rows"] for r in reports] == [600, 0, 0, 0, 0]
    run = run_from_doc(doc)
    assert run.work == tuple({"nodes": r["nodes"], "rows": r["rows"]} for r in reports)
    assert all(set(r) == {"value", "sample_id", "per_stage_values"} for r in run.solver_reports)
