"""Tests of the benchmark itself, on its smoke size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=150)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import harness
    return harness


def _run(total, lookahead, recorded):
    return SimpleNamespace(total_cost=total, per_step_values=(lookahead,),
                           initial_set_value=recorded)


def test_chain_check_uses_the_cli_slack(harness):
    from ddrollout.cli import CHAIN_SLACK
    assert harness._chain_problem(_run(5.0, 5.0, 7.0)) is None
    assert harness._chain_problem(_run(5.0 + 0.5 * CHAIN_SLACK * 5, 5.0, 7.0)) is None
    assert "broken" in harness._chain_problem(_run(5.0 + 2 * CHAIN_SLACK * 5, 5.0, 7.0))
    assert "broken" in harness._chain_problem(_run(5.0, 8.0, 7.0))


def test_ledger_names_the_failing_job(harness, capsys):
    ledger = harness.Ledger()
    ok = harness.Outcome("a", status="stopped", steps=2, lookahead=1.0, total_cost=1.0)
    bad = harness.Outcome("b", problems=["raised ValueError: boom"])
    ledger.add([ok, bad])
    drifted = harness.Outcome("a", status="stopped", steps=2, lookahead=1.0, total_cost=2.0)
    ledger.add([drifted], reference={"a": ok})
    assert (ledger.attempted, ledger.failed) == (3, 2)
    err = capsys.readouterr().err
    assert "FAIL job 'b': raised ValueError: boom" in err
    assert "FAIL job 'a': result" in err
