"""scripts/bench_pairs.py: aggregation of paired benchmark runs, checked on
canned run.py output; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _stdout(run_s, failed=0, value=2.5):
    """What perfbench/run.py prints: a metric table, then one JSON line."""
    metrics = {"setup_s": {"value": 0.004, "unit": "s"}, "run_s": {"value": run_s, "unit": "s"},
               "lookahead_value": {"value": value, "unit": "cost"},
               "peak_rss_mb": {"value": 64.0, "unit": "MB"}}
    table = "workload w seed 1 (untraced):\n  run_s  1.0 s n=3\n"
    return table + json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                               "metrics": metrics}) + "\n"


def test_pairs_aggregate_into_medians_quartiles_and_wins():
    parent = [1.0, 1.2, 0.9, 1.1, 1.3]
    change = [0.5, 0.6, 1.0, 0.55, 0.65]
    pairs = [{"seed": i + 1,
              "parent": bench_pairs.record(bench_pairs.last_json(_stdout(p))),
              "change": bench_pairs.record(bench_pairs.last_json(_stdout(c, failed=i == 2)))}
             for i, (p, c) in enumerate(zip(parent, change))]
    assert pairs[2]["change"]["failed"] == 1 and pairs[2]["change"]["attempted"] == 10
    metrics = bench_pairs.summarize(pairs)
    assert list(metrics) == ["setup_s", "run_s", "lookahead_value", "peak_rss_mb"]
    run_s = metrics["run_s"]
    assert run_s["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2, "iqr": pytest.approx(0.2)}
    assert run_s["change"]["median"] == 0.6
    assert (run_s["change"]["q1"], run_s["change"]["q3"]) == (0.55, 0.65)
    assert (run_s["change_lower_in"], run_s["change_higher_in"], run_s["pairs"]) == (4, 1, 5)
    # ties count for neither side
    assert (metrics["lookahead_value"]["change_lower_in"],
            metrics["lookahead_value"]["change_higher_in"]) == (0, 0)


def _claim(parent, change):
    pairs = [{"seed": i + 1, "parent": {"run_s": p}, "change": {"run_s": c}}
             for i, (p, c) in enumerate(zip(parent, change))]
    return bench_pairs.claim_met(bench_pairs.summarize(pairs)["run_s"])


def test_the_claim_rule_needs_nine_of_ten_pairs_lower_and_a_gap_past_the_parents_iqr():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]  # IQR 0.035
    assert _claim(parent, [p - 0.1 for p in parent])
    # 9 of 10 lower is enough; a tie counts for neither side
    assert _claim(parent, [p - 0.1 for p in parent[:9]] + [parent[9]])
    # lower in only 8 of 10, however wide the gap
    assert not _claim(parent, [p - 0.5 for p in parent[:8]] + [p + 0.01 for p in parent[8:]])
    # lower in 10 of 10, but the medians differ by less than the parent's IQR
    assert not _claim(parent, [p - 0.03 for p in parent])


def test_a_metric_a_failed_run_left_undefined_is_left_out_of_its_pairs():
    pairs = [{"seed": s, "parent": bench_pairs.record(bench_pairs.last_json(_stdout(1.0 + s))),
              "change": bench_pairs.record(bench_pairs.last_json(_stdout(1.0, value=None)))}
             for s in range(3)]
    metrics = bench_pairs.summarize(pairs)
    assert "lookahead_value" not in metrics
    assert metrics["run_s"]["pairs"] == 3


def _flat(tree, path=()):
    if not isinstance(tree, dict):
        return {path: tree}
    return {k: v for key, sub in tree.items() for k, v in _flat(sub, path + (key,)).items()}


def test_the_summary_reproduces_the_recorded_benchmark_file():
    doc = json.loads((ROOT / "BENCH_70271b7.json").read_text())
    for name, workload in doc["workloads"].items():
        got, want = _flat(bench_pairs.summarize(workload["pairs"])), _flat(workload["metrics"])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), name


@pytest.mark.parametrize("text,want", [("1-3", [1, 2, 3]), ("4", [4]),
                                       ("1-2,7,9-10", [1, 2, 7, 9, 10])])
def test_seed_lists(text, want):
    assert bench_pairs.parse_seeds(text) == want


def test_a_run_that_printed_nothing_is_an_error():
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n")


def test_two_checkouts_of_one_commit_write_an_a_a_file():
    assert bench_pairs.out_name("8f418d2", "66b62d4") == "BENCH_66b62d4.json"
    assert bench_pairs.out_name("8f418d2", "8f418d2") == "BENCH_AA_8f418d2.json"
