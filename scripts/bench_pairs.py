"""Paired benchmark runs of two checkouts, written to BENCH_<short-sha>.json.

Runs each checkout's own perfbench/run.py once per workload and seed,
alternating which side goes first (odd seeds the parent, even seeds the
change), and reads the JSON object each run prints last. The file keeps
every pair and, per end-to-end metric, each side's median and quartiles and
how many pairs the change ran lower or higher, and whether the claim rule
holds for it ("claim_met"). With --traced-seconds, one
traced pass per side and workload (seed 1) adds the per-layer metrics.
Both checkouts should be clean git clones: the file is named after the
change's commit. Two clones of one commit make an A/A run, written to
BENCH_AA_<short-sha>.json: its gaps are checkout drift alone, the band a
change's gap must clear. A file of the same name from the same two commits
is extended, so workloads can be run one at a time.

The claim rule: every metric here is better lower, and a change counts as
better on a metric when it ran lower than the parent in at least 9 of every
10 pairs (ties count for neither side) and its median lies below the
parent's by more than the parent's interquartile range.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload spiral-mpc [--workload ...] --seeds 1-10 --seconds 20 \\
        [--traced-seconds 5] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

COUNTS = ("failed", "attempted")


def parse_seeds(text: str) -> list:
    """'1-10,13' -> [1, ..., 10, 13]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def last_json(stdout: str) -> dict:
    """The JSON object run.py prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def record(result: dict) -> dict:
    """One run's failure counts and metric values, from run.py's JSON."""
    out = {k: result[k] for k in COUNTS}
    out.update((name, m["value"]) for name, m in result["metrics"].items())
    return out


def spread(values) -> dict:
    """Median and quartiles (linear interpolation between order statistics)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list) -> dict:
    """Per metric: each side's spread over the pairs where both sides have
    a value, and in how many of those the change ran lower or higher."""
    names = [k for k in pairs[0]["parent"] if k not in COUNTS]
    out = {}
    for name in names:
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if p["parent"].get(name) is not None and p["change"].get(name) is not None]
        if len(both) < 2:
            continue
        parent, change = zip(*both)
        out[name] = {"parent": spread(parent), "change": spread(change),
                     "change_lower_in": sum(c < p for p, c in both),
                     "change_higher_in": sum(c > p for p, c in both),
                     "pairs": len(both)}
    return out


def claim_met(metric: dict) -> bool:
    """The claim rule (see the module docstring) on one metric's summary."""
    parent, change = metric["parent"], metric["change"]
    return (10 * metric["change_lower_in"] >= 9 * metric["pairs"]
            and parent["median"] - change["median"] > parent["iqr"])


def out_name(parent: str, change: str) -> str:
    """The file a run of these two commits writes: an A/A run when both are one."""
    return f"BENCH_AA_{change}.json" if parent == change else f"BENCH_{change}.json"


def short_sha(root: Path) -> str:
    return subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        return record(last_json(proc.stdout))
    except (ValueError, KeyError) as exc:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{exc}\n{proc.stderr[-2000:]}") from exc


def machine() -> str:
    return (f"{os.cpu_count()} CPUs, {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {metadata.version('numpy')}, "
            "OPENBLAS_NUM_THREADS=1 (set by the harness)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--traced-seconds", type=float, default=0.0)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: short_sha(root) for side, root in sides.items()}
    path = args.out_dir / out_name(shas["parent"], shas["change"])
    doc = json.loads(path.read_text()) if path.is_file() else {}
    if (doc.get("parent"), doc.get("change")) != (shas["parent"], shas["change"]):
        doc = {}
    doc.update({
        "parent": shas["parent"], "change": shas["change"],
        "command": f"python3 perfbench/run.py --workload <w> --seed <n> "
                   f"--seconds {args.seconds:g}",
        "machine": machine(),
        "order": "odd seeds run the parent first, even seeds the change first; "
                 "each side from its own checkout",
        "units": "setup_s and run_s in reference seconds (perfbench/harness.py SpeedProbe)",
    })
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        pairs = []
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_side(sides[side], workload, seed, args.seconds, 0)
            pairs.append({k: pair[k] for k in ("seed", "parent", "change")})
            print(f"{workload} seed {seed}: run_s parent {pair['parent'].get('run_s')} "
                  f"change {pair['change'].get('run_s')}", flush=True)
        metrics = summarize(pairs)
        for metric in metrics.values():
            metric["claim_met"] = claim_met(metric)
        workloads[workload] = {"pairs": pairs, "metrics": metrics}
        if args.traced_seconds > 0:
            traced = doc.setdefault("per_layer_one_traced_pass", {
                "command": f"python3 perfbench/run.py --workload <w> --seed 1 "
                           f"--seconds {args.traced_seconds:g} --trace 1",
                "note": "one traced pass per side; wall seconds under the tracer, noisy",
                "workloads": {}})
            traced["workloads"][workload] = {
                side: {k: v for k, v in run_side(root, workload, 1, args.traced_seconds,
                                                 1).items() if k not in COUNTS}
                for side, root in sides.items()}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
