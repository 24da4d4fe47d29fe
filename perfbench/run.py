"""Closed-loop rollout benchmark for ddrollout.

    python3 perfbench/run.py --workload spiral-sampled --seed 1 --seconds 20 --trace 0

Runs one named workload (see BENCHMARK.json) in a fresh subprocess with
single-threaded BLAS, against the package under src/ of this checkout, and
prints every metric by name with its unit and sample count. The last line of
standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1. setup_s and run_s are
in reference seconds, which factor out the swings in CPU speed of a shared
host (see SpeedProbe in harness.py); their wall-clock values are printed too.
The exit code is nonzero when any job fails its checks or the program
cannot be run.
--smoke shrinks every job (tiny horizons, ell <= 4) to finish in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _finite(v):
    """A failed job can leave a metric undefined; JSON has null for that."""
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ddrollout" / "__init__.py").is_file():
        print(f"error: no ddrollout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    result_path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: workload {args.workload} exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 3
    result = json.loads(result_path.read_text())

    metrics = result["metrics"]
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB", "samples": 1}
    missing = [k for k, unit in declared.items()
               if k not in metrics or metrics[k]["unit"] != unit]
    if missing:
        print(f"error: metrics missing or in the wrong unit: {missing}", file=sys.stderr)
        return 3

    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}):")
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": _finite(metrics[k]["value"]), "unit": unit}
                    for k, unit in declared.items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
