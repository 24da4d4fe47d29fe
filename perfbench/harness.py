"""Measure one workload in this process.

Started by run.py in a fresh subprocess per workload. It builds the inputs,
makes one untimed warm-up pass, checks one job through `ddrollout.cli.main`
and the seeded probe jobs, then repeats timed passes over the workload's
jobs, in a seeded order, until the time is up. Every job in every pass is
checked: no exception, the improvement chain under the CLI's CHAIN_SLACK
rule, JSON/CSV/summary artifacts that read back to the same run, and the
same result as in the warm-up pass. Times are reported in reference
seconds (see SpeedProbe), with wall seconds alongside. The metrics go to the
JSON file named by --result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

import ddrollout
from ddrollout import catalog, cli, serialization
from ddrollout.model import state_key

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP_REPS_PER_PASS = 5
REF_S = 0.003   # the reference computation's duration in reference seconds; sets the scale

# layers whose self times, with the harness's own ("bench"), add up to a pass
PASS_LAYERS = ("bench", "engine", "lookahead", "shooting", "model",
               "sample_sets", "budget", "serialization")


@dataclass
class Outcome:
    job: str
    status: str = "error"
    steps: int = 0
    lookahead: float = math.nan
    total_cost: float = math.nan
    bytes: int = 0
    problems: list = field(default_factory=list)

    def key(self):
        return (self.status, self.steps, self.lookahead, self.total_cost)


def _chain_problem(run) -> str | None:
    """The check `ddrollout run` applies: realized <= lookahead at x0 <= recorded."""
    total = run.total_cost
    first = run.per_step_values[0] if run.per_step_values else math.inf
    recorded = run.initial_set_value
    slack = cli.CHAIN_SLACK * max(1.0, abs(first), abs(recorded))
    if total <= first + slack and first <= recorded + slack:
        return None
    return (f"improvement chain broken: realized {total!r} <= lookahead {first!r} "
            f"<= recorded {recorded!r}")


def _artifacts(run, instance: str, workdir: Path, tag: str) -> tuple[int, list]:
    """Write the run's JSON, CSV and summary row, then read each back."""
    jpath, cpath = workdir / f"{tag}.json", workdir / f"{tag}.csv"
    spath = workdir / "summary.csv"
    serialization.write_json(serialization.run_to_doc(run), str(jpath))
    serialization.write_text(serialization.trajectory_to_csv(run.trajectory), str(cpath))
    row = serialization.summary_row(run, instance, run.trajectory.states[0])
    serialization.append_summary(str(spath), row)

    problems = []
    back = serialization.run_from_doc(serialization.read_json(str(jpath)))
    if (back.status, back.total_cost, back.per_step_values, back.trajectory.stage_costs) \
            != (run.status, run.total_cost, run.per_step_values, run.trajectory.stage_costs):
        problems.append(f"run JSON {jpath.name} does not read back to the same run")
    traj = serialization.trajectory_from_csv(cpath.read_text())
    if (traj.stage_costs, traj.tail_costs, [state_key(s) for s in traj.states]) \
            != (run.trajectory.stage_costs, run.trajectory.tail_costs,
                [state_key(s) for s in run.trajectory.states]):
        problems.append(f"trajectory CSV {cpath.name} does not read back")
    with open(spath, newline="") as f:
        if list(csv.reader(f))[-1] != list(row):
            problems.append("summary row does not read back")
    return jpath.stat().st_size + cpath.stat().st_size, problems


def run_job(job, bundles, workdir: Path, tag: str) -> Outcome:
    out = Outcome(job.name)
    try:
        run = job.solve(bundles)
        out.status, out.steps = run.status, run.steps
        out.lookahead = run.per_step_values[0] if run.per_step_values else math.inf
        out.total_cost = run.total_cost
        chain = _chain_problem(run)
        if chain:
            out.problems.append(chain)
        out.bytes, problems = _artifacts(run, job.instance, workdir, tag)
        out.problems += problems
    except Exception as exc:  # a failing job is reported by name, not fatal
        traceback.print_exc()
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
    return out


def _no_span(name, job=None):
    return contextlib.nullcontext()


def _tagged(jobs, prefix="job"):
    return [(f"{prefix}{i}", j) for i, j in enumerate(jobs)]


def run_pass(jobs, bundles, workdir: Path, tracer=None):
    """One pass over (tag, job) pairs: the outcomes and each job's
    (start, end) on the perf_counter clock."""
    workdir.mkdir()
    span = tracer.span if tracer is not None else _no_span
    outcomes, intervals = [], []
    with span("bench.pass"):
        for tag, job in jobs:
            with span("bench.job", job=job.name):
                t0 = time.perf_counter()
                outcomes.append(run_job(job, bundles, workdir, tag))
                intervals.append((t0, time.perf_counter()))
    return outcomes, intervals


_REF_M = np.random.default_rng(0).standard_normal((10, 10))
_REF_H = _REF_M @ _REF_M.T + np.eye(10)
_REF_B = np.ones(10)


def _reference_work() -> float:
    """Small matrix products and 10x10 LAPACK calls in a Python loop, the
    mix of work the solvers do."""
    a = np.eye(4) * 0.5
    s = 0
    for _ in range(60):
        a = 0.5 * (a @ a.T) + 0.1 * np.eye(4)
        s += sum(j * j for j in range(60))
        np.linalg.eigvalsh(_REF_H)
        np.linalg.lstsq(_REF_H, _REF_B, rcond=None)
    return s + float(a[0, 0])


class SpeedProbe:
    """Samples the speed of the machine while the timed passes run.

    On a shared host the CPU's speed swings by up to 2x over seconds to
    minutes, so a wall time says as much about the neighbours as about the
    program. While active, a timer signal interrupts the program every
    PERIOD_S and times a fixed small numpy-and-Python computation. A timed
    interval is then reported in reference seconds: its wall time, less the
    samples taken inside it, scaled by REF_S over the mean sample time
    around it. That is how long the interval would take at the speed at
    which the reference computation takes REF_S.
    """

    PERIOD_S = 0.2
    WINDOW_S = 0.5   # samples this close to an interval describe its speed

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, end)
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _reference_work()
        self.samples.append((t0, time.perf_counter()))
        self._busy = False

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def scale(self, intervals) -> tuple[float, float]:
        """(wall, reference) seconds of a run of intervals, summed."""
        wall = ref = 0.0
        for a, z in intervals:
            inside = sum(max(0.0, min(z, e) - max(a, s)) for s, e in self.samples)
            near = [e - s for s, e in self.samples
                    if a - self.WINDOW_S <= e and s <= z + self.WINDOW_S]
            if not near:
                raise RuntimeError("no speed sample near a timed interval")
            wall += z - a - inside
            ref += (z - a - inside) * REF_S / statistics.fmean(near)
        return wall, ref


def cli_parity(job, library_total: float, workdir: Path) -> Outcome:
    """Repeat one job through `ddrollout run` in-process; same total cost."""
    out = Outcome(f"cli: {job.name}")
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([*job.cli, "--out-dir", str(workdir)])
        if code != 0:
            out.problems.append(f"ddrollout run exited {code}: {buf.getvalue()[-400:]}")
            return out
        (doc,) = workdir.glob("*.json")
        run = serialization.run_from_doc(serialization.read_json(str(doc)))
        out.status, out.steps, out.total_cost = run.status, run.steps, run.total_cost
        if run.total_cost != library_total:
            out.problems.append(f"CLI total_cost {run.total_cost!r} != library "
                                f"{library_total!r}")
    except Exception as exc:
        traceback.print_exc()
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
    return out


def build_inputs(wl) -> dict:
    return {name: catalog.make_instance(name) for name in wl.instances}


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f
                    if ln.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


class Ledger:
    """Every checked job execution, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, outcomes, reference=None):
        for o in outcomes:
            self.attempted += 1
            if reference is not None and o.key() != reference[o.job].key():
                o.problems.append(f"result {o.key()} differs from the warm-up pass "
                                  f"{reference[o.job].key()}")
            self.failed += bool(o.problems)
            for p in o.problems:
                msg = f"FAIL job {o.job!r}: {p}"
                print(msg, file=sys.stderr)
                self.failures.append(msg)


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _median_pass(tracers):
    ranked = sorted(tracers, key=lambda t: t.spans[0].end_ns - t.spans[0].start_ns)
    return ranked[(len(ranked) - 1) // 2]


def layer_metrics(setup_tracers, pass_tracers, untraced_s, reference) -> dict:
    """Per-layer numbers from the traced pass of median length."""
    t = _median_pass(pass_tracers)
    root = t.spans[0]
    pass_ns = root.end_ns - root.start_ns
    self_ns = sum(s.self_ns for s in t.spans) + sum(c[2] for c in t.leaves.values())
    if self_ns != pass_ns:
        raise AssertionError(f"self times {self_ns} ns do not add up to the pass {pass_ns} ns")
    solve_ms = [d for tr in pass_tracers for d in tr.durations_ms("lookahead.solve")]
    traced_s = [(tr.spans[0].end_ns - tr.spans[0].start_ns) / 1e9 for tr in pass_tracers]
    solves = t.counts.get("shooting.solves", 0)
    candidates = t.counts.get("shooting.candidates", 0)
    jobs = len(reference)
    n = len(pass_tracers)
    m = {
        "catalog.make_instance_s": _metric(statistics.median(
            s.inclusive_s("catalog.make_instance") for s in setup_tracers), "s",
            len(setup_tracers)),
        "sample_sets.build_s": _metric(statistics.median(
            s.inclusive_s("sample_sets.build") for s in setup_tracers), "s",
            len(setup_tracers)),
        "lookahead.solve.calls": _metric(t.calls("lookahead.solve"), "count", 1),
        "lookahead.solve_s": _metric(t.inclusive_s("lookahead.solve"), "s", 1),
        "lookahead.solve_ms.p50": _metric(tracing.percentile(solve_ms, 50), "ms",
                                          len(solve_ms)),
        "lookahead.solve_ms.p90": _metric(tracing.percentile(solve_ms, 90), "ms",
                                          len(solve_ms)),
        "lookahead.discrete_s": _metric(t.inclusive_s("lookahead.discrete"), "s", 1),
        "shooting.solve_s": _metric(t.inclusive_s("shooting.solve"), "s", 1),
        "shooting.candidates": _metric(candidates, "count", 1),
        "shooting.candidates_per_solve": _metric(candidates / solves if solves else 0.0,
                                                 "count", solves),
        "shooting.winner_iterations": _metric(
            t.counts.get("shooting.winner_iterations", 0), "count", 1),
        "shooting.unconverged": _metric(t.counts.get("shooting.unconverged", 0), "count", 1),
        "model.dynamics.calls": _metric(t.calls("model.dynamics"), "count", 1),
        "model.stage_cost.calls": _metric(t.calls("model.stage_cost"), "count", 1),
        "model.callbacks_s": _metric(t.leaf_s("model."), "s", 1),
        "sample_sets.terminal_cost.calls": _metric(
            t.calls("sample_sets.terminal_cost"), "count", 1),
        "sample_sets.terminal_cost_s": _metric(t.leaf_s("sample_sets.terminal_cost"), "s", 1),
        "budget.terminal_cost.calls": _metric(t.calls("budget.terminal_cost"), "count", 1),
        "budget.terminal_cost_s": _metric(t.leaf_s("budget.terminal_cost"), "s", 1),
        "engine.steps": _metric(sum(o.steps for o in reference.values()), "count", jobs),
        "engine.unclosed_frac": _metric(
            sum(o.status == "horizon" for o in reference.values()) / jobs, "frac", jobs),
        "serialization.write_s": _metric(t.inclusive_s("serialization.write"), "s", 1),
        "serialization.readback_s": _metric(t.inclusive_s("serialization.readback"), "s", 1),
        "serialization.bytes": _metric(sum(o.bytes for o in reference.values()), "bytes",
                                       jobs),
        "trace.pass_s": _metric(pass_ns / 1e9, "s", 1),
        "trace.overhead_s": _metric(statistics.median(traced_s)
                                    - statistics.median(untraced_s), "s", n),
    }
    by_layer = t.self_s_by_layer()
    for layer in PASS_LAYERS:
        m[f"{layer}.self_s"] = _metric(by_layer.get(layer, 0.0), "s", 1)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    src = Path(ddrollout.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"error: ddrollout imported from {src}, not this checkout's src/",
              file=sys.stderr)
        return 2

    wl = workloads.get(args.workload, smoke=args.smoke)
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    order_rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        bundles = build_inputs(wl)   # untimed first build

        jobs = _tagged(wl.jobs)
        warm, _ = run_pass(jobs, bundles, tmp / "warm-up")
        ledger.add(warm)
        reference = {o.job: o for o in warm}
        for o in warm:
            print(f"job {o.job!r}: status={o.status} steps={o.steps} "
                  f"lookahead={o.lookahead!r} total_cost={o.total_cost!r}")
        # the parity check repeats the CLI job at smoke size, where it is cheap
        cli_job = workloads.get(args.workload, smoke=True).cli_job
        (library,), _ = run_pass([("cli-job", cli_job)], bundles, tmp / "cli-library")
        ledger.add([library, cli_parity(cli_job, library.total_cost, tmp / "cli")])
        if wl.probes is not None:
            probe_jobs = wl.probes(bundles, np.random.default_rng(args.seed))
            ledger.add(run_pass(_tagged(probe_jobs, "probe"), bundles, tmp / "probes")[0])

        pass_runs, setup_runs, pass_tracers, setup_tracers = [], [], [], []

        def setup_reps():
            # spread over the whole run, so set-up is timed in the same
            # machine conditions as the passes, not in one short window
            for _ in range(SETUP_REPS_PER_PASS):
                if args.trace:
                    tr = tracing.Tracer()
                    with tracing.instrument_setup(tr), tr.span("bench.setup"):
                        build_inputs(wl)
                    setup_tracers.append(tr)
                else:
                    t0 = time.perf_counter()
                    build_inputs(wl)
                    setup_runs.append([(t0, time.perf_counter())])

        # a traced run alternates untraced and traced passes, and needs no
        # speed samples: per-layer numbers are wall times of a traced pass
        probe = SpeedProbe()
        with contextlib.nullcontext() if args.trace else probe:
            start = time.perf_counter()
            while True:
                setup_reps()
                if args.trace and len(pass_tracers) < len(pass_runs):
                    tr = tracing.Tracer()
                    traced = {k: tracing.traced_bundle(b, tr) for k, b in bundles.items()}
                    with tracing.instrument_pass(tr):
                        outcomes, _ = run_pass(order, traced,
                                               tmp / f"traced-{len(pass_tracers)}", tr)
                    pass_tracers.append(tr)
                else:
                    order = order_rng.sample(jobs, len(jobs))
                    outcomes, intervals = run_pass(order, bundles,
                                                   tmp / f"pass-{len(pass_runs)}")
                    pass_runs.append(intervals)
                ledger.add(outcomes, reference)
                if time.perf_counter() - start >= args.seconds \
                        and (pass_tracers or not args.trace):
                    break

    jobs_n = len(reference)
    wall_s = [sum(z - a for a, z in run) for run in pass_runs]
    pass_s = []
    if args.trace:
        metrics = layer_metrics(setup_tracers, pass_tracers, wall_s, reference)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "environment": env,
            "setup": [t.to_doc() for t in setup_tracers],
            "passes": [t.to_doc() for t in pass_tracers]}))
        print(f"wrote {trace_path.relative_to(ROOT)}")
    else:
        pass_s = [probe.scale(run) for run in pass_runs]
        setup_s = [probe.scale(run) for run in setup_runs]
        samples = [e - s for s, e in probe.samples]
        metrics = {
            "setup_s": _metric(statistics.median(r for _, r in setup_s), "s", len(setup_s)),
            "run_s": _metric(statistics.median(r for _, r in pass_s), "s", len(pass_s)),
            "lookahead_value": _metric(math.fsum(o.lookahead for o in reference.values()),
                                       "cost", jobs_n),
            "unclosed_frac": _metric(sum(o.status == "horizon" for o in reference.values())
                                     / jobs_n, "frac", jobs_n),
            "setup_wall_s": _metric(statistics.median(w for w, _ in setup_s), "s",
                                    len(setup_s)),
            "run_wall_s": _metric(statistics.median(w for w, _ in pass_s), "s", len(pass_s)),
            "reference_ms": _metric(statistics.median(samples) * 1e3, "ms", len(samples)),
        }
    failed = ledger.failed
    metrics["fail_frac"] = _metric(failed / ledger.attempted, "frac", ledger.attempted)
    result = {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
              "metrics": metrics, "environment": env,
              "pass_wall_s": wall_s, "pass_s": [r for _, r in pass_s],
              "jobs": [asdict(o) for o in reference.values()], "failures": ledger.failures}
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
