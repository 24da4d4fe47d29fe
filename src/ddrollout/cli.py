"""Command-line harness.

Subcommands: run, verify, table, list-instances. Every option can also be
supplied through a JSON config file (--config); explicit flags win over
config values. Exit codes: 0 success, 1 property violation, 2 infeasibility,
3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from .budget import AugmentedState
from .catalog import INSTANCES, InstanceBundle, make_instance
from .engine import (
    run_classical_mpc,
    run_multiagent,
    run_rollout,
)
from .errors import (
    InfeasibleStepError,
    InitialInfeasibilityError,
    RolloutError,
    SampleSetIntegrityError,
    SolverFailureError,
)
from .lookahead import SolverConfig
from .model import is_vector_state
from .sample_sets import merge
from .serialization import (
    append_summary,
    read_json,
    run_to_doc,
    sample_set_from_doc,
    summary_row,
    trajectory_to_csv,
    write_json,
    write_text,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3

# the exit code and stderr prefix of each error main() reports; first match wins
_ERRORS = (
    ((InitialInfeasibilityError, InfeasibleStepError), EXIT_INFEASIBLE, "infeasible"),
    (SolverFailureError, EXIT_SOLVER, "solver failure"),
    (SampleSetIntegrityError, EXIT_PROPERTY, "stored set rejected"),
    ((RolloutError, KeyError, ValueError), EXIT_PROPERTY, "error"),
)

CHAIN_SLACK = 1e-6  # relative tolerance for the improvement-chain report


def _parse_x0(raw):
    """A state from a flag or a config file: '1,1' or [1, 1] (vector, every
    component a finite int or float, not a bool), 'A' (token), or JSON for
    structured states."""
    if isinstance(raw, str):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = None
        if not isinstance(value, list):
            try:
                value = [float(c) for c in raw.split(",")]
            except ValueError:
                return raw
        raw = value
    if not isinstance(raw, list):
        return raw
    if all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in raw):
        x = np.asarray(raw, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError(f"state components must be finite, got {raw!r}")
        return x

    def tup(v):
        return tuple(tup(c) for c in v) if isinstance(v, list) else v
    return tup(raw)


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values fill in the subcommand's flags; given flags override.
    Every subcommand needs an instance, from either."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "fn")}
    merged = {}
    if args.config:
        file_cfg = read_json(args.config)
        unknown = set(file_cfg) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    merged.update((k, v) for k, v in flags.items() if v is not None)
    if "instance" not in merged:
        raise ValueError("--instance is required")
    return merged


def _solver_config(bundle: InstanceBundle, opts: dict) -> SolverConfig:
    overrides = {f.name: opts[f.name] for f in dataclasses.fields(SolverConfig)
                 if f.name in opts}
    return dataclasses.replace(bundle.solver_defaults, **overrides)


def _pick_set(bundle: InstanceBundle, names: str | None):
    if not names:
        return bundle.sample_sets[bundle.default_set]
    parts = [p.strip() for p in names.split(",") if p.strip()]
    sets = []
    for p in parts:
        if p not in bundle.sample_sets:
            known = ", ".join(sorted(bundle.sample_sets))
            raise KeyError(f"unknown sample set {p!r}; known: {known}")
        sets.append(bundle.sample_sets[p])
    if len(sets) == 1:
        return sets[0]
    return merge(sets, label="+".join(parts))


def _report_chain(run, set_value: float, gate: bool = True, closed: bool = True) -> bool:
    """Print realized cost <= lookahead value at x0 <= set value at x0; the
    slack scales with the finite terms only. A run that ended at x0 has no
    lookahead and checks realized <= recorded. An unclosed run's realized
    cost is truncated, so it can fail the chain but never pass it: a chain
    that holds reads UNCLOSED, and the return value counts only a FAIL."""
    total = run.total_cost
    first = run.per_step_values[0] if run.per_step_values else set_value
    shown = f"{first:.6f}" if run.per_step_values else "n/a"
    slack = CHAIN_SLACK * max([1.0] + [abs(v) for v in (first, set_value)
                                       if math.isfinite(v)])
    ok = total <= first + slack and first <= set_value + slack
    verdict = ("PASS" if closed else "UNCLOSED") if ok else "FAIL"
    if not gate:
        verdict = "not gated after disturbance"
    print(f"improvement chain: realized {total:.6f} <= lookahead {shown} "
          f"<= certified {set_value:.6f} : {verdict}")
    return ok


def _check_counts(opts: dict, **ranges) -> None:
    """Reject a count outside [low, high), from a flag or the config file."""
    for key, (low, high) in ranges.items():
        v = opts.get(key, low)
        if type(v) is not int or not low <= v < high:
            raise ValueError(f"{key} must be an integer in [{low}, {high}), got {v!r}")


def _write_artifacts(run, bundle, x0, out_dir: str, tag: str, summary: str | None):
    os.makedirs(out_dir, exist_ok=True)
    run_path = os.path.join(out_dir, f"{tag}.json")
    csv_path = os.path.join(out_dir, f"{tag}.csv")
    write_json(run_to_doc(run), run_path)
    write_text(trajectory_to_csv(run.trajectory), csv_path)
    append_summary(summary or os.path.join(out_dir, "summary.csv"),
                   summary_row(run, bundle.name, x0))
    print(f"wrote {run_path}")
    print(f"wrote {csv_path}")


def _same_form(x, start) -> bool:
    """Whether a parsed state x has start's form: a vector of its shape, or
    tuples nested and sized alike down to leaves of the same type."""
    if isinstance(start, np.ndarray):
        return isinstance(x, np.ndarray) and x.shape == start.shape
    if isinstance(start, tuple):
        return isinstance(x, tuple) and len(x) == len(start) and all(map(_same_form, x, start))
    return type(x) is type(start)


VARIANTS = ("basic", "multi-policy", "augmented", "multiagent", "classical-mpc",
            "disturbance")
# the variants that read each option only some of them take; run rejects the
# option, from a flag or the config file, on any other variant
_READ_BY = {
    "set": ("basic", "multi-policy", "multiagent", "disturbance"),
    "budget": ("augmented",),
    "sweeps": ("multiagent",),
    "disturb": ("disturbance",),
    "disturb_step": ("disturbance",),
    "mpc_horizon": ("classical-mpc",),
}


def _run_variant(bundle: InstanceBundle, variant: str, x0, cfg: SolverConfig, horizon: int,
                 opts: dict):
    """One run of a variant from x0; opts holds the flags it reads. Every
    rollout variant is run_rollout on its own problem, set, start and bump;
    classical-mpc is the receding-horizon baseline, whose opts win over the
    instance's MPC notes."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    for key, readers in _READ_BY.items():
        if key in opts and variant not in readers:
            raise ValueError(f"--variant {variant} takes no --{key.replace('_', '-')}")
    problem, names, bump = bundle.problem, opts.get("set"), None
    policy = next(iter(bundle.base_policies.values()))
    if variant == "classical-mpc":
        notes = bundle.notes
        mpc_cfg = dataclasses.replace(
            cfg, ell=opts.get("mpc_horizon", opts.get("ell", notes.get("mpc_ell", cfg.ell))),
            mode_cap=opts.get("mode_cap", notes.get("mpc_mode_cap", cfg.mode_cap)))
        return run_classical_mpc(problem, x0, mpc_cfg, horizon,
                                 terminal=notes.get("mpc_terminal", "origin"),
                                 terminal_quadratic=bundle.mpc_quadratic, base_policy=policy)
    if variant == "multiagent":
        if bundle.partition is None:
            raise ValueError(f"{bundle.name} has no agent partition")
        return run_multiagent(problem, _pick_set(bundle, names), x0, cfg, horizon,
                              bundle.partition, policy, sweeps=opts.get("sweeps", 2))
    if variant == "augmented":
        if bundle.augmented_problem is None:
            raise ValueError(f"{bundle.name} has no budget augmentation")
        cap = float(opts.get("budget", bundle.budget_spec.e_max))
        if not cap >= 0.0:  # NaN fails too; inf is a budget that never binds
            raise ValueError(f"budget must be nonnegative or inf, got {cap!r}")
        problem, sset = bundle.augmented_problem, bundle.augmented_sets["budget"]
        x0 = AugmentedState(np.asarray(x0, dtype=float), cap)
    else:
        if variant == "multi-policy" and not names:
            if "merged" not in bundle.sample_sets:
                raise ValueError("multi-policy needs --set naming the sets to merge")
            names = "merged"
        if variant == "disturbance":
            if not is_vector_state(x0):
                raise ValueError(f"the disturbance variant needs a vector start state, "
                                 f"got {x0!r}")
            shift, step = _parse_x0(opts.get("disturb", "0.5,-0.5")), opts.get("disturb_step", 3)
            if not (isinstance(shift, np.ndarray) and shift.shape == np.shape(x0)):
                raise ValueError(f"disturb must be a finite vector of x0's shape "
                                 f"{np.shape(x0)}, got {shift!r}")

            def bump(t, x):
                return x + shift if t == step else x
        sset = _pick_set(bundle, names)
    return run_rollout(problem, sset, x0, cfg, horizon, base_policy=policy,
                       disturbance=bump, variant=variant)


def cmd_run(args: argparse.Namespace) -> int:
    opts = _merge_config(args)
    bundle = make_instance(opts["instance"])
    _check_counts(opts, horizon=(1, math.inf), sweeps=(0, math.inf), ell=(1, math.inf),
                  mode_cap=(1, math.inf), mpc_horizon=(1, math.inf), disturb_step=(0, math.inf),
                  start_index=(0, len(bundle.start_states)))
    variant = opts.get("variant", "basic")

    if opts.get("x0") is not None:
        x0, start = _parse_x0(opts["x0"]), bundle.start_states[0]
        if not _same_form(x0, start):
            want = (f"be a finite vector of the start state's shape {start.shape}"
                    if isinstance(start, np.ndarray) else f"have the start state's form {start!r}")
            raise ValueError(f"x0 must {want}, got {opts['x0']!r}")
    else:
        x0 = bundle.start_states[opts.get("start_index", 0)]

    out_dir = opts.get("out_dir", os.path.join("runs", bundle.name))
    tag = f"{variant}-{opts.get('start_index', 0)}" if opts.get("x0") is None \
        else f"{variant}-custom"
    run = _run_variant(bundle, variant, x0, _solver_config(bundle, opts),
                       opts.get("horizon", 200), opts)

    print(f"instance={bundle.name} variant={variant} x0={x0!r}")
    print(f"status={run.status} steps={run.steps} total_cost={run.total_cost:.6f}")
    if "optimal_tour" in bundle.notes:
        print(f"tour: {run.trajectory.states[-1]}")
    set_value = run.initial_set_value
    if variant == "disturbance":
        # the improvement guarantee covers unperturbed runs only; report the
        # chain for context but do not gate the exit code on it
        _report_chain(run, set_value, gate=False)
        chain_ok = True
    else:
        chain_ok = _report_chain(run, set_value, closed=run.status != "horizon")
    _write_artifacts(run, bundle, x0, out_dir, tag, opts.get("summary"))
    if run.status == "infeasible_after_disturbance":
        print("run flagged: disturbance left the sampled region", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK if chain_ok else EXIT_PROPERTY


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _merge_config(args)
    _check_counts(opts, samples=(1, math.inf), seed=(0, math.inf))
    bundle = make_instance(opts["instance"])
    policies = {p.id: p for p in bundle.base_policies.values()}

    if opts.get("set_file"):
        sset = sample_set_from_doc(read_json(opts["set_file"]),
                                   problem=bundle.problem, policies=policies)
    else:
        name = opts.get("set", bundle.default_set)
        pool = dict(bundle.sample_sets)
        if bundle.augmented_sets:
            pool.update(bundle.augmented_sets)
        if name not in pool:
            raise KeyError(f"unknown sample set {name!r}; known: {', '.join(sorted(pool))}")
        sset = pool[name]

    rng = np.random.default_rng(opts.get("seed", 0))
    for passed, line, failures in sset.verify(bundle.problem, policies, rng,
                                              opts.get("samples", 200)):
        if line:
            print(line)
        for msg in failures:
            print(msg, file=sys.stderr)
        if not passed:
            return EXIT_PROPERTY
    return EXIT_OK


TRUNCATED_NOTE = "* the run ended at the horizon: its cost is truncated"


def _fmt(v) -> str:
    return "" if v is None else f"{v:.4f}"


def _fmt_run(run) -> str:
    """A run's total cost, marked "*" if the run ended at the horizon."""
    if run is None:
        return ""
    return _fmt(run.total_cost) + ("*" if run.status == "horizon" else "")


def _start_label(x0) -> str:
    """A start's table label: its coordinates, its token, or "start"."""
    if isinstance(x0, np.ndarray):
        return ",".join(f"{c:g}" for c in x0.ravel())
    return x0 if isinstance(x0, str) else "start"


def _table_rows(bundle: InstanceBundle, horizon: int):
    """(x0 label, base cost, rollout run, baseline run) rows for one instance.

    Each start is rolled out, as `run` would, on the default set and on
    every merged set; bundles with an agent partition roll out agent by
    agent, and bundles whose notes name an MPC terminal also get the
    classical baseline, once per start.
    """
    cfg = bundle.solver_defaults
    variant = "multiagent" if bundle.partition is not None else "basic"
    names = [bundle.default_set] + [n for n in bundle.sample_sets if n.startswith("merged")]
    rows = []
    for x0 in bundle.start_states:
        base = bundle.sample_sets[bundle.default_set].terminal_cost(x0)
        mpc = (_run_variant(bundle, "classical-mpc", x0, cfg, horizon, {})
               if "mpc_terminal" in bundle.notes else None)
        for name in names:
            run = _run_variant(bundle, variant, x0, cfg, horizon, {"set": name})
            label = _start_label(x0) + (f" [{name}]" if len(names) > 1 else "")
            rows.append((label, base, run, mpc))
    return rows


def cmd_table(args: argparse.Namespace) -> int:
    opts = _merge_config(args)
    _check_counts(opts, horizon=(1, math.inf))
    bundle = make_instance(opts["instance"])
    rows = _table_rows(bundle, opts.get("horizon", 200))

    header = ("instance", "x0", "base_cost", "rollout_cost", "baseline_mpc_cost")
    cells = [[bundle.name, label, _fmt(b), _fmt_run(r), _fmt_run(m)]
             for label, b, r, m in rows]
    notes = [TRUNCATED_NOTE] if any(v.endswith("*") for c in cells for v in c[3:]) else []
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    text = "\n".join(lines + notes) + "\n"

    # artifacts first, so a closed stdout pipe cannot skip them
    out_dir = opts.get("out_dir", os.path.join("runs", bundle.name))
    os.makedirs(out_dir, exist_ok=True)
    csv_text = io.StringIO()
    csv.writer(csv_text, lineterminator="\n").writerows([header, *cells])
    csv_text.writelines(n + "\n" for n in notes)
    write_text(csv_text.getvalue(), os.path.join(out_dir, "table.csv"))
    write_text(text, os.path.join(out_dir, "table.txt"))
    print(text, end="")
    print(f"wrote {os.path.join(out_dir, 'table.csv')}")
    return EXIT_OK


def cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(INSTANCES):
        bundle = make_instance(name)
        sets = sorted(bundle.sample_sets)
        if bundle.augmented_sets:
            sets += [f"{s} (augmented)" for s in sorted(bundle.augmented_sets)]
        print(f"{name}")
        print(f"  policies: {', '.join(sorted(bundle.base_policies))}")
        print(f"  sample sets: {', '.join(sets)}")
        print(f"  starts: {', '.join(repr(s) for s in bundle.start_states)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit EXIT_PROPERTY, the code for bad
    input, rather than argparse's 2, which means an infeasible run here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PROPERTY, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ddrollout", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--instance", help="instance name (aliases accepted)")
        sp.add_argument("--config", help="JSON config file; flags override")

    run = sub.add_parser("run", help="execute one rollout experiment")
    add_common(run)
    run.add_argument("--variant", choices=VARIANTS)
    run.add_argument("--x0", help="initial state: '1,1', 'A', or JSON")
    run.add_argument("--start-index", type=int, dest="start_index")
    run.add_argument("--ell", type=int)
    run.add_argument("--horizon", type=int)
    run.add_argument("--set", help="sample set name(s), comma-merged")
    run.add_argument("--sweeps", type=int)
    run.add_argument("--mpc-horizon", type=int, dest="mpc_horizon")
    run.add_argument("--mode-cap", type=int, dest="mode_cap",
                     help="most mode sequences the shooting solver may enumerate")
    run.add_argument("--budget", type=float)
    run.add_argument("--disturb-step", type=int, dest="disturb_step")
    run.add_argument("--disturb", help="disturbance vector, e.g. '0.5,-0.5'")
    run.add_argument("--out-dir", dest="out_dir")
    run.add_argument("--summary", help="summary CSV path (appended)")
    run.set_defaults(fn=cmd_run)

    ver = sub.add_parser("verify", help="check a sample set's certificates")
    add_common(ver)
    ver.add_argument("--set", help="named set from the instance")
    ver.add_argument("--set-file", dest="set_file", help="stored set JSON")
    ver.add_argument("--samples", type=int)
    ver.add_argument("--seed", type=int)
    ver.set_defaults(fn=cmd_verify)

    tab = sub.add_parser("table", help="emit the instance's summary table")
    add_common(tab)
    tab.add_argument("--horizon", type=int)
    tab.add_argument("--out-dir", dest="out_dir")
    tab.set_defaults(fn=cmd_table)

    lst = sub.add_parser("list-instances", help="list built-in instances")
    lst.set_defaults(fn=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`ddrollout ... | head`): end quietly,
        # and point stdout at devnull so the final flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (RolloutError, KeyError, ValueError) as exc:
        code, prefix = next((c, p) for kinds, c, p in _ERRORS if isinstance(exc, kinds))
        # a KeyError's str() is its repr; print the message it carries
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"{prefix}: {msg}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
