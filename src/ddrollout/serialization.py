"""Artifact files: trajectories, sample sets, runs, and solver configs.

Formats
-------
JSON documents use a small tagged codec so every value reloads to an equal
object. Plain JSON scalars (str, int, float, bool, null) stand for
themselves; everything else is a single-key dict:

    {"__vector__": [..]}        numpy float vector
    {"__tuple__": [..]}         tuple, encoded elementwise
    {"__augmented__": [b, e]}   budget-augmented state (base, remaining)
    {"__num__": "inf"}          +infinity (JSON has no literal for it)
    {"__bytes__": "<hex>"}      opaque byte keys (sample ids in reports)
    {"__map__": {..}}           dict with string keys, values encoded

Trajectory CSV is line-oriented: one metadata comment line
(`# {json}`), a header, then one row per step. When every state is a
float vector of one dimension d and every control a vector of one
dimension m, components expand into columns x0..x{d-1} / u0..u{m-1};
otherwise states and controls are JSON-encoded tokens in single columns.
The final state occupies a last row with empty control and stage-cost
cells. Both layouts round-trip.

Whole-file writes (write_text, write_json: run documents, trajectory CSVs,
tables) are atomic, a temp file renamed in the destination directory.
append_summary is not: it appends one row to the summary CSV in place, so a
write cut short can leave a partial last line. All output is
byte-deterministic: sorted keys, repr floats, no timestamps.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .budget import AugmentedState, BudgetConstraintSpec, BudgetSampleSet
from .errors import SampleSetIntegrityError
from .lookahead import SolverConfig
from .model import EPS_STATE, Trajectory
from .sample_sets import ExplicitSampleSet, SampleEntry, verify_invariance

INF = math.inf


# ---------------------------------------------------------------------------
# Value codec


def encode_value(v):
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            raise ValueError("NaN has no serialized form")
        if math.isinf(f):
            return {"__num__": "inf" if f > 0 else "-inf"}
        return f
    if isinstance(v, np.ndarray):
        if v.ndim != 1:
            raise ValueError("only 1-d arrays serialize as states/controls")
        return {"__vector__": [float(c) for c in v]}
    if isinstance(v, AugmentedState):
        return {"__augmented__": [encode_value(v.base), encode_value(float(v.info))]}
    if isinstance(v, bytes):
        return {"__bytes__": v.hex()}
    if isinstance(v, (tuple, list)):
        return {"__tuple__": [encode_value(c) for c in v]}
    if isinstance(v, dict):
        out = {}
        for k, val in v.items():
            if not isinstance(k, str) or k.startswith("__"):
                raise ValueError(f"unserializable dict key {k!r}")
            out[k] = encode_value(val)
        return {"__map__": out}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def decode_value(v):
    if v is None or isinstance(v, (str, bool, int, float)):
        return v
    if isinstance(v, dict):
        if "__num__" in v:
            return float(v["__num__"])
        if "__vector__" in v:
            return np.asarray(v["__vector__"], dtype=float)
        if "__augmented__" in v:
            base, info = v["__augmented__"]
            return AugmentedState(decode_value(base), float(decode_value(info)))
        if "__bytes__" in v:
            return bytes.fromhex(v["__bytes__"])
        if "__tuple__" in v:
            return tuple(decode_value(c) for c in v["__tuple__"])
        if "__map__" in v:
            return {k: decode_value(val) for k, val in v["__map__"].items()}
    raise ValueError(f"unrecognized serialized value {v!r}")


# ---------------------------------------------------------------------------
# Atomic writes


def write_text(text: str, path: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(doc, path: str) -> None:
    write_text(dumps_json(doc), path)


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Trajectories


def trajectory_to_doc(traj: Trajectory) -> dict:
    return {
        "format": "trajectory",
        "version": 1,
        "policy_id": traj.policy_id,
        "terminated_in_stopping_set": traj.terminated_in_stopping_set,
        "states": [encode_value(s) for s in traj.states],
        "controls": [encode_value(u) for u in traj.controls],
        "stage_costs": [encode_value(g) for g in traj.stage_costs],
        "tail_costs": (None if traj.tail_costs is None
                       else [encode_value(t) for t in traj.tail_costs]),
    }


def trajectory_from_doc(doc: dict) -> Trajectory:
    if doc.get("format") != "trajectory":
        raise ValueError(f"not a trajectory document: format={doc.get('format')!r}")
    tails = doc["tail_costs"]
    return Trajectory(
        states=tuple(decode_value(s) for s in doc["states"]),
        controls=tuple(decode_value(u) for u in doc["controls"]),
        stage_costs=tuple(float(decode_value(g)) for g in doc["stage_costs"]),
        policy_id=doc["policy_id"],
        terminated_in_stopping_set=bool(doc["terminated_in_stopping_set"]),
        tail_costs=None if tails is None else tuple(float(decode_value(t)) for t in tails),
    )


def _uniform_vector_dim(items) -> int | None:
    dims = set()
    for it in items:
        if not isinstance(it, np.ndarray) or it.ndim != 1:
            return None
        dims.add(it.size)
    return dims.pop() if len(dims) == 1 else None


def _cell(v) -> str:
    return json.dumps(encode_value(v), sort_keys=True)


def _csv_layout(traj: Trajectory):
    """A trajectory's CSV value columns, the cells of one value, and the
    control width: uniform vectors get a column per component (expanded),
    anything else one JSON cell per value (token)."""
    d = _uniform_vector_dim(traj.states)
    m = _uniform_vector_dim(traj.controls) if traj.controls else 0
    if d is not None and m is not None:
        return ([f"x{i}" for i in range(d)] + [f"u{i}" for i in range(m)],
                lambda v: [repr(float(c)) for c in v], m)
    return ["state", "control"], lambda v: [_cell(v)], 1


def trajectory_to_csv(traj: Trajectory) -> str:
    meta = {"policy_id": traj.policy_id,
            "terminated_in_stopping_set": traj.terminated_in_stopping_set,
            "has_tail_costs": traj.tail_costs is not None}
    columns, cells, m = _csv_layout(traj)
    buf = io.StringIO()
    buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step", *columns, "stage_cost", "tail_cost"])
    n = len(traj.controls)
    for k in range(n + 1):
        # the final row has a state and a tail but no control or stage cost
        step = (cells(traj.controls[k]) + [repr(float(traj.stage_costs[k]))] if k < n
                else [""] * (m + 1))
        tail = "" if traj.tail_costs is None else repr(float(traj.tail_costs[k]))
        w.writerow([str(k), *cells(traj.states[k]), *step, tail])
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("trajectory CSV must start with a metadata comment line")
    meta = json.loads(lines[0][2:])
    rows = list(csv.reader(lines[1:]))
    header, rows = rows[0], rows[1:]
    if header[1].startswith("x"):
        d, m = sum(h.startswith("x") for h in header), sum(h.startswith("u") for h in header)

        def value(cells):
            return np.asarray([float(c) for c in cells])
    else:
        d = m = 1

        def value(cells):
            return decode_value(json.loads(cells[0]))
    states, controls, stage_costs, tails = [], [], [], []
    for row in rows:
        states.append(value(row[1:1 + d]))
        if row[1 + d] != "":
            controls.append(value(row[1 + d:1 + d + m]))
            stage_costs.append(float(row[1 + d + m]))
        if meta["has_tail_costs"]:
            tails.append(float(row[-1]))
    return Trajectory(
        states=tuple(states),
        controls=tuple(controls),
        stage_costs=tuple(stage_costs),
        policy_id=meta["policy_id"],
        terminated_in_stopping_set=meta["terminated_in_stopping_set"],
        tail_costs=tuple(tails) if meta["has_tail_costs"] else None,
    )


# ---------------------------------------------------------------------------
# Sample sets


def _quadratic_usage(mat: np.ndarray):
    def usage(x, u):
        uu = np.asarray(u, dtype=float)
        return float(uu @ mat @ uu)
    return usage


def sample_set_to_doc(sset) -> dict:
    """An explicit or quadratic-usage budget set's document; TypeError otherwise."""
    if isinstance(sset, ExplicitSampleSet):
        return {
            "format": "explicit-sample-set",
            "version": 1,
            "label": sset.label,
            "eps_state": EPS_STATE,
            "analytic_tail": sset.analytic_tail,
            "policy_ids": list(sset.policy_ids),
            "entries": [{
                "state": encode_value(e.state),
                "value": encode_value(e.value),
                "policy_id": e.policy_id,
                "successor": None if e.successor is None else encode_value(e.successor),
            } for e in sset.entries()],
        }
    if not isinstance(sset, BudgetSampleSet):
        raise TypeError(f"{type(sset).__name__} is defined by code, not data; "
                        "reconstruct it from its instance in the catalog")
    spec = sset.spec
    if spec.usage_quad is None:
        raise TypeError("only quadratic usage specs serialize; "
                        "general usage callables are code, not data")
    return {
        "format": "budget-sample-set",
        "version": 1,
        "label": sset.label,
        "eps_state": EPS_STATE,
        "anchor_usage": sset.anchor_usage,
        "e_max": spec.e_max,
        "usage_quad": [[float(c) for c in row] for row in spec.usage_quad],
        "seed": trajectory_to_doc(sset.seed),
        "usages": [encode_value(u) for u in sset.usages],
        "tail_usages": [encode_value(t) for t in sset.tail_usages],
    }


def sample_set_from_doc(doc: dict, *, problem=None, policies=None):
    """Load a stored set and re-verify it (an explicit set's invariance, a
    budget set's usage ledger). Its eps_state must be EPS_STATE: membership
    has one tolerance, and a document cannot widen it."""
    fmt = doc.get("format")
    if fmt not in ("explicit-sample-set", "budget-sample-set"):
        raise ValueError(f"not a sample-set document: format={fmt!r}")
    if doc["eps_state"] != EPS_STATE:
        raise SampleSetIntegrityError(f"stored eps_state {doc['eps_state']!r} is not "
                                      f"the state tolerance {EPS_STATE!r}")
    if fmt == "explicit-sample-set":
        entries = [SampleEntry(
            state=decode_value(e["state"]),
            value=float(decode_value(e["value"])),
            policy_id=e["policy_id"],
            successor=None if e["successor"] is None else decode_value(e["successor"]),
        ) for e in doc["entries"]]
        sset = ExplicitSampleSet(entries, doc["label"], analytic_tail=doc["analytic_tail"])
        if problem is None or policies is None:
            raise ValueError("loading a set needs the problem and its policies "
                             "for re-verification")
        report = verify_invariance(problem, policies, sset)
        if not report.passed:
            v = report.violations[0]
            raise SampleSetIntegrityError(
                f"stored set fails invariance at state {v.state!r}: {v.reason}")
        return sset
    mat = np.asarray(doc["usage_quad"], dtype=float)
    spec = BudgetConstraintSpec(per_step_usage=_quadratic_usage(mat),
                                e_max=float(doc["e_max"]), usage_quad=mat)
    seed = trajectory_from_doc(doc["seed"])
    usages = tuple(float(decode_value(u)) for u in doc["usages"])
    tails = tuple(float(decode_value(t)) for t in doc["tail_usages"])
    sset = BudgetSampleSet(seed, spec, usages=usages, tail_usages=tails,
                           label=doc["label"], anchor_usage=float(doc["anchor_usage"]))
    sset.reverify()
    return sset


# ---------------------------------------------------------------------------
# Rollout runs


def config_to_dict(cfg: SolverConfig) -> dict:
    import dataclasses
    return dataclasses.asdict(cfg)


# fields of earlier SolverConfig versions; stored runs still carry them
_RETIRED_CONFIG_FIELDS = frozenset({"seed", "workers", "node_cap", "diagnostics",
                                   "penalty_init", "penalty_growth", "penalty_max",
                                   "eps_tail", "max_iters", "eps_term", "backend"})


def config_from_dict(d: dict) -> SolverConfig:
    import dataclasses
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    extra = set(d) - known - _RETIRED_CONFIG_FIELDS
    if extra:
        raise ValueError(f"unknown solver config fields: {sorted(extra)}")
    return SolverConfig(**{k: v for k, v in d.items() if k in known})


def run_to_doc(run) -> dict:
    return {
        "format": "rollout-run",
        "version": 1,
        "variant": run.variant,
        "status": run.status,
        "total_cost": encode_value(run.total_cost),
        "closing_tail": encode_value(run.closing_tail),
        "initial_set_value": encode_value(run.initial_set_value),
        "per_step_values": [encode_value(v) for v in run.per_step_values],
        "config": config_to_dict(run.config),
        "trajectory": trajectory_to_doc(run.trajectory),
        "solver_reports": [encode_value({**r, **w}) for r, w in
                           itertools.zip_longest(run.solver_reports, run.work, fillvalue={})],
    }


def run_from_doc(doc: dict):
    from .engine import WORK_KEYS, RolloutRun
    if doc.get("format") != "rollout-run":
        raise ValueError(f"not a rollout-run document: format={doc.get('format')!r}")
    reports = [decode_value(r) for r in doc["solver_reports"]]
    work = tuple({k: r.pop(k) for k in WORK_KEYS if k in r} for r in reports)
    return RolloutRun(
        trajectory=trajectory_from_doc(doc["trajectory"]),
        per_step_values=tuple(decode_value(v) for v in doc["per_step_values"]),
        solver_reports=tuple(reports),
        config=config_from_dict(doc["config"]),
        status=doc["status"],
        closing_tail=float(decode_value(doc["closing_tail"])),
        variant=doc["variant"],
        initial_set_value=float(decode_value(doc["initial_set_value"])),
        work=work,
    )


SUMMARY_HEADER = ("instance", "x0", "ell", "total_cost",
                  "lookahead_value", "set_value", "steps", "status")


def summary_row(run, instance: str, x0) -> tuple:
    first = run.per_step_values[0] if run.per_step_values else ""
    return (
        instance,
        json.dumps(encode_value(x0), sort_keys=True),
        str(run.config.ell),
        repr(float(run.total_cost)),
        repr(float(first)) if first != "" else "",
        repr(float(run.initial_set_value)),
        str(run.steps),
        run.status,
    )


def append_summary(path: str, row: tuple) -> None:
    new = not os.path.exists(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    with open(path, "a", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        if new:
            w.writerow(SUMMARY_HEADER)
        w.writerow(row)
