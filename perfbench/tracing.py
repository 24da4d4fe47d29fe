"""Outside-in layer trace for the benchmark.

Spans are recorded around calls into each ddrollout layer by replacing the
layer's public names with wrappers for the duration of a traced pass and
putting the originals back afterwards. Nothing under src/ddrollout is
changed. Each span records its name, start, end, parent span and job id;
spans stay in memory and are written out when the benchmark ends.

Calls that happen hundreds of thousands of times per pass (the problem's
callables, terminal-set pricing) are counted and timed per name instead of
being stored one by one. They still take part in their parents' self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import time
from typing import NamedTuple

from ddrollout import budget, catalog, engine, lookahead, sample_sets, serialization, shooting


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None   # index of the enclosing stored span
    job: str | None
    self_ns: int         # duration minus the part its child spans cover


class Tracer:
    """Span recorder for one traced pass (or one traced set-up)."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.leaves: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.job: str | None = None
        self._open: list[list] = []              # [span index or None, name, start, child_ns]

    def _push(self, name: str, keep: bool) -> list:
        idx = None
        if keep:
            idx = len(self.spans)
            self.spans.append(None)
        frame = [idx, name, 0, 0]
        self._open.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._open.pop()
        idx, name, start, child = frame
        dur = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += dur
        if idx is not None:
            self.spans[idx] = Span(name, start, end, parent[0] if parent else None,
                                   self.job, dur - child)
        else:
            cell = self.leaves.setdefault(name, [0, 0, 0])
            cell[0] += 1
            cell[1] += dur
            cell[2] += dur - child

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        if job is not None:
            self.job = job
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def wrap(self, name: str, fn, keep: bool = True, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if observe is not None:
                observe(self, out)
            return out
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- reductions ---------------------------------------------------------

    def inclusive_s(self, name: str) -> float:
        """Time inside spans of this name, not counting a span nested in one
        of the same name twice."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                total += span.end_ns - span.start_ns
        return total / 1e9

    def durations_ms(self, name: str) -> list[float]:
        return [(s.end_ns - s.start_ns) / 1e6 for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        if name in self.leaves:
            return self.leaves[name][0]
        return sum(1 for s in self.spans if s.name == name)

    def leaf_s(self, prefix: str) -> float:
        return sum(c[1] for n, c in self.leaves.items() if n.startswith(prefix)) / 1e9

    def self_s_by_layer(self) -> dict[str, float]:
        out: dict[str, int] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + s.self_ns
        for name, cell in self.leaves.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + cell[2]
        return {k: v / 1e9 for k, v in out.items()}

    def to_doc(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "leaves": {k: list(v) for k, v in self.leaves.items()},
                "counts": dict(self.counts)}


def _observe_shooting(tracer: Tracer, sol) -> None:
    diag = sol.diagnostics or {}
    tracer.count("shooting.solves")
    tracer.count("shooting.candidates", int(diag.get("candidates", 0)))
    tracer.count("shooting.winner_iterations", int(diag.get("iterations", 0)))
    if not diag.get("converged", True):
        tracer.count("shooting.unconverged")


_SETUP_NAMES = (
    (catalog, "make_instance", "catalog.make_instance"),
    # catalog calls sample_sets' and budget's set constructors by these names
    (catalog, "build_from_trajectory", "sample_sets.build"),
    (catalog, "merge", "sample_sets.build"),
    (catalog, "augment_sample_set", "sample_sets.build"),
)

_PASS_NAMES = (
    (engine, "run_rollout", "engine.run_rollout"),
    (engine, "run_multiagent", "engine.run_multiagent"),
    (engine, "run_classical_mpc", "engine.run_classical_mpc"),
    (engine, "solve", "lookahead.solve"),
    (lookahead, "solve_discrete", "lookahead.discrete"),
    (serialization, "run_to_doc", "serialization.write"),
    (serialization, "write_json", "serialization.write"),
    (serialization, "trajectory_to_csv", "serialization.write"),
    (serialization, "write_text", "serialization.write"),
    (serialization, "summary_row", "serialization.write"),
    (serialization, "append_summary", "serialization.write"),
    (serialization, "read_json", "serialization.readback"),
    (serialization, "run_from_doc", "serialization.readback"),
    (serialization, "trajectory_from_csv", "serialization.readback"),
)

# terminal-set pricing, patched on the classes so sets built inside the
# engine (the classical-MPC origin set) are counted too
_LEAF_METHODS = (
    (sample_sets.ExplicitSampleSet, "terminal_cost", "sample_sets.terminal_cost"),
    (sample_sets.AnalyticSampleSet, "terminal_cost", "sample_sets.terminal_cost"),
    (budget.BudgetSampleSet, "terminal_cost", "budget.terminal_cost"),
)


@contextlib.contextmanager
def _patched(replacements):
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def instrument_setup(tracer: Tracer):
    """Wrap instance construction and sample-set building."""
    return _patched([(owner, attr, tracer.wrap(name, vars(owner)[attr]))
                     for owner, attr, name in _SETUP_NAMES])


def instrument_pass(tracer: Tracer):
    """Wrap the engine, lookahead, shooting, terminal-set and serialization
    entry points for one pass."""
    reps = [(owner, attr, tracer.wrap(name, vars(owner)[attr]))
            for owner, attr, name in _PASS_NAMES]
    reps.append((shooting, "solve_continuous",
                 tracer.wrap("shooting.solve", vars(shooting)["solve_continuous"],
                             observe=_observe_shooting)))
    reps += [(owner, attr, tracer.wrap(name, vars(owner)[attr], keep=False))
             for owner, attr, name in _LEAF_METHODS]
    return _patched(reps)


def traced_bundle(bundle, tracer: Tracer):
    """The bundle with its problems' callables wrapped as the model layer."""

    def wrap_problem(p):
        if p is None:
            return None
        fields = {"dynamics": p.dynamics, "stage_cost": p.stage_cost,
                  "control_set": p.control_set,
                  "stopping_predicate": p.stopping_predicate}
        return dataclasses.replace(p, **{
            k: tracer.wrap(f"model.{k}", fn, keep=False)
            for k, fn in fields.items() if fn is not None})

    return dataclasses.replace(bundle, problem=wrap_problem(bundle.problem),
                               augmented_problem=wrap_problem(bundle.augmented_problem))


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) within the observed range."""
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
