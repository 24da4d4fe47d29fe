"""Sample sets: recorded base-policy states with exact costs-to-go.

A sample set plays two roles in lookahead: it is the terminal constraint
(terminal states must be members) and the terminal cost (each member carries
the recorded cost of finishing the job with its base policy). Explicit sets
store finitely many sampled states; analytic sets describe infinitely many
members through a predicate and an evaluator.

Every terminal set, including the budget-augmented set and the free
terminal of the classical baseline, answers one protocol:

    contains(x), terminal_cost(x)   membership and the recorded cost
    sample_id(x)                    the sample certifying x, or None
    shooting_targets(x)             the Targets the shooting backend solves toward
    policy_ids                      the certifying base policies; () if none

terminal_cost is the one price of a plan's final state: every backend
hands a plan's terminal state to it, so a plan earns a recorded value
only by ending within model.EPS_STATE of a member.

Sets holding recorded data also answer verify(problem, policies, rng,
samples): their certificate checks in order, each yielded as (passed,
report line, failure lines); a check runs only if the caller continues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .costs import INF, ensure_cost
from .errors import UnusableTrajectoryError
from .model import (
    EPS_STATE,
    Policy,
    ProblemDef,
    Trajectory,
    check_fixed_point,
    check_upper_bound,
    is_vector_state,
    state_key,
    states_equal,
)


@dataclass(frozen=True)
class SampleEntry:
    """One sampled state with its recorded cost-to-go.

    successor is the next state under the policy that produced the entry;
    it is None only on the frontier of an analytically-tailed recording.
    """

    state: object
    value: float
    policy_id: str
    successor: object | None = None


@dataclass(frozen=True)
class Targets:
    """A terminal set's targets for the shooting backend: T targets pinned
    to states (T x d) at their recorded values (T), with radii (T, or None)
    bounding each plan's control norm by the budget left after the sample's
    tail, or one free target (states and radii None) that leaves the
    terminal free under the quadratic cost quad (zero when None). Either way
    the solved plan is priced by the set's terminal_cost."""

    values: np.ndarray
    states: np.ndarray | None = None
    radii: np.ndarray | None = None
    quad: np.ndarray | None = None


class GridIndex:
    """Positions of states, found by tolerance. Vector states are hashed
    into cubes of side EPS_STATE, so every state within EPS_STATE of a query
    (infinity norm) lies in its cube or a neighbouring one; other states by
    exact key."""

    def __init__(self):
        self._cells: dict = {}

    def _cell(self, x) -> tuple:
        return tuple(math.floor(c / EPS_STATE) for c in x.tolist())

    def add(self, x, idx: int) -> None:
        key = self._cell(x) if is_vector_state(x) else state_key(x)
        self._cells.setdefault(key, []).append(idx)

    def near(self, x) -> list:
        """Positions of the added states that may match x."""
        if not is_vector_state(x):
            return self._cells.get(state_key(x), [])
        try:
            home = self._cell(x)
        except OverflowError:  # a component past every cell add() can index
            return []
        return [i for cell in itertools.product(*((c - 1, c, c + 1) for c in home))
                for i in self._cells.get(cell, ())]


class ExplicitSampleSet:
    """A finite sample set with tolerance-aware membership lookup.

    Vector states are indexed by a spatial grid hash at the state-equality
    resolution so lookups stay O(1); token states use exact keys.
    """

    def __init__(self, entries: Iterable[SampleEntry], label: str, *,
                 analytic_tail: bool = False):
        self.label = label
        self.analytic_tail = analytic_tail
        self._entries: list[SampleEntry] = []
        self._by_key: dict = {}
        self._grid = GridIndex()
        self._targets = None
        for e in entries:
            self._add(e)
        if not self._entries:
            raise ValueError("sample set must contain at least one entry")

    # construction helpers -------------------------------------------------

    def _add(self, e: SampleEntry) -> None:
        key = state_key(e.state)
        if key in self._by_key:
            raise ValueError(f"duplicate sample state {e.state!r}")
        self._by_key[key] = len(self._entries)
        if is_vector_state(e.state):
            self._grid.add(e.state, len(self._entries))
        self._entries.append(e)

    # queries --------------------------------------------------------------

    def entries(self) -> tuple:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def policy_ids(self) -> tuple:
        seen = []
        for e in self._entries:
            if e.policy_id not in seen:
                seen.append(e.policy_id)
        return tuple(seen)

    def lookup(self, x) -> SampleEntry | None:
        """The entry matching x within EPS_STATE, else None; the
        earliest entry wins when several match."""
        if is_vector_state(x):
            hits = [i for i in self._grid.near(x)
                    if states_equal(self._entries[i].state, x)]
            return self._entries[min(hits)] if hits else None
        idx = self._by_key.get(state_key(x))
        return self._entries[idx] if idx is not None else None

    def contains(self, x) -> bool:
        return self.lookup(x) is not None

    def terminal_cost(self, x) -> float:
        e = self.lookup(x)
        return e.value if e is not None else INF

    def sample_id(self, x):
        e = self.lookup(x)
        return state_key(e.state) if e is not None else None

    def shooting_targets(self, x) -> Targets:
        """Every entry, pinned; built on first use as read-only arrays."""
        if self._targets is None:
            states = np.array([e.state for e in self._entries], dtype=float)
            values = np.array([e.value for e in self._entries], dtype=float)
            states.flags.writeable = values.flags.writeable = False
            self._targets = Targets(values, states)
        return self._targets

    def verify(self, problem: ProblemDef, policies, rng, samples: int):
        """Invariance, then the fixed-point (one policy) or upper-bound
        (merged policies) certificate on every member with a successor."""
        report = verify_invariance(problem, policies, self)
        yield (report.passed,
               f"invariance: PASS ({len(self)} members)" if report.passed else None,
               [f"invariance violation at {v.state!r}: {v.reason}"
                for v in report.violations[:5]])
        multi = len(self.policy_ids) > 1
        kind = "upper-bound" if multi else "fixed-point"
        failures = []
        for pid in self.policy_ids:
            pol = _policy_for(policies, pid)
            own = [e.state for e in self._entries
                   if e.policy_id == pid and e.successor is not None]
            if own:
                rep = (check_upper_bound if multi else check_fixed_point)(
                    problem, pol, self.terminal_cost, own)
                failures.extend(rep.failures)
        checked = sum(1 for e in self._entries if e.successor is not None)
        yield (not failures,
               None if failures else f"{kind}: PASS ({checked} states checked)",
               [f"{kind} violation at state {row.state!r}: residual {row.residual:.3e}"
                for row in failures[:5]])


class AnalyticSampleSet:
    """A predicate-defined sample set with an exact cost evaluator.

    quadratic, when given, is the matrix P with evaluator(x) = x' P x; the
    continuous solver uses it as a smooth terminal cost.
    """

    def __init__(self, *, label: str, policy_id: str,
                 contains_fn: Callable, value_fn: Callable,
                 sample_member: Callable, quadratic: np.ndarray | None = None):
        self.label = label
        self._policy_id = policy_id
        self._contains = contains_fn
        self._value = value_fn
        self.sample_member = sample_member  # rng -> member state
        self.quadratic = None if quadratic is None else np.asarray(quadratic, dtype=float)

    @property
    def policy_ids(self) -> tuple:
        return (self._policy_id,)

    def contains(self, x) -> bool:
        return bool(self._contains(x))

    def terminal_cost(self, x) -> float:
        return ensure_cost(self._value(x)) if self.contains(x) else INF

    def sample_id(self, x):
        return None

    def shooting_targets(self, x) -> Targets:
        if self.quadratic is None:
            raise ValueError("analytic sample set needs a quadratic evaluator for shooting")
        return Targets(np.zeros(1), quad=self.quadratic)

    def verify(self, problem: ProblemDef, policies, rng, samples: int):
        """Invariance, then the fixed-point certificate, on the same randomly
        drawn members."""
        policy = _policy_for(policies, self._policy_id)
        states = [self.sample_member(rng) for _ in range(samples)]
        failures = []
        for x in states:
            if not self.contains(x):
                failures.append(f"invariance violation at {x!r}: sampler produced a non-member")
            elif not self.contains(problem.dynamics(x, policy.action(x))):
                failures.append(f"invariance violation at {x!r}: successor not a member")
        yield (not failures,
               None if failures else f"invariance: PASS ({samples} sampled members)",
               failures[:5])
        rep = check_fixed_point(problem, policy, self.terminal_cost, states)
        yield (rep.passed,
               f"fixed-point: PASS ({samples} sampled members)" if rep.passed else None,
               [f"fixed-point violation at {row.state!r}: residual {row.residual:.3e}"
                for row in rep.failures[:5]])


class FreeTerminal:
    """Pseudo terminal set: every state admissible, smooth quadratic cost.

    Used by the classical receding-horizon baseline, where the terminal
    cost is a design choice rather than recorded data.
    """

    label = "free-terminal"

    def __init__(self, quadratic: np.ndarray | None = None):
        self.quadratic = None if quadratic is None else np.asarray(quadratic, dtype=float)

    @property
    def policy_ids(self) -> tuple:
        return ()

    def contains(self, x) -> bool:
        return True

    def terminal_cost(self, x) -> float:
        if self.quadratic is None:
            return 0.0
        v = np.asarray(x, dtype=float)
        return float(v @ self.quadratic @ v)

    def sample_id(self, x):
        return None

    def shooting_targets(self, x) -> Targets:
        return Targets(np.zeros(1), quad=self.quadratic)


def build_from_trajectory(traj: Trajectory, label: str | None = None) -> ExplicitSampleSet:
    """Turn a recorded trajectory with tail costs into an explicit sample set.

    The last state's successor is itself when the run terminated in the
    stopping set (a recorded fixed point); otherwise the successor is omitted
    and the set is flagged analytic-tailed, exempting that one frontier entry
    from structural invariance checking.
    """
    if traj.tail_costs is None:
        raise UnusableTrajectoryError("trajectory has no tail costs; cannot value its states")
    entries = []
    seen = set()
    n = len(traj.controls)
    for k, x in enumerate(traj.states):
        key = state_key(x)
        if key in seen:
            continue  # a revisited state keeps its first (larger) recorded value
        seen.add(key)
        if k < n:
            succ = traj.states[k + 1]
        elif traj.terminated_in_stopping_set:
            succ = x
        else:
            succ = None
        entries.append(SampleEntry(x, ensure_cost(traj.tail_costs[k]), traj.policy_id, succ))
    return ExplicitSampleSet(
        entries,
        label or f"samples[{traj.policy_id}]",
        analytic_tail=not traj.terminated_in_stopping_set,
    )


def merge(sets: Iterable[ExplicitSampleSet], label: str | None = None) -> ExplicitSampleSet:
    """Union of explicit sets keeping the pointwise minimum value per state.

    Value ties keep the entry from the earliest set in the argument order.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("merge needs at least one sample set")
    merged: list[SampleEntry] = []
    index: dict = {}
    for sset in sets:
        for e in sset.entries():
            key = state_key(e.state)
            if key not in index:
                index[key] = len(merged)
                merged.append(e)
            elif e.value < merged[index[key]].value:
                merged[index[key]] = e
    return ExplicitSampleSet(
        merged,
        label or "+".join(s.label for s in sets),
        analytic_tail=any(s.analytic_tail for s in sets),
    )


@dataclass(frozen=True)
class InvarianceViolation:
    state: object
    successor: object
    reason: str


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    checked: int
    violations: tuple


def _policy_for(policies, policy_id: str) -> Policy:
    if isinstance(policies, Policy):
        return policies
    if isinstance(policies, Mapping):
        if policy_id not in policies:
            raise KeyError(f"no policy supplied for id {policy_id!r}")
        return policies[policy_id]
    raise TypeError("policies must be a Policy or a mapping id -> Policy")


def verify_invariance(problem: ProblemDef, policies,
                      sset: ExplicitSampleSet) -> InvarianceReport:
    """Check that each member's successor under its own policy is a member.

    Entries are checked one by one; frontier entries of analytic-tailed
    sets carry no recorded successor and are skipped.
    """
    violations = []
    checked = 0
    for e in sset.entries():
        if e.successor is None:
            if not sset.analytic_tail:
                violations.append(InvarianceViolation(e.state, None, "missing successor"))
            continue
        pol = _policy_for(policies, e.policy_id)
        nxt = problem.dynamics(e.state, pol.action(e.state))
        checked += 1
        if not states_equal(nxt, e.successor):
            violations.append(InvarianceViolation(e.state, nxt, "recorded successor mismatch"))
        elif not sset.contains(nxt):
            violations.append(InvarianceViolation(e.state, nxt, "successor not a member"))
    return InvarianceReport(not violations, checked, tuple(violations))
