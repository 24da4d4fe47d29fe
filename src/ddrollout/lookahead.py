"""Multistep lookahead with a sample-set terminal constraint.

The l-step problem from x minimizes

    sum_{k<l} g(x_k, u_k) + terminal(x_l)

where terminal() is the sample set's recorded cost (+inf off the set).
solve() picks the solver from the problem itself: a problem with
piecewise-linear structure (problem.pl) goes to the shooting module, any
other is solved exactly by memoized enumeration of its finite controls.

Much of a solve does not depend on the state it starts from: the value of
(state, depth) in the enumeration, and each mode sequence's KKT maps in
shooting. A caller that solves the same problem, set and config many times
(engine.run_rollout, once per step) passes one memo dict to every solve, and
that work is done once; without a memo each solve starts afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .budget import base_view
from .costs import INF
from .errors import AssumptionViolationError, SearchSpaceError
from .model import (
    BoxControls,
    FiniteControls,
    Policy,
    ProblemDef,
    state_key,
)

NODE_CAP = 1_000_000  # most (state, depth) nodes one discrete solve may expand


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters that callers choose per run."""

    ell: int = 1
    mode_cap: int = 128  # shooting: most mode sequences it may enumerate

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("lookahead depth must be at least 1")
        if self.mode_cap < 1:
            raise ValueError("mode_cap must be at least 1")


@dataclass(frozen=True)
class LookaheadSolution:
    """An l-step control plan with its achieved value.

    value is the exact objective of the plan: stage costs accumulated
    right-to-left plus the terminal set's cost of its final state. An infeasible
    problem is reported as value +inf with an empty plan.
    """

    controls: tuple
    terminal_state: object | None
    value: float
    terminal_sample_id: object | None = None
    per_stage_values: tuple | None = None
    diagnostics: dict | None = None

    def recompute(self, problem: ProblemDef, sset, x) -> float:
        """Re-evaluate the plan's objective from scratch (for audits)."""
        if self.value == INF:
            return INF
        return replay(problem, x, self.controls, sset.terminal_cost)[0]


def replay(problem: ProblemDef, x, controls, terminal: Callable) -> tuple[float, list, list]:
    """Exact objective of a concrete plan from x, with the states it visits
    and its stage costs.

    terminal prices the final state. Stage costs are added right to left as
    g + total, the association the discrete search uses, so replaying one
    of its plans reproduces the value bit for bit.
    """
    states = [x]
    for u in controls:
        states.append(problem.dynamics(states[-1], u))
    costs = [problem.stage_cost(s, u) for s, u in zip(states, controls)]
    total = terminal(states[-1])
    for g in reversed(costs):
        total = g + total
    return total, states, costs


def base_plan(problem: ProblemDef, policy: Policy, x, ell: int) -> tuple | None:
    """The base policy's ell-step plan from x; None if a step is infeasible."""
    plan = []
    cur = x
    for _ in range(ell):
        u = policy.action(base_view(cur))
        if problem.stage_cost(cur, u) == INF:
            return None
        plan.append(u)
        cur = problem.dynamics(cur, u)
    return tuple(plan)


def _sorted_controls(spec) -> tuple:
    if isinstance(spec, BoxControls):
        raise ValueError("discrete backend requires finite control sets")
    if not isinstance(spec, FiniteControls):
        raise TypeError(f"unsupported control set {spec!r}")
    if not spec.controls:
        raise ValueError("control set must be nonempty")
    return tuple(sorted(spec.controls))


def _discrete_minimize(problem: ProblemDef, sset, ell: int, controls_at: Callable,
                       memo: dict | None = None) -> tuple[dict, Callable]:
    """Memoized exact minimization; returns the memo and the recursion.

    Values are computed with right-associated additions so a later
    replay of the returned plan reproduces them bit for bit. Among
    minimizing plans the one deferring the least cost wins (smallest
    continuation value, so free self-loops cannot postpone progress
    forever), then the earliest in sorted control order. memo may come from
    earlier solves whose control map gave the same controls at every
    (state, depth). Expanding more than NODE_CAP nodes (memo misses) raises
    SearchSpaceError.
    """
    memo = {} if memo is None else memo
    expanded = 0

    def rec(state, depth_left: int):
        nonlocal expanded
        key = (state_key(state), depth_left)
        hit = memo.get(key)
        if hit is not None:
            return hit
        expanded += 1
        if expanded > NODE_CAP:
            raise SearchSpaceError(f"discrete search expanded more than "
                                   f"NODE_CAP={NODE_CAP} nodes")
        if depth_left == 0:
            v = sset.terminal_cost(state)
            out = (v, (), state if v < INF else None, sset.sample_id(state) if v < INF else None)
            memo[key] = out
            return out
        step = ell - depth_left
        best = (INF, (), None, None)
        best_tail = INF
        for u in _sorted_controls(controls_at(state, step)):
            g = problem.stage_cost(state, u)
            if g == INF:
                continue
            tail_v, tail_us, term, sid = rec(problem.dynamics(state, u), depth_left - 1)
            if tail_v == INF:
                continue
            v = g + tail_v
            if v < best[0] or (v == best[0] and tail_v < best_tail):
                best = (v, (u,) + tail_us, term, sid)
                best_tail = tail_v
        memo[key] = best
        return best

    return memo, rec


def solve_discrete(problem: ProblemDef, sset, x, cfg: SolverConfig,
                   memo: dict | None = None) -> LookaheadSolution:
    """Exact l-step lookahead by depth-bounded enumeration with memoization;
    memo may be shared by solves of the same problem and set."""
    _, rec = _discrete_minimize(problem, sset, cfg.ell,
                                lambda s, k: problem.control_set(s), memo)
    value, controls, terminal, sid = rec(x, cfg.ell)
    stages = tuple(rec(x, k)[0] for k in range(cfg.ell + 1))
    return LookaheadSolution(
        controls=controls,
        terminal_state=terminal,
        value=value,
        terminal_sample_id=sid,
        per_stage_values=stages,
    )


def vi_sequence(problem: ProblemDef, sset, states: Iterable, ell: int) -> dict:
    """Value-iteration iterates J_0..J_ell at the given states.

    J_0 is the sample set's terminal cost and J_k the k-step lookahead
    value, all computed from one shared memo table.
    """
    _, rec = _discrete_minimize(problem, sset, ell, lambda s, k: problem.control_set(s))
    return {state_key(x): [rec(x, k)[0] for k in range(ell + 1)] for x in states}


def solve_restricted(problem: ProblemDef, sset, x, restricted_controls: Callable,
                     cfg: SolverConfig, policy: Policy | None = None) -> LookaheadSolution:
    """Lookahead over a restricted control set Ubar(x) <= U(x).

    When the base policy is supplied, every member state visited by the
    search must keep its base action inside Ubar; a violation raises, since
    the improvement guarantee depends on it.
    """

    def controls_at(state, step):
        spec = restricted_controls(state)
        if policy is not None and sset.contains(state):
            if not spec.contains(policy.action(state)):
                raise AssumptionViolationError(state, policy.action(state))
        return spec

    _, rec = _discrete_minimize(problem, sset, cfg.ell, controls_at)
    value, controls, terminal, sid = rec(x, cfg.ell)
    return LookaheadSolution(controls=controls, terminal_state=terminal,
                             value=value, terminal_sample_id=sid)


def solve(problem: ProblemDef, sset, x, cfg: SolverConfig,
          seeds: Sequence = (), base_policy: Policy | None = None,
          memo: dict | None = None) -> LookaheadSolution:
    """Shooting for piecewise-linear problems, exact enumeration otherwise;
    only shooting reads seeds and base_policy. memo, when given, must only
    ever be passed with this problem, sset and cfg (see the module doc)."""
    if problem.pl is None:
        return solve_discrete(problem, sset, x, cfg, memo=memo)
    from .shooting import solve_continuous

    return solve_continuous(problem, sset, x, cfg, seeds=seeds, base_policy=base_policy,
                            memo=memo)
