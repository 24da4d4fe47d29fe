"""Multistep lookahead with a sample-set terminal constraint.

The l-step problem from x minimizes

    sum_{k<l} g(x_k, u_k) + terminal(x_l)

where terminal() is the sample set's recorded cost (+inf off the set).
solve() picks the solver from the problem itself: a problem with
piecewise-linear structure (problem.pl) goes to the shooting module, any
other is solved exactly by memoized enumeration of its finite controls.
The enumeration meets each state at up to l + 1 depths. It computes the
state's feasible moves (control, stage cost, successor) on the first
expansion only, into a transition table that every later expansion reads,
so stage_cost and dynamics run once per (state, control) pair. A control
map that reads the step, as the agent-by-agent search's does, tables a
state's moves per control set instead, in a dict that every search of one
rollout shares (engine.run_multiagent).

Much of a solve does not depend on the state it starts from: the value of
(state, depth) and each state's transition table in the enumeration, and
each mode sequence's KKT maps in shooting. A caller that solves the same
problem, set and config many times (engine.run_rollout, once per step)
passes one memo dict to every solve, and that work is done once; without a
memo each solve starts afresh.
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


class _Search:
    """Memoized exact minimization over a finite control map.

    best(state, depth) is the best depth-step plan from state as (value,
    controls, terminal state, terminal sample id). Values are computed with
    right-associated additions so a later replay of the returned plan
    reproduces them bit for bit. Among minimizing plans the one deferring
    the least cost wins (smallest continuation value, so free self-loops
    cannot postpone progress forever), then the earliest in sorted control
    order.

    The memo holds three kinds of entry, under keys that cannot collide: a
    node's result under (state key, depth); a state's transition table
    under (state key, None), its feasible moves (u, g, next state, next key)
    in sorted control order, moves priced +inf left out; and under (state
    key,) the first state object seen with that key, which every table
    holds as that successor. A state's table is built on its first
    expansion and read at every later one, at any depth and in any later
    solve sharing the memo, so memo may only come from earlier solves whose
    control map gave the same controls at every state. controls_at(state,
    step) may read the step only if a tables dict is passed: the search then
    asks for the control set at every expansion and keeps a state's moves,
    and its successors' first objects, in tables under (state key, sorted
    control tuple). Those depend on nothing but the problem, so searches
    with different control maps may share tables, while each keeps its own
    node results in memo. Expanding more than NODE_CAP nodes (memo misses)
    raises SearchSpaceError.

    Nothing here refers back to the search, so a finished search and its
    memo are freed as soon as the last reference to them goes.
    """

    def __init__(self, problem: ProblemDef, sset, ell: int, controls_at: Callable,
                 memo: dict | None = None, tables: dict | None = None):
        self.problem, self.sset, self.ell, self.controls_at = problem, sset, ell, controls_at
        self.memo = {} if memo is None else memo
        self.tables = self.memo if tables is None else tables
        self.expanded = 0

    def best(self, state, depth: int) -> tuple:
        skey = state_key(state)
        hit = self.memo.get((skey, depth))
        return self._rec(state, skey, depth) if hit is None else hit

    def _moves(self, state, skey, step: int) -> tuple:
        tables = self.tables
        ctrls = None if tables is self.memo else _sorted_controls(self.controls_at(state, step))
        moves = tables.get((skey, ctrls))
        if moves is None:
            problem, out = self.problem, []
            for u in ctrls or _sorted_controls(self.controls_at(state, step)):
                g = problem.stage_cost(state, u)
                if g == INF:
                    continue
                nxt = problem.dynamics(state, u)
                nkey = state_key(nxt)
                out.append((u, g, tables.setdefault((nkey,), nxt), nkey))
            moves = tables[(skey, ctrls)] = tuple(out)
        return moves

    def _rec(self, state, skey, depth_left: int) -> tuple:
        """Expand a node the memo does not hold yet."""
        memo = self.memo
        self.expanded += 1
        if self.expanded > NODE_CAP:
            raise SearchSpaceError(f"discrete search expanded more than "
                                   f"NODE_CAP={NODE_CAP} nodes")
        if depth_left == 0:
            sset = self.sset
            v = sset.terminal_cost(state)
            out = (v, (), state, sset.sample_id(state)) if v < INF else (v, (), None, None)
            memo[(skey, 0)] = out
            return out
        best = (INF, (), None, None)
        best_tail = INF
        below = depth_left - 1
        for u, g, nxt, nkey in self._moves(state, skey, self.ell - depth_left):
            tail = memo.get((nkey, below))
            if tail is None:
                tail = self._rec(nxt, nkey, below)
            tail_v, tail_us, term, sid = tail
            if tail_v == INF:
                continue
            v = g + tail_v
            if v < best[0] or (v == best[0] and tail_v < best_tail):
                best = (v, (u,) + tail_us, term, sid)
                best_tail = tail_v
        memo[(skey, depth_left)] = best
        return best


def solve_discrete(problem: ProblemDef, sset, x, cfg: SolverConfig,
                   memo: dict | None = None) -> LookaheadSolution:
    """Exact l-step lookahead by depth-bounded enumeration with memoization;
    memo may be shared by solves of the same problem and set."""
    search = _Search(problem, sset, cfg.ell, lambda s, k: problem.control_set(s), memo)
    value, controls, terminal, sid = search.best(x, cfg.ell)
    stages = tuple(search.best(x, k)[0] for k in range(cfg.ell + 1))
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
    search = _Search(problem, sset, ell, lambda s, k: problem.control_set(s))
    return {state_key(x): [search.best(x, k)[0] for k in range(ell + 1)] for x in states}


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

    value, controls, terminal, sid = _Search(problem, sset, cfg.ell, controls_at).best(x, cfg.ell)
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
