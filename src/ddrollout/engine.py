"""Rollout driving loops.

Each loop applies the first control of a fresh lookahead solve, steps the
dynamics, and repeats. Once a solve's value is at most EPS_TAIL, the plan's
exact replay ends on a sampled state at a recorded tail that small: the run
applies the whole plan and solves no more (not under a disturbance, nor
under a free terminal, which certifies nothing). Runs close out in one of
four ways: the state enters the stopping region ("stopped"), the state is
one the sample set prices at most EPS_TAIL, either on arrival or at the end
of a certified plan ("closed_in_set", the recorded tail is appended to the
cost), the horizon runs out of solves ("horizon", the cost is truncated),
or a disturbance pushes the state somewhere the solver cannot price
("infeasible_after_disturbance").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .budget import base_view
from .costs import INF, tails_from
from .errors import InfeasibleStepError, InitialInfeasibilityError
from .lookahead import (
    LookaheadSolution,
    SolverConfig,
    Walk,
    _Search,
    base_plan,
    solve,
    walk,
)
from .model import FiniteControls, Policy, ProblemDef, Trajectory, is_vector_state
from .sample_sets import ExplicitSampleSet, FreeTerminal, SampleEntry

EPS_TAIL = 1e-6  # residual tail cost that closes a rollout run
WORK_KEYS = ("nodes", "rows")  # the counts a discrete solve's diagnostics carry


@dataclass(frozen=True)
class RolloutRun:
    """Everything produced by one rollout: the realized trajectory, the
    lookahead value and solver report of each solve, and how the run ended.
    A certified plan is applied whole after one solve, so per_step_values
    and solver_reports can be shorter than the trajectory.

    work holds, per solve, the discrete search's counts of the nodes it
    evaluated and the move rows it tabled (empty for other solvers). They
    depend on what the rollout's memo already held, not on the run, so
    they are no part of the run's repr or equality; the run JSON writes
    them into each solve's report."""

    trajectory: Trajectory
    per_step_values: tuple
    solver_reports: tuple
    config: SolverConfig
    status: str
    closing_tail: float = 0.0
    variant: str = "basic"
    initial_set_value: float = INF
    work: tuple = field(default=(), repr=False, compare=False)

    @property
    def total_cost(self) -> float:
        return fsum(self.trajectory.stage_costs) + self.closing_tail

    @property
    def steps(self) -> int:
        return len(self.trajectory)


def _drive(problem: ProblemDef, sset, x0, cfg: SolverConfig, horizon: int, step,
           disturbance=None, variant: str = "basic",
           policy_id: str = "rollout") -> RolloutRun:
    """The rollout driving loop shared by every variant.

    step(x, prev) returns the lookahead solution at x (prev is the previous
    step's solution, or None) and the report recorded for it; the loop
    applies its first control, with the move's stage cost and next state
    read from the solution's walk when it has one. Unless sset has no
    policy_ids (it certifies nothing) or there is a disturbance, a solution
    of value at most EPS_TAIL is applied whole, since its replay ends in the
    set: the run stops early if a state on the way is a stopping state, and
    otherwise closes in the set at the final state's recorded value. horizon
    bounds the solves, so such a plan may run up to ell - 1 steps past it.
    """
    certifies = bool(sset.policy_ids)
    states = [x0]
    controls, stage_costs, values, reports, work = [], [], [], [], []
    initial_set_value = sset.terminal_cost(x0)
    prev = None
    status = "horizon"
    closing = 0.0

    for t in range(horizon):
        x = states[-1]
        if problem.is_stopping(x):
            status = "stopped"
            break
        if certifies:
            tc = sset.terminal_cost(x)
            if tc <= EPS_TAIL:
                status = "closed_in_set"
                closing = tc
                break

        sol, report = step(x, prev)

        if sol.value == INF:
            if t == 0:
                raise InitialInfeasibilityError(x)
            if disturbance is not None:
                status = "infeasible_after_disturbance"
                break
            raise InfeasibleStepError(t, x)

        values.append(sol.value)
        reports.append(report)
        diag = sol.diagnostics or {}
        work.append({k: diag[k] for k in WORK_KEYS if k in diag})
        prev = sol
        # a plan whose exact replay ends in the set is applied whole; its
        # walk, when the solver gives one, already holds every move
        certified = certifies and disturbance is None and sol.value <= EPS_TAIL
        walked = sol.walk
        for k, u in enumerate(sol.controls if certified else sol.controls[:1]):
            x = states[-1]
            g = problem.stage_cost(x, u) if walked is None else walked.costs[k]
            if g == INF:  # defensive: a finite solve must have feasible steps
                raise InfeasibleStepError(len(controls), x)
            nxt = problem.dynamics(x, u) if walked is None else walked.states[k + 1]
            if disturbance is not None:
                nxt = disturbance(t, nxt)
            states.append(nxt)
            controls.append(u)
            stage_costs.append(g)
            if certified and problem.is_stopping(nxt):
                status = "stopped"
                break
        if certified:
            if status == "horizon":
                status, closing = "closed_in_set", sset.terminal_cost(states[-1])
            break

    tails = None
    if status in ("stopped", "closed_in_set"):
        tails = tails_from(stage_costs, closing)
    traj = Trajectory(
        states=tuple(states),
        controls=tuple(controls),
        stage_costs=tuple(stage_costs),
        policy_id=policy_id,
        terminated_in_stopping_set=status == "stopped",
        tail_costs=tails,
    )
    return RolloutRun(
        trajectory=traj,
        per_step_values=tuple(values),
        solver_reports=tuple(reports),
        config=cfg,
        status=status,
        closing_tail=closing,
        variant=variant,
        initial_set_value=initial_set_value,
        work=tuple(work),
    )


def _shifted_plan(prev, base_policy: Policy | None, ell: int):
    """The previous plan moved one step on and extended by the base policy."""
    if prev is None or base_policy is None or len(prev.controls) != ell:
        return None
    return tuple(prev.controls[1:]) + (base_policy.action(base_view(prev.terminal_state)),)


def _shifted_seed(problem: ProblemDef, prev, base_policy: Policy | None, ell: int, x):
    """_shifted_plan as a seed from x. When x is the previous solution's
    walk's states[1] (no disturbance moved it), the seed is that walk one
    step on, with only the appended step simulated; else the plan alone,
    for the solver to replay."""
    plan = _shifted_plan(prev, base_policy, ell)
    if plan is None or prev.walk is None or x is not prev.walk.states[1]:
        return plan
    end, u = prev.walk.states[-1], plan[-1]
    return Walk(plan, prev.walk.states[1:] + (problem.dynamics(end, u),),
                prev.walk.costs[1:] + (problem.stage_cost(end, u),))


def run_rollout(problem: ProblemDef, sset, x0, cfg: SolverConfig, horizon: int,
                base_policy: Policy | None = None, disturbance=None,
                variant: str = "basic", policy_id: str = "rollout") -> RolloutRun:
    """Roll the lookahead policy forward from x0 for at most horizon solves.

    disturbance, when given, is called as disturbance(t, x_next) after each
    nominal transition and its return value replaces the state; an
    unresolvable state after a disturbance ends the run with a flagged
    status instead of raising. Every step's solve shares one memo, which
    lives as long as the run.
    """
    memo: dict = {}

    def step(x, prev):
        seeds = []
        if problem.pl is not None:  # only shooting takes seeds
            shifted = _shifted_seed(problem, prev, base_policy, cfg.ell, x)
            if shifted is not None:
                seeds.append(shifted)
        sol = solve(problem, sset, x, cfg, seeds=seeds, base_policy=base_policy, memo=memo)
        return sol, _report_of(sol)

    return _drive(problem, sset, x0, cfg, horizon, step, disturbance=disturbance,
                  variant=variant, policy_id=policy_id)


def _report_of(sol):
    rep = {"value": sol.value, "sample_id": sol.terminal_sample_id}
    if sol.per_stage_values is not None:
        rep["per_stage_values"] = sol.per_stage_values
    if sol.diagnostics:
        for key in ("mismatch", "iterations", "candidates", "converged"):
            if key in sol.diagnostics:
                rep[key] = sol.diagnostics[key]
    return rep


def run_classical_mpc(problem: ProblemDef, x0, cfg: SolverConfig, horizon: int,
                      terminal: str = "origin", terminal_quadratic=None,
                      base_policy: Policy | None = None) -> RolloutRun:
    """Receding-horizon baseline that uses no sampled data.

    terminal="origin" pins the lookahead's final state to zero (the
    textbook stabilizing terminal constraint); terminal="free" leaves it
    unconstrained under a designed quadratic cost (zero by default). Both
    need a vector start state.
    """
    if not is_vector_state(x0):
        raise ValueError(f"the classical MPC baseline needs a vector start state, "
                         f"got {x0!r}")
    if terminal == "origin":
        dim = np.asarray(x0, dtype=float).size
        tset = ExplicitSampleSet([SampleEntry(np.zeros(dim), 0.0, "terminal")],
                                 label="origin")
    elif terminal == "free":
        tset = FreeTerminal(terminal_quadratic)
    else:
        raise ValueError(f"unknown terminal mode {terminal!r}")
    return run_rollout(problem, tset, x0, cfg, horizon, base_policy=base_policy,
                       variant="classical-mpc", policy_id="classical-mpc")


# ---------------------------------------------------------------------------
# Multiagent simplified rollout


@dataclass(frozen=True)
class AgentPartition:
    """Splits a joint control into per-agent components.

    agents: ordered agent ids. options(state, agent) lists that agent's
    moves. combine(joint, agent, move) replaces one component of a joint
    control. The one-agent-at-a-time search scales with the sum, not the
    product, of the per-agent option counts.
    """

    agents: tuple
    options: object
    combine: object


def run_multiagent(problem: ProblemDef, sset, x0, cfg: SolverConfig, horizon: int,
                   partition: AgentPartition, base_policy: Policy,
                   sweeps: int = 2) -> RolloutRun:
    """Rollout with agent-by-agent coordinate descent on the joint plan.

    Each step starts from the better of the base-policy plan and the shifted
    previous plan, then lets every agent re-optimize its own control sequence
    while the others hold theirs fixed, repeated for the given number of
    sweeps. The incumbent only ever improves, so the step value stays at or
    below the base policy's. An agent's search reads only x and the plan, so
    while the plan is still the one that agent's last search left, searching
    again would change nothing and is skipped. Every search of the run shares
    one table of each state's moves per control set (see lookahead._Search).
    """
    tables: dict = {}

    def step(x, prev):
        value, plan, term = INF, None, None
        shifted = _shifted_plan(prev, base_policy, cfg.ell)
        for cand in (base_plan(problem, base_policy, x, cfg.ell),
                     None if shifted is None else walk(problem, x, shifted)):
            if cand is not None:
                v = cand.price(sset.terminal_cost)
                if plan is None or v < value:
                    value, plan, term = v, cand, cand.states[-1]
        if value == INF:
            return LookaheadSolution(controls=(), terminal_state=None, value=INF), None

        sweep_values = [value]
        left = {}  # agent -> the plan its last search left
        for _ in range(sweeps):
            for agent in partition.agents:
                if left.get(agent) is plan:
                    continue

                def controls_at(state, k, _plan=plan, _agent=agent):
                    opts = partition.options(state, _agent)
                    return FiniteControls(tuple(
                        partition.combine(_plan[k], _agent, o) for o in opts))

                search = _Search(problem, sset, cfg.ell, controls_at, tables=tables)
                v, ctrl, end, _sid = search.best(x, cfg.ell)
                if v < value:
                    value, plan, term = v, ctrl, end
                left[agent] = plan
            sweep_values.append(value)

        sol = LookaheadSolution(controls=tuple(plan), terminal_state=term, value=value)
        return sol, {"value": value, "sweep_values": tuple(sweep_values)}

    return _drive(problem, sset, x0, cfg, horizon, step, variant="multiagent",
                  policy_id="multiagent-rollout")
