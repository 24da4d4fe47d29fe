"""Closed-loop behavior: descent, statuses, disturbance handling, agents."""

from dataclasses import replace

import numpy as np
import pytest

from ddrollout import (
    AgentPartition,
    FiniteControls,
    ProblemDef,
    SolverConfig,
    engine,
    run_classical_mpc,
    run_multiagent,
    run_rollout,
)
from ddrollout.budget import AugmentedState
from ddrollout.costs import INF
from ddrollout.engine import EPS_TAIL
from ddrollout.lookahead import base_plan, solve_discrete, walk
from ddrollout.sample_sets import ExplicitSampleSet, FreeTerminal, SampleEntry

from conftest import make_random_instance, nested_pair


def _vals_descend_exactly(run):
    vals = run.per_step_values
    return all(vals[k + 1] <= vals[k] for k in range(len(vals) - 1))


def test_discrete_rollout_descends_and_stops(grid):
    policy = next(iter(grid.base_policies.values()))
    sset = grid.sample_sets["trajectory"]
    cfg = replace(grid.solver_defaults, ell=2)
    run = run_rollout(grid.problem, sset, grid.start_states[0], cfg, 60,
                      base_policy=policy)
    assert run.status == "stopped"
    assert run.trajectory.terminated_in_stopping_set
    assert _vals_descend_exactly(run)
    assert run.total_cost <= grid.notes["base_cost"]


def test_random_instance_rollout_matches_certified_chain():
    problem, base, n, _ = make_random_instance(41)
    _, sset = nested_pair(problem, base, n, 41)
    cfg = replace(SolverConfig(), ell=2)
    for x0 in (n - 1, n // 2):
        if sset.terminal_cost(x0) == INF:
            continue
        run = run_rollout(problem, sset, x0, cfg, 400, base_policy=base)
        assert run.status == "stopped"
        assert _vals_descend_exactly(run)
        # realized <= first lookahead value <= certified set value
        assert run.total_cost <= run.per_step_values[0] <= sset.terminal_cost(x0)


def test_spiral_rollout_closes_inside_the_disk(spiral):
    policy = next(iter(spiral.base_policies.values()))
    cfg = replace(spiral.solver_defaults, ell=5)
    run = run_rollout(spiral.problem, spiral.sample_sets["disk"],
                      np.array([1.0, 1.0]), cfg, 60, base_policy=policy)
    assert run.status == "closed_in_set"
    # the closing tail is the disk's recorded cost at the final state
    final = run.trajectory.states[-1]
    assert run.closing_tail == pytest.approx(
        spiral.sample_sets["disk"].terminal_cost(final), rel=1e-12)
    vals = run.per_step_values
    for k in range(len(vals) - 1):
        assert vals[k + 1] <= vals[k] + 1e-6 * max(1.0, abs(vals[k]))
    assert run.total_cost <= spiral.notes["base_costs"][(1.0, 1.0)]


def _trajectory_0_run(spiral, **kwargs):
    policy = next(iter(spiral.base_policies.values()))
    cfg = replace(spiral.solver_defaults, ell=5)
    return run_rollout(spiral.problem, spiral.sample_sets["trajectory-0"],
                       np.array([1.0, 1.0]), cfg, 40, base_policy=policy, **kwargs)


def test_a_certified_plan_is_applied_whole_and_closes_on_its_sample(spiral):
    """The sixth solve's value is at most EPS_TAIL: its replay ends on a
    sample, so the run applies all five controls and solves no more."""
    run = _trajectory_0_run(spiral)
    assert run.status == "closed_in_set"
    assert run.steps == 10
    assert len(run.per_step_values) == len(run.solver_reports) == 6
    assert run.per_step_values[-1] <= EPS_TAIL < run.per_step_values[-2]
    sset = spiral.sample_sets["trajectory-0"]
    final = run.trajectory.states[-1]
    assert sset.contains(final)
    assert run.closing_tail == sset.terminal_cost(final)
    assert run.trajectory.tail_costs[0] == pytest.approx(run.total_cost, rel=1e-12)
    assert run.total_cost <= run.per_step_values[0] <= run.initial_set_value


def test_a_disturbed_run_never_applies_a_whole_plan(spiral):
    """Under a disturbance nothing certifies the plan's path, so the run
    re-solves at every step, even when the disturbance changes nothing."""
    closed = _trajectory_0_run(spiral)
    run = _trajectory_0_run(spiral, disturbance=lambda t, x: x, variant="disturbance")
    assert run.status == "horizon"
    assert run.steps == len(run.per_step_values) == 40
    assert run.per_step_values[:6] == closed.per_step_values


def test_a_certified_plan_stops_at_a_stopping_state_on_its_way():
    """States 0 -> 1 -> 2 -> 3 at no cost; 2 stops the run and 3 is the one
    sample. The solve at 0 certifies a plan to 3, and the run stops at 2."""
    problem = ProblemDef(dynamics=lambda x, u: x + u, stage_cost=lambda x, u: 0.0,
                         control_set=lambda x: FiniteControls((1,)),
                         stopping_predicate=lambda x: x == 2)
    sset = ExplicitSampleSet([SampleEntry(3, 0.0, "end")], label="end")
    run = run_rollout(problem, sset, 0, SolverConfig(ell=3), 5)
    assert run.status == "stopped"
    assert run.trajectory.states == (0, 1, 2)
    assert run.per_step_values == (0.0,)
    assert run.closing_tail == 0.0


def test_a_run_whose_last_allowed_move_lands_on_a_member_closes_in_the_set():
    """The one solve a horizon of 1 allows moves onto a member recorded at a
    tail of at most EPS_TAIL. The state it reaches is tested like every
    other, so the run closes there with that tail appended instead of
    ending at the horizon on a truncated cost."""
    problem, _, n, _ = make_random_instance(5)
    x0 = next(x for x in range(n - 1, 0, -1) if problem.dynamics(x, 0) != 0)
    member, tail = problem.dynamics(x0, 0), EPS_TAIL / 2
    sset = ExplicitSampleSet([SampleEntry(member, tail, "p")], label="one")
    run = run_rollout(problem, sset, x0, SolverConfig(ell=1), 1)
    assert run.per_step_values[0] > EPS_TAIL  # not a certified plan
    assert run.status == "closed_in_set" and run.trajectory.states == (x0, member)
    assert run.closing_tail == run.trajectory.tail_costs[-1] == tail
    assert run.total_cost == run.trajectory.tail_costs[0] == run.per_step_values[0]


def test_a_steps_seeds_are_the_shifted_plan_then_the_base_plan(grid, monkeypatch):
    """_seeds lists the previous plan shifted one step, then the base
    policy's plan, each as its walk from x, and leaves out whichever is
    missing: no previous solution, a base plan that hits an infeasible
    step, or no base policy at all."""
    problem, policy, ell = grid.problem, next(iter(grid.base_policies.values())), 3
    x0 = grid.start_states[0]
    prev = solve_discrete(problem, grid.sample_sets["trajectory"], x0, SolverConfig(ell=ell))
    x = prev.walk.states[1]
    shifted = engine._shifted_seed(problem, prev, policy, x)
    base = base_plan(problem, policy, x, ell)
    assert shifted != base  # so the order shows
    seeds = engine._seeds(problem, prev, policy, x, ell)
    assert seeds == [shifted, base]
    assert [s.states for s in seeds] == [shifted.states, base.states]
    assert [s.costs for s in seeds] == [shifted.costs, base.costs]
    assert engine._seeds(problem, None, policy, x, ell) == [base]
    assert engine._seeds(problem, prev, None, x, ell) == []
    monkeypatch.setattr(engine, "base_plan", lambda *a: None)
    assert engine._seeds(problem, prev, policy, x, ell) == [shifted]
    assert engine._seeds(problem, None, policy, x, ell) == []


def test_shooting_and_the_agent_by_agent_step_keep_the_same_seed_of_a_tie(integrator,
                                                                         monkeypatch):
    """Two different plans that every stage prices at 1.0 tie, and no plan
    can beat them. Shooting and the agent-by-agent step (with no sweeps)
    both start from the first of least value among the seeds, so both
    apply the first plan's first move."""
    problem = replace(integrator.problem, stage_cost=lambda x, u: 1.0)
    policy = next(iter(integrator.base_policies.values()))
    x0, cfg = integrator.start_states[0], replace(integrator.solver_defaults, ell=4)
    tied = [walk(problem, x0, (np.array([u]),) * 4) for u in (0.25, -0.25)]
    monkeypatch.setattr(engine, "_seeds", lambda *a: tied)
    shot = run_rollout(problem, FreeTerminal(), x0, cfg, 1, base_policy=policy)
    agents = run_multiagent(problem, FreeTerminal(), x0, cfg, 1,
                            AgentPartition((), None, None), policy, sweeps=0)
    for run in (shot, agents):
        assert run.per_step_values == (4.0,) and len(run.trajectory.controls) == 1
        assert np.array_equal(run.trajectory.controls[0], tied[0][0])
        assert np.array_equal(run.trajectory.states[1], tied[0].states[1])


def test_disturbance_inside_coverage_recovers(spiral):
    policy = next(iter(spiral.base_policies.values()))
    cfg = replace(spiral.solver_defaults, ell=5)
    bump = lambda t, x: x + np.array([0.5, -0.5]) if t == 3 else x
    run = run_rollout(spiral.problem, spiral.sample_sets["disk"],
                      np.array([1.0, 1.0]), cfg, 60, base_policy=policy,
                      disturbance=bump, variant="disturbance")
    assert run.status in ("closed_in_set", "stopped", "horizon")
    assert run.total_cost < INF
    assert run.variant == "disturbance"


def test_disturbance_outside_coverage_flags_instead_of_crashing(spiral):
    policy = next(iter(spiral.base_policies.values()))
    cfg = replace(spiral.solver_defaults, ell=5)
    kick = lambda t, x: x + np.array([100.0, 100.0]) if t == 3 else x
    run = run_rollout(spiral.problem, spiral.sample_sets["disk"],
                      np.array([1.0, 1.0]), cfg, 60, base_policy=policy,
                      disturbance=kick, variant="disturbance")
    assert run.status == "infeasible_after_disturbance"
    # costs up to the flagged step are still reported
    assert run.total_cost < INF
    assert len(run.trajectory.controls) >= 3


def test_classical_mpc_free_terminal_runs_the_integrator(integrator):
    cfg = replace(integrator.solver_defaults, ell=8)
    run = run_classical_mpc(integrator.problem, integrator.start_states[0],
                            cfg, 60, terminal="free",
                            terminal_quadratic=integrator.mpc_quadratic)
    assert run.status == "horizon"
    assert run.variant == "classical-mpc"
    assert run.total_cost < integrator.notes["base_cost"]


def test_only_a_set_with_recorded_members_closes_a_run(integrator):
    """From the origin, the origin set closes the run at once; the free
    terminal certifies nothing, so its run solves until the horizon."""
    origin = np.zeros(2)
    cfg = replace(integrator.solver_defaults, ell=2)
    pinned = run_classical_mpc(integrator.problem, origin, cfg, 3)
    assert (pinned.status, pinned.steps, pinned.per_step_values) == ("closed_in_set", 0, ())
    free = run_classical_mpc(integrator.problem, origin, cfg, 3, terminal="free",
                             terminal_quadratic=integrator.mpc_quadratic)
    assert (free.status, free.steps, free.per_step_values) == ("horizon", 3, (0.0,) * 3)


def test_classical_mpc_rejects_unknown_terminal(integrator):
    with pytest.raises(ValueError):
        run_classical_mpc(integrator.problem, integrator.start_states[0],
                          integrator.solver_defaults, 10, terminal="nonsense")


def test_multiagent_never_loses_to_the_base_policy(grid):
    policy = next(iter(grid.base_policies.values()))
    cfg = replace(grid.solver_defaults, ell=2)
    run = run_multiagent(grid.problem, grid.sample_sets["trajectory"],
                         grid.start_states[0], cfg, 40, grid.partition, policy)
    assert run.status == "stopped"
    assert run.total_cost <= grid.notes["base_cost"]
    assert _vals_descend_exactly(run)


def test_multiagent_any_sweep_count_beats_base(grid):
    # closed-loop cost is not monotone in sweeps, but the per-run guarantee
    # against the base policy holds for every sweep count
    policy = next(iter(grid.base_policies.values()))
    cfg = replace(grid.solver_defaults, ell=2)
    for sweeps in (1, 2, 3):
        run = run_multiagent(grid.problem, grid.sample_sets["trajectory"],
                             grid.start_states[0], cfg, 40, grid.partition,
                             policy, sweeps=sweeps)
        assert run.total_cost <= grid.notes["base_cost"]


def test_budget_run_tracks_the_head_exactly(integrator):
    policy = next(iter(integrator.base_policies.values()))
    cfg = replace(integrator.solver_defaults, ell=5)
    cap = integrator.budget_spec.e_max
    run = run_rollout(integrator.augmented_problem,
                      integrator.augmented_sets["budget"],
                      AugmentedState(integrator.start_states[0], cap),
                      cfg, 12, base_policy=policy)
    xs = run.trajectory.states
    for k, u in enumerate(run.trajectory.controls):
        spent = float(np.asarray(u) @ np.asarray(u))
        assert xs[k + 1].info == xs[k].info - spent  # bit-exact bookkeeping
    assert xs[-1].info >= 0.0
