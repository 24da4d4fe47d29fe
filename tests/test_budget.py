"""Resource-budget augmentation: exact bookkeeping, membership, policies."""

from dataclasses import replace

import numpy as np
import pytest

from ddrollout import (
    AugmentedState,
    BudgetConstraintSpec,
    InitialInfeasibilityError,
    Policy,
    augment_problem,
    augment_sample_set,
    base_view,
    run_rollout,
    simulate_policy,
)
from ddrollout.costs import INF
from ddrollout.model import EPS_STATE, Trajectory, states_equal


def test_base_view_unwraps_only_augmented_states():
    x = np.array([1.0, 2.0])
    assert base_view(AugmentedState(x, 0.3)) is x
    assert base_view(x) is x
    assert base_view("token") == "token"


def test_augmented_dynamics_subtract_usage_exactly(integrator):
    spec = integrator.budget_spec
    aug = integrator.augmented_problem
    s = AugmentedState(integrator.start_states[0], 0.5)
    u = np.array([0.25])
    nxt = aug.dynamics(s, u)
    assert nxt.info == 0.5 - 0.0625
    np.testing.assert_allclose(
        nxt.base, integrator.problem.dynamics(s.base, u))


def test_stage_cost_is_infinite_past_the_cap(integrator):
    aug = integrator.augmented_problem
    s = AugmentedState(integrator.start_states[0], 0.01)
    cheap = np.array([0.05])   # usage 0.0025 fits
    costly = np.array([0.5])   # usage 0.25 does not
    assert aug.stage_cost(s, cheap) < INF
    assert aug.stage_cost(s, costly) == INF


def test_augmented_set_tail_usages_telescope(integrator):
    bset = integrator.augmented_sets["budget"]
    usages = bset.usages
    tails = bset.tail_usages
    n = len(usages)
    # backward recursion holds exactly as stored
    for k in range(n):
        assert tails[k] == usages[k] + tails[k + 1]
    assert tails[0] <= integrator.budget_spec.e_max


def test_membership_requires_state_match_and_budget_cover(integrator):
    bset = integrator.augmented_sets["budget"]
    seed_state = bset.seed.states[5]
    need = bset.tail_usages[5]
    assert bset.contains(AugmentedState(seed_state, need))
    assert bset.contains(AugmentedState(seed_state, need + 0.1))
    assert not bset.contains(AugmentedState(seed_state, need * 0.5))
    assert not bset.contains(AugmentedState(np.array([9.0, 9.0]), 1.0))
    # terminal cost comes from the seed's recorded tail
    assert bset.terminal_cost(AugmentedState(seed_state, need)) == \
        bset.seed.tail_costs[5]
    assert bset.terminal_cost(AugmentedState(seed_state, need * 0.5)) == INF


def test_membership_far_past_the_grid_is_no_member(integrator, recwarn):
    bset = integrator.augmented_sets["budget"]
    far = AugmentedState(np.array([1e300, 0.0]), bset.spec.e_max)
    assert not bset.contains(far) and bset.terminal_cost(far) == INF
    assert not recwarn.list


def test_match_is_the_earliest_seed_step_that_matches_and_fits():
    """The grid-indexed match agrees with a scan of the seed in step order,
    on a seed that revisits states and on queries straddling grid cells."""
    eps = EPS_STATE
    a, b = np.array([3e-9, -1.0]), np.array([0.25, 7e-9])
    states = (a, b, a + 0.6 * eps, b, np.zeros(2))
    controls = tuple(np.array([0.1 * (k + 1)]) for k in range(4))
    traj = Trajectory(states=states, controls=controls, stage_costs=(1.0,) * 4,
                      policy_id="p", terminated_in_stopping_set=True,
                      tail_costs=(4.0, 3.0, 2.0, 1.0, 0.0))
    spec = BudgetConstraintSpec(per_step_usage=lambda x, u: float(u @ u), e_max=1.0)
    bset = augment_sample_set(traj, spec)
    rng = np.random.default_rng(3)
    for _ in range(400):
        x = states[int(rng.integers(0, 5))] + rng.uniform(-2.0 * eps, 2.0 * eps, 2)
        e = float(rng.choice(bset.tail_usages + (0.5 * bset.tail_usages[1],)))
        scan = next((k for k, xk in enumerate(states)
                     if states_equal(x, xk) and e >= bset.tail_usages[k]), None)
        assert bset.match_index(AugmentedState(x, e)) == scan


def test_augmented_base_policy_replays_the_base_run(integrator):
    policy = next(iter(integrator.base_policies.values()))
    aug_policy = Policy(action=lambda s: policy.action(s.base), id=policy.id)
    s0 = AugmentedState(integrator.start_states[0], 0.5)
    traj = simulate_policy(integrator.augmented_problem, aug_policy, s0,
                           max_steps=30)
    plain = simulate_policy(integrator.problem, policy,
                            integrator.start_states[0], max_steps=30)
    for got, want in zip(traj.states, plain.states):
        np.testing.assert_array_equal(np.asarray(got.base), np.asarray(want))
    # the head decreases by exactly the recorded usage each step
    for k, u in enumerate(traj.controls):
        spent = float(np.asarray(u) @ np.asarray(u))
        assert traj.states[k + 1].info == traj.states[k].info - spent


def test_budget_too_small_for_any_plan_raises_immediately(integrator):
    policy = next(iter(integrator.base_policies.values()))
    cfg = replace(integrator.solver_defaults, ell=5)
    tiny = AugmentedState(integrator.start_states[0], 1e-6)
    with pytest.raises(InitialInfeasibilityError):
        run_rollout(integrator.augmented_problem,
                    integrator.augmented_sets["budget"], tiny, cfg, 10,
                    base_policy=policy)


def test_capped_run_ordering_against_base_and_free(integrator):
    policy = next(iter(integrator.base_policies.values()))
    cfg = replace(integrator.solver_defaults, ell=5)
    cap = integrator.budget_spec.e_max
    capped = run_rollout(integrator.augmented_problem,
                         integrator.augmented_sets["budget"],
                         AugmentedState(integrator.start_states[0], cap),
                         cfg, 12, base_policy=policy)
    free = run_rollout(integrator.problem, integrator.sample_sets["trajectory"],
                       integrator.start_states[0], cfg, 12, base_policy=policy)
    # identical horizons: relaxing the budget can only help the lookahead
    assert free.per_step_values[0] <= capped.per_step_values[0]
    assert capped.per_step_values[0] <= integrator.notes["base_cost"] + 1e-9


def test_tail_anchor_must_fit_under_the_cap():
    # a quadratic anchor that exceeds the cap at the seed start is rejected
    a = np.array([[0.5]])
    problem_dyn = lambda x, u: a @ x + np.asarray(u)
    from ddrollout import FiniteControls, Policy, ProblemDef, BoxControls

    problem = ProblemDef(
        dynamics=problem_dyn,
        stage_cost=lambda x, u: float(x @ x) + float(np.asarray(u) @ np.asarray(u)),
        control_set=lambda x: BoxControls(np.array([-1.0]), np.array([1.0])),
    )
    pol = Policy(action=lambda x: np.array([0.0]), id="p",
                 analytic_cost=lambda x: float(x @ x) / (1.0 - 0.25))
    traj = simulate_policy(problem, pol, np.array([1.0]), max_steps=10)
    spec = BudgetConstraintSpec(
        per_step_usage=lambda x, u: float(np.asarray(u) @ np.asarray(u)),
        e_max=1e-9,
        usage_quad=np.array([[1.0]]),
    )
    from ddrollout import InfeasibleSeedError

    with pytest.raises(InfeasibleSeedError):
        augment_sample_set(traj, spec, label="impossible",
                           tail_usage_anchor=lambda x: 1.0)
