"""Built-in instances: recorded values, aliases, structural invariants."""

import numpy as np
import pytest

from ddrollout import (
    make_instance,
    resolve_instance_name,
    simulate_policy,
    trajectory_cost,
)


def test_aliases_resolve_to_canonical_names():
    assert resolve_instance_name("hybrid") == "hybrid-spiral"
    assert resolve_instance_name("tsp") == "four-city-tour"
    assert resolve_instance_name("grid") == "two-vehicle-grid"
    assert resolve_instance_name("integrator") == "double-integrator"
    assert resolve_instance_name("double-integrator") == "double-integrator"
    assert make_instance("spiral").name == "hybrid-spiral"


def test_unknown_instance_is_an_error():
    with pytest.raises(KeyError):
        make_instance("nope")


def test_spiral_base_costs_are_the_recorded_ratios(spiral):
    policy = next(iter(spiral.base_policies.values()))
    want = {(1.0, 1.0): 50.0 / 9.0, (8.0, -9.0): 14500.0 / 36.0}
    for x0 in spiral.start_states:
        traj = simulate_policy(spiral.problem, policy, x0, max_steps=500)
        got = trajectory_cost(traj)
        assert got == pytest.approx(want[tuple(x0)], rel=1e-12)
        assert got == pytest.approx(spiral.notes["base_costs"][tuple(x0)], rel=1e-12)


def test_spiral_sets_are_invariant_under_their_policies(spiral):
    policies = {p.id: p for p in spiral.base_policies.values()}
    for name, sset in spiral.sample_sets.items():
        passed, line, _ = next(sset.verify(spiral.problem, policies,
                                           np.random.default_rng(0), 100))
        assert passed and line.startswith("invariance: PASS"), name


def test_spiral_dynamics_apply_the_mode_its_regions_name(spiral):
    problem, pl = spiral.problem, spiral.problem.pl
    rng = np.random.default_rng(3)
    edge = [np.array([c, 0.5]) for c in (0.0, -0.0, 1e-300, -1e-300)]
    u = np.array([0.25])
    for x in [rng.uniform(-10.0, 10.0, 2) for _ in range(200)] + edge:
        mode = pl.modes[pl.mode_of(x)]
        assert np.array_equal(problem.dynamics(x, u), mode.a @ x + mode.b @ u)
    # the boundary x[0] = 0 (either sign of zero) belongs to mode 0
    assert [pl.mode_of(x) for x in edge] == [0, 0, 0, 1]


def test_integrator_tail_matrix_solves_the_lyapunov_identity(integrator):
    # P = Q + K'RK + (A-BK)' P (A-BK): exactness of the recorded tails
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[0.0], [1.0]])
    k = np.array([[0.05, 0.3]])
    acl = a - b @ k
    p = integrator.notes["tail_matrix"]
    resid = p - (np.eye(2) + k.T @ k + acl.T @ p @ acl)
    assert float(np.max(np.abs(resid))) < 1e-9
    x0 = integrator.start_states[0]
    assert integrator.notes["base_cost"] == float(x0 @ p @ x0)


def test_integrator_base_energy_is_under_the_cap(integrator):
    assert integrator.notes["base_energy"] <= integrator.budget_spec.e_max
    pu = integrator.notes["usage_matrix"]
    x0 = integrator.start_states[0]
    assert integrator.notes["base_energy"] == float(x0 @ pu @ x0)


def test_trajectory_sets_contain_their_starts(integrator, grid):
    assert integrator.sample_sets["trajectory"].terminal_cost(
        integrator.start_states[0]) == integrator.notes["base_cost"]
    assert grid.sample_sets["trajectory"].terminal_cost(
        grid.start_states[0]) == grid.notes["base_cost"]


def test_grid_base_run_costs_ten(grid):
    policy = next(iter(grid.base_policies.values()))
    traj = simulate_policy(grid.problem, policy, grid.start_states[0])
    assert traj.terminated_in_stopping_set
    assert trajectory_cost(traj) == 10.0


def test_tour_instance_records_both_base_tours(tour):
    costs = tour.notes["base_costs"]
    assert costs["prefers-cdb"] == 11.0
    assert costs["prefers-bcd"] == 7.0
    assert tour.notes["optimal_tour"] == "ABDCA"
    assert tour.notes["optimal_cost"] == 4.0
    assert tour.default_set == "cdb"


def test_tour_base_policies_realize_their_recorded_tours(tour):
    for pid, policy in tour.base_policies.items():
        traj = simulate_policy(tour.problem, policy, tour.start_states[0])
        assert traj.terminated_in_stopping_set
        assert trajectory_cost(traj) == tour.notes["base_costs"][pid]
