"""Built-in instances: recorded values, aliases, structural invariants."""

import itertools
import re

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


# the double integrator's recorded gain K and closed loop A - BK
_K = np.array([[0.05, 0.3]])
_ACL = np.array([[1.0, 1.0], [0.0, 1.0]]) - np.array([[0.0], [1.0]]) @ _K


def test_integrator_tail_matrix_solves_the_lyapunov_identity(integrator):
    # P = Q + K'RK + (A-BK)' P (A-BK): exactness of the recorded tails
    k, acl = _K, _ACL
    p = integrator.notes["tail_matrix"]
    resid = p - (np.eye(2) + k.T @ k + acl.T @ p @ acl)
    assert float(np.max(np.abs(resid))) < 1e-9
    x0 = integrator.start_states[0]
    assert integrator.notes["base_cost"] == float(x0 @ p @ x0)


def test_integrator_usage_matrix_solves_the_lyapunov_identity(integrator):
    # P_u = K'K + (A-BK)' P_u (A-BK): exactness of the recorded tail energies
    k, acl = _K, _ACL
    pu = integrator.notes["usage_matrix"]
    resid = pu - (k.T @ k + acl.T @ pu @ acl)
    assert float(np.max(np.abs(resid))) < 1e-9


def test_integrator_lyapunov_solves_match_scipy_bit_for_bit(integrator):
    # the instance solves both equations with numpy alone; scipy, a test
    # dependency, gives the same bytes on the same two equations
    from scipy.linalg import solve_discrete_lyapunov

    k, acl = _K, _ACL
    tail = solve_discrete_lyapunov(acl.T, np.eye(2) + k.T @ k)
    usage = solve_discrete_lyapunov(acl.T, k.T @ k)
    assert integrator.notes["tail_matrix"].tobytes() == tail.tobytes()
    assert integrator.notes["usage_matrix"].tobytes() == usage.tobytes()


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


# The grid's callbacks as tuple arithmetic, the way they were first written.
_REF_MOVES = {"down": (1, 0), "left": (0, -1), "right": (0, 1), "stay": (0, 0), "up": (-1, 0)}
_CELLS = [(r, c) for r in range(5) for c in range(5)]


def _ref_step(cell, move):
    d = _REF_MOVES[move]
    return (cell[0] + d[0], cell[1] + d[1])


def _ref_on_grid(cell):
    return 0 <= cell[0] < 5 and 0 <= cell[1] < 5


def _ref_stage_cost(state, joint):
    n0, n1 = _ref_step(state[0], joint[0]), _ref_step(state[1], joint[1])
    if not (_ref_on_grid(n0) and _ref_on_grid(n1)) or n0 == n1:
        return float("inf")
    if n0 == state[1] and n1 == state[0]:
        return float("inf")
    return float((joint[0] != "stay") + (joint[1] != "stay"))


def _ref_options(state, agent, targets):
    if state[agent] == targets[agent]:
        return ("stay",)
    return tuple(m for m in sorted(_REF_MOVES) if _ref_on_grid(_ref_step(state[agent], m)))


def test_the_grid_move_graph_prices_and_moves_like_tuple_arithmetic(grid):
    """Every ordered pair of cells under every joint move, and every
    on-grid state's control set and per-vehicle options."""
    problem, targets = grid.problem, grid.notes["targets"]
    joints = [(a, b) for a in sorted(_REF_MOVES) for b in sorted(_REF_MOVES)]
    for state in itertools.product(_CELLS, _CELLS):
        for joint in joints:
            g = problem.stage_cost(state, joint)
            assert g == _ref_stage_cost(state, joint), (state, joint)
            if g < float("inf"):
                assert problem.dynamics(state, joint) == tuple(map(_ref_step, state, joint))
        opts = [_ref_options(state, a, targets) for a in (0, 1)]
        assert [grid.partition.options(state, a) for a in (0, 1)] == opts
        assert problem.control_set(state).controls == tuple(itertools.product(*opts))


@pytest.mark.parametrize("state,cell", [
    (((-1, 2), (2, 0)), (-1, 2)), (((9, 9), (2, 0)), (9, 9)), (((0, 2), (2, 5)), (2, 5)),
])
def test_a_grid_state_off_the_grid_is_an_error_in_every_callback(grid, state, cell):
    problem = grid.problem
    calls = [lambda: problem.stage_cost(state, ("stay", "stay")),
             lambda: problem.dynamics(state, ("stay", "stay")),
             lambda: problem.control_set(state),
             lambda: grid.partition.options(state, state.index(cell)),
             lambda: grid.base_policies["priority-greedy"].action(state)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"off the 5x5 grid at {cell!r}")):
            call()


def test_a_grid_move_off_the_grid_prices_at_infinity_and_cannot_be_applied(grid):
    state = ((0, 2), (2, 0))
    assert grid.problem.stage_cost(state, ("up", "stay")) == float("inf")
    with pytest.raises(ValueError, match="leaves the grid"):
        grid.problem.dynamics(state, ("up", "stay"))
    with pytest.raises(KeyError):
        grid.problem.stage_cost(state, ("jump", "stay"))



def test_the_tour_states_are_closed_under_every_finite_move(tour):
    """The tour's stopping test holds every state a run can reach: every
    recorded sample is a tour state, and so is the successor of every
    finite-cost move from one. It reads whether the state is a complete
    tour, and raises a ValueError naming anything else."""
    problem = tour.problem
    frontier = [e.state for sset in tour.sample_sets.values() for e in sset.entries()] + ["B"]
    seen = set()
    while frontier:
        seq = frontier.pop()
        if seq in seen:
            continue
        seen.add(seq)
        assert problem.is_stopping(seq) == (seq[1:].endswith("A") and set(seq) == set("ABCD"))
        for city in problem.control_set(seq).controls:
            if problem.stage_cost(seq, city) < float("inf"):
                frontier.append(problem.dynamics(seq, city))
    assert {"A", "ABDCA", "BCDA"} <= seen and len(seen) > 20
    for bad in ("Z", "ZA", "", "AA", "ABB", "ABCDAA", "BA", ["A"]):
        with pytest.raises(ValueError, match="is not a tour state"):
            problem.is_stopping(bad)
