import ast
import math
from pathlib import Path

import numpy as np
import pytest

import ddrollout
from ddrollout import (
    BoxControls,
    FiniteControls,
    LinearMode,
    PiecewiseLinearStructure,
    Policy,
    ProblemDef,
    Trajectory,
    check_fixed_point,
    check_upper_bound,
    simulate_policy,
    trajectory_cost,
)
from ddrollout.costs import INF
from ddrollout.model import state_key, states_equal

from conftest import make_random_instance


def test_states_equal_tolerates_eps_on_vectors():
    a = np.array([1.0, 2.0])
    assert states_equal(a, a + 5e-10)
    assert not states_equal(a, a + 1e-6)
    assert states_equal("A", "A")
    assert not states_equal("A", "B")
    assert states_equal((1, 2), (1, 2))


def test_no_state_tolerance_knob_is_left():
    """model.EPS_STATE is the one state tolerance: no parameter, dataclass
    field or attribute in the package may carry another."""
    knobs = {"eps", "eps_state", "box_tol"}
    found = []
    for path in Path(ddrollout.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            elif isinstance(node, ast.ClassDef):
                names = [s.target.id for s in node.body
                         if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names = [node.attr]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in knobs]
    assert not found, found


def test_every_exported_name_resolves():
    missing = [name for name in ddrollout.__all__ if not hasattr(ddrollout, name)]
    assert not missing, missing
    assert len(set(ddrollout.__all__)) == len(ddrollout.__all__)
    namespace = {}
    exec("from ddrollout import *", namespace)
    assert set(ddrollout.__all__) <= set(namespace)


def test_state_key_distinguishes_kinds():
    # int 1 and vector [1.] must not collide in memo tables
    assert state_key(1) != state_key(np.array([1.0]))
    assert state_key(np.array([1.0, 2.0])) == state_key(np.array([1.0, 2.0]))


def test_box_controls_contain():
    box = BoxControls(np.array([-1.0]), np.array([1.0]))
    assert box.contains(np.array([0.3]))
    assert not box.contains(np.array([1.5]))


def test_several_modes_need_their_regions():
    mode = LinearMode(np.eye(2), np.ones((2, 1)), np.zeros(2))
    one = PiecewiseLinearStructure(modes=(mode,), q=np.eye(2), r=np.eye(1))
    assert one.mode_of(np.array([-5.0, 3.0])) == 0
    with pytest.raises(ValueError, match="regions"):
        PiecewiseLinearStructure(modes=(mode, mode), q=np.eye(2), r=np.eye(1))


def test_finite_controls_membership():
    fc = FiniteControls(("a", "b"))
    assert fc.contains("a")
    assert not fc.contains("z")


def test_simulate_policy_terminates_and_backfills_tails():
    problem, base, n, _ = make_random_instance(3)
    traj = simulate_policy(problem, base, n - 1)
    assert traj.terminated_in_stopping_set
    assert traj.states[-1] == 0
    assert traj.tail_costs[-1] == 0.0
    # tail recursion identity holds exactly by construction
    for k in range(len(traj)):
        assert traj.tail_costs[k] == traj.stage_costs[k] + traj.tail_costs[k + 1]
    assert trajectory_cost(traj) == traj.tail_costs[0]
    # the record replays: each transition and stage cost is the model's own
    for k, (x, u) in enumerate(zip(traj.states, traj.controls)):
        assert problem.dynamics(x, u) == traj.states[k + 1]
        assert problem.stage_cost(x, u) == traj.stage_costs[k]


def test_simulate_policy_without_stopping_has_no_tails():
    problem = ProblemDef(
        dynamics=lambda x, u: x,
        stage_cost=lambda x, u: 1.0,
        control_set=lambda x: FiniteControls((0,)),
    )
    loop = Policy(action=lambda x: 0, id="loop")
    traj = simulate_policy(problem, loop, "s", max_steps=5)
    assert not traj.terminated_in_stopping_set
    assert traj.tail_costs is None
    assert trajectory_cost(traj) == 5.0


def test_trajectory_shape_is_validated():
    with pytest.raises(ValueError):
        Trajectory(states=("a",), controls=(0,), stage_costs=(1.0,),
                   policy_id="p", terminated_in_stopping_set=False)


def _chain_problem():
    # 2 -> 1 -> 0 with unit costs, 0 absorbing and free
    problem = ProblemDef(
        dynamics=lambda x, u: max(x - 1, 0),
        stage_cost=lambda x, u: 0.0 if x == 0 else 1.0,
        control_set=lambda x: FiniteControls((0,)),
        stopping_predicate=lambda x: x == 0,
    )
    return problem, Policy(action=lambda x: 0, id="down")


def test_check_fixed_point_accepts_the_true_cost():
    problem, policy = _chain_problem()
    report = check_fixed_point(problem, policy, {0: 0.0, 1: 1.0, 2: 2.0}.__getitem__, [1, 2])
    assert report.passed and not report.failures


def test_check_fixed_point_flags_a_perturbed_value():
    problem, policy = _chain_problem()
    report = check_fixed_point(problem, policy, {0: 0.0, 1: 1.0, 2: 2.3}.__getitem__, [1, 2])
    assert not report.passed
    assert [r.state for r in report.failures] == [2]


def test_check_upper_bound_accepts_slack_and_rejects_optimism():
    problem, policy = _chain_problem()
    # inflated values are a valid upper bound, deflated ones are not
    inflated, deflated = {0: 0.0, 1: 1.5, 2: 3.0}, {0: 0.0, 1: 1.0, 2: 1.5}
    assert check_upper_bound(problem, policy, inflated.__getitem__, [1, 2]).passed
    assert not check_upper_bound(problem, policy, deflated.__getitem__, [1, 2]).passed


def test_check_handles_infinite_values():
    problem, policy = _chain_problem()
    # both sides infinite agree; finite claim backed by an infinite successor fails
    report = check_fixed_point(problem, policy, {0: 0.0, 1: INF, 2: INF}.__getitem__, [2])
    assert report.passed
    report = check_fixed_point(problem, policy, {0: 0.0, 1: INF, 2: 5.0}.__getitem__, [2])
    assert not report.passed
    assert math.isinf(report.rows[0].residual)
