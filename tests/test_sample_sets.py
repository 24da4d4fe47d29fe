import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrollout import (
    AnalyticSampleSet,
    AugmentedState,
    BudgetSampleSet,
    ExplicitSampleSet,
    FreeTerminal,
    Policy,
    SampleEntry,
    UnusableTrajectoryError,
    build_from_trajectory,
    merge,
    simulate_policy,
    verify_invariance,
)
from ddrollout import budget as budget_module
from ddrollout import shooting
from ddrollout.costs import INF
from ddrollout.model import Trajectory

from conftest import make_random_instance


def _base_set(seed, start=None):
    problem, base, n, _ = make_random_instance(seed)
    traj = simulate_policy(problem, base, start if start is not None else n - 1)
    return problem, base, build_from_trajectory(traj, label="run")


def test_built_set_records_cost_to_go_and_successors():
    problem, base, sset = _base_set(11)
    for e in sset.entries():
        if e.state == 0:
            assert e.value == 0.0
            assert e.successor == 0  # recorded fixed point at the stop state
        else:
            succ = sset.lookup(e.successor)
            assert succ is not None
            assert e.value == problem.stage_cost(e.state, 0) + succ.value


def test_build_requires_tail_costs():
    traj = Trajectory(states=(2, 1), controls=(0,), stage_costs=(1.0,),
                      policy_id="p", terminated_in_stopping_set=False)
    with pytest.raises(UnusableTrajectoryError):
        build_from_trajectory(traj)


def test_vector_lookup_tolerates_eps_perturbation():
    e = SampleEntry(np.array([1.0, -2.0]), 3.0, "p", np.array([1.0, -2.0]))
    sset = ExplicitSampleSet([e], label="one")
    assert sset.contains(np.array([1.0, -2.0]) + 2e-10)
    assert not sset.contains(np.array([1.0, -2.0]) + 1e-6)
    assert sset.terminal_cost(np.array([5.0, 5.0])) == INF


def test_lookup_far_past_the_grid_is_no_member(recwarn):
    """A component whose cell index overflows a float (above ~1.8e299 at
    EPS_STATE = 1e-9) is beyond every indexed state: no member, no warning."""
    sset = ExplicitSampleSet([SampleEntry(np.array([1.0, -2.0]), 3.0, "p")], label="one")
    for x in ([1e300, -2.0], [-1e308, 0.0], [1.0, np.inf]):
        assert sset.lookup(np.array(x)) is None
        assert sset.terminal_cost(np.array(x)) == INF
    assert not recwarn.list


def test_duplicate_states_rejected():
    e = SampleEntry("A", 1.0, "p", "A")
    with pytest.raises(ValueError):
        ExplicitSampleSet([e, e], label="dup")


def test_merge_keeps_pointwise_minimum_with_earliest_tie():
    a = ExplicitSampleSet([SampleEntry("x", 5.0, "p1", "x"),
                           SampleEntry("y", 2.0, "p1", "y")], label="a")
    b = ExplicitSampleSet([SampleEntry("x", 3.0, "p2", "x"),
                           SampleEntry("y", 2.0, "p2", "y"),
                           SampleEntry("z", 1.0, "p2", "z")], label="b")
    m = merge([a, b])
    assert m.terminal_cost("x") == 3.0 and m.lookup("x").policy_id == "p2"
    # tie at y: the earliest argument wins
    assert m.lookup("y").policy_id == "p1"
    assert m.terminal_cost("z") == 1.0
    assert set(m.policy_ids) == {"p1", "p2"}


def test_merge_never_raises_values():
    problem, base, n, _ = make_random_instance(21)
    t1 = simulate_policy(problem, base, n - 1)
    t2 = simulate_policy(problem, base, n // 2)
    s1 = build_from_trajectory(t1, label="one")
    m = merge([s1, build_from_trajectory(t2, label="two")])
    for e in s1.entries():
        assert m.terminal_cost(e.state) <= e.value


def test_invariance_passes_on_base_built_sets():
    problem, base, sset = _base_set(5)
    report = verify_invariance(problem, base, sset)
    assert report.passed
    assert report.checked == len(sset)


def test_invariance_detects_a_broken_successor():
    problem, base, sset = _base_set(5)
    entries = list(sset.entries())
    victim = next(e for e in entries if e.state != 0)
    entries[entries.index(victim)] = SampleEntry(
        victim.state, victim.value, victim.policy_id, successor=victim.state)
    broken = ExplicitSampleSet(entries, label="broken")
    report = verify_invariance(problem, base, broken)
    assert not report.passed
    assert any(v.reason == "recorded successor mismatch" for v in report.violations)


def test_invariance_requires_a_policy_per_id():
    problem, base, sset = _base_set(5)
    with pytest.raises(KeyError):
        verify_invariance(problem, {"other": base}, sset)
    with pytest.raises(TypeError):
        verify_invariance(problem, [base], sset)


def test_explicit_verify_takes_one_policy_or_a_mapping_by_id():
    """As verify_invariance does, verify reads a single Policy as every id's
    policy, and a mapping without the set's policy id is a KeyError naming
    the id."""
    problem, base, sset = _base_set(5)
    checks = list(sset.verify(problem, base, np.random.default_rng(0), 10))
    assert checks == list(sset.verify(problem, {"tree": base}, np.random.default_rng(0), 10))
    checked = sum(e.successor is not None for e in sset.entries())
    assert [(passed, line) for passed, line, _ in checks] == [
        (True, f"invariance: PASS ({len(sset)} members)"),
        (True, f"fixed-point: PASS ({checked} states checked)")]
    with pytest.raises(KeyError, match="'tree'"):
        list(sset.verify(problem, {"other": base}, np.random.default_rng(0), 10))


def test_analytic_set_membership_and_sampled_invariance():
    # closed disk under a linear contraction: invariant and quadratic-valued
    p = np.eye(2) * 2.0
    a = np.eye(2) * 0.5
    problem_dyn = lambda x, u: a @ x

    sset = AnalyticSampleSet(
        label="disk",
        policy_id="contract",
        contains_fn=lambda x: float(x @ x) <= 1.0 + 1e-12,
        value_fn=lambda x: float(x @ p @ x),
        sample_member=lambda rng: _disk_point(rng),
        quadratic=p,
    )
    from ddrollout import ProblemDef

    problem = ProblemDef(dynamics=problem_dyn, stage_cost=lambda x, u: 0.0,
                         control_set=lambda x: None)
    pol = Policy(action=lambda x: None, id="contract")
    passed, line, _ = next(sset.verify(problem, pol, np.random.default_rng(0), 200))
    assert passed and line == "invariance: PASS (200 sampled members)"
    assert sset.contains(np.zeros(2))
    assert not sset.contains(np.array([2.0, 0.0]))
    assert sset.terminal_cost(np.array([0.5, 0.0])) == 0.5


def test_analytic_verify_reports_a_successor_outside_the_set():
    # members of the unit disk under a doubling map leave the disk
    sset = AnalyticSampleSet(
        label="disk", policy_id="double",
        contains_fn=lambda x: float(x @ x) <= 1.0,
        value_fn=lambda x: 0.0,
        sample_member=_disk_point,
    )
    from ddrollout import ProblemDef

    problem = ProblemDef(dynamics=lambda x, u: 2.0 * x, stage_cost=lambda x, u: 0.0,
                         control_set=lambda x: None)
    pol = Policy(action=lambda x: None, id="double")
    checks = list(sset.verify(problem, {"double": pol}, np.random.default_rng(0), 50))
    passed, line, failures = checks[0]
    assert not passed and line is None
    assert failures and "successor not a member" in failures[0]


def _disk_point(rng):
    while True:
        x = rng.uniform(-1.0, 1.0, size=2)
        if float(x @ x) <= 1.0:
            return x


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_any_base_built_set_is_invariant(seed):
    problem, base, n, _ = make_random_instance(seed)
    traj = simulate_policy(problem, base, n - 1)
    sset = build_from_trajectory(traj)
    assert verify_invariance(problem, base, sset).passed


def _member_of(kind, request):
    if kind == "explicit":
        sset = request.getfixturevalue("spiral").sample_sets["trajectory-0"]
        return sset, sset.entries()[3].state + 2e-10  # within the state tolerance
    if kind == "merged":
        sset = request.getfixturevalue("tour").sample_sets["merged"]
        return sset, sset.entries()[2].state
    if kind == "analytic":
        return request.getfixturevalue("spiral").sample_sets["disk"], np.array([3.0, -4.0])
    sset = request.getfixturevalue("integrator").augmented_sets["budget"]
    return sset, AugmentedState(sset.seed.states[5], sset.tail_usages[5] + 0.01)


@pytest.mark.parametrize("kind", ["explicit", "merged", "analytic", "budget"])
def test_member_cost_is_the_value_of_its_certifying_sample(kind, request):
    sset, x = _member_of(kind, request)
    assert sset.contains(x)
    sid = sset.sample_id(x)
    assert (sid is None) == (kind == "analytic")  # a predicate set has no samples
    assert sset.terminal_cost(x) < INF


def _shooting_sets(spiral, integrator):
    """(set, state) for every terminal set the shooting solver meets."""
    x = np.array([2.0, -1.0])
    for sset in spiral.sample_sets.values():
        yield sset, x
    yield merge([spiral.sample_sets["trajectory-0"], spiral.sample_sets["trajectory-1"]]), x
    yield integrator.sample_sets["trajectory"], x
    budget = integrator.augmented_sets["budget"]
    for e in (0.0, 0.1, budget.spec.e_max, INF):
        yield budget, AugmentedState(x, e)
    yield FreeTerminal(integrator.mpc_quadratic), x
    yield FreeTerminal(), x


def test_every_set_gives_one_kind_of_shooting_target(spiral, integrator):
    """One free target with no state or radius, or T pinned states (T x d)
    with their values, and radii only from a budget set; an explicit set's
    arrays are read-only and the same on every call."""
    for sset, x in _shooting_sets(spiral, integrator):
        targets = sset.shooting_targets(x)
        if targets.states is None:
            assert targets.radii is None and targets.values.shape == (1,)
        else:
            assert targets.states.shape == (len(targets.values), 2)
            assert (targets.radii is None) == (not isinstance(sset, BudgetSampleSet))
        if isinstance(sset, ExplicitSampleSet):
            again = sset.shooting_targets(np.zeros(2))
            assert again.states is targets.states and again.values is targets.values
            assert not (targets.states.flags.writeable or targets.values.flags.writeable)
            assert [tuple(s) for s in targets.states] == [tuple(e.state) for e in sset.entries()]
            assert targets.values.tolist() == [e.value for e in sset.entries()]


def test_budget_targets_are_the_steps_the_budget_left_can_finish(integrator):
    budget = integrator.augmented_sets["budget"]
    scale = float(budget.spec.usage_quad[0, 0])
    for e in (0.0, 0.05, 0.1, 0.3, budget.spec.e_max, INF):
        targets = budget.shooting_targets(AugmentedState(np.zeros(2), e))
        kept = [k for k, tail in enumerate(budget.tail_usages) if not tail > e]
        assert targets.radii.tolist() == [math.sqrt((e - budget.tail_usages[k]) / scale)
                                          for k in kept]
        assert targets.values.tolist() == [budget.seed.tail_costs[k] for k in kept]
        assert np.array_equal(targets.states, np.array([budget.seed.states[k] for k in kept])
                              .reshape(-1, 2))
        if e == 0.0:  # the seed's frontier still needs its anchor usage
            assert not kept and targets.states.shape == (0, 2)
        if e >= budget.spec.e_max:
            assert len(kept) == len(budget.seed.states)


def test_a_budget_set_builds_its_target_arrays_once(integrator, monkeypatch):
    """The values, states, tail usages and usage scale are built on the first
    call; later calls, at any budget, only select the steps that fit and
    size their balls, and give what another set of the same seed gives."""
    budget = integrator.augmented_sets["budget"]
    budgets = (0.05, budget.spec.e_max, 0.3, 0.05)
    want = [budget.shooting_targets(AugmentedState(np.zeros(2), e)) for e in budgets]
    fresh = BudgetSampleSet(budget.seed, budget.spec, usages=budget.usages,
                            tail_usages=budget.tail_usages, label="fresh",
                            anchor_usage=budget.anchor_usage)
    scales, usage_scale = [], budget_module._usage_scale
    monkeypatch.setattr(budget_module, "_usage_scale",
                        lambda spec: scales.append(spec) or usage_scale(spec))
    for e, targets in zip(budgets, want):
        got = fresh.shooting_targets(AugmentedState(np.zeros(2), e))
        for field in ("values", "states", "radii"):
            assert getattr(got, field).tobytes() == getattr(targets, field).tobytes()
    assert len(scales) == 1


def test_no_pinned_state_means_no_mismatch(spiral, integrator):
    for sset, x in _shooting_sets(spiral, integrator):
        states = sset.shooting_targets(x).states
        if states is None or not len(states):
            assert shooting._mismatch(x, states) is None
        else:
            assert shooting._mismatch(x, states) >= 0.0
