"""Exact lookahead against a no-memo reference, plus the restriction layer."""

import ast
import dataclasses
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddrollout
from ddrollout import (
    AssumptionViolationError,
    AugmentedState,
    FiniteControls,
    InitialInfeasibilityError,
    Policy,
    ProblemDef,
    SolverConfig,
    build_from_trajectory,
    engine,
    merge,
    run_multiagent,
    simulate_policy,
)
from ddrollout.catalog import _NEXT
from ddrollout.costs import INF
from ddrollout.lookahead import (
    _SELF_KEYED,
    LookaheadSolution,
    _Search,
    base_plan,
    solve,
    solve_discrete,
    solve_restricted,
    walk,
)
from ddrollout.model import state_key
from ddrollout.shooting import solve_continuous

from conftest import make_random_instance, nested_pair, plain_lookahead


def _cfg(ell):
    return replace(SolverConfig(), ell=ell)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_solver_matches_plain_recursion_bit_for_bit(seed, ell):
    problem, base, n, _ = make_random_instance(seed)
    traj = simulate_policy(problem, base, n - 1)
    sset = build_from_trajectory(traj)
    for x in range(n):
        got = solve_discrete(problem, sset, x, _cfg(ell)).value
        assert got == plain_lookahead(problem, sset, x, ell)


def test_value_is_the_plan_objective():
    problem, base, n, _ = make_random_instance(99)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    sol = solve_discrete(problem, sset, n - 1, _cfg(3))
    # replaying the returned plan reproduces the reported value exactly
    assert walk(problem, n - 1, sol.controls).price(sset.terminal_cost) == sol.value


def test_infeasible_when_terminal_unreachable():
    # one state looping on itself, sample set elsewhere
    problem = ProblemDef(
        dynamics=lambda x, u: "loop",
        stage_cost=lambda x, u: 1.0,
        control_set=lambda x: FiniteControls((0,)),
    )
    from ddrollout import SampleEntry, ExplicitSampleSet

    sset = ExplicitSampleSet([SampleEntry("goal", 0.0, "p", "goal")], label="goal")
    sol = solve_discrete(problem, sset, "loop", _cfg(2))
    assert sol.value == INF
    assert sol.controls == ()
    assert sol.terminal_state is None


def test_ties_break_toward_the_smallest_control_sequence():
    nxt = {("s", 0): "a", ("s", 1): "b", ("a", 0): "t", ("a", 1): "t",
           ("b", 0): "t", ("b", 1): "t", ("t", 0): "t", ("t", 1): "t"}
    problem = ProblemDef(
        dynamics=lambda x, u: nxt[(x, u)],
        stage_cost=lambda x, u: 0.0 if x == "t" else 1.0,
        control_set=lambda x: FiniteControls((0, 1)),
    )
    from ddrollout import SampleEntry, ExplicitSampleSet

    sset = ExplicitSampleSet([SampleEntry("t", 0.0, "p", "t")], label="t")
    sol = solve_discrete(problem, sset, "s", _cfg(2))
    assert sol.value == 2.0
    assert sol.controls == (0, 0)


def test_per_stage_values_start_at_the_terminal_cost():
    problem, base, n, _ = make_random_instance(7)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    x = n - 1
    sol = solve_discrete(problem, sset, x, _cfg(3))
    assert len(sol.per_stage_values) == 4
    assert sol.per_stage_values[0] == sset.terminal_cost(x)
    assert sol.per_stage_values[3] == sol.value


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_richer_sample_sets_never_hurt(seed, ell):
    problem, base, n, _ = make_random_instance(seed)
    small, big = nested_pair(problem, base, n, seed)
    for x in range(n):
        v_small = solve_discrete(problem, small, x, _cfg(ell)).value
        v_big = solve_discrete(problem, big, x, _cfg(ell)).value
        assert v_big <= v_small


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_value_iteration_is_pointwise_monotone(seed):
    problem, base, n, _ = make_random_instance(seed)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    memo = {}
    for x in range(n):
        js = solve_discrete(problem, sset, x, _cfg(4), memo=memo).per_stage_values
        for k in range(4):
            assert js[k + 1] <= js[k], (x, js)


def test_vi_row_zero_is_the_terminal_cost():
    problem, base, n, _ = make_random_instance(13)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    memo = {}
    for x in range(n):
        js = solve_discrete(problem, sset, x, _cfg(2), memo=memo).per_stage_values
        assert js[0] == sset.terminal_cost(x)


def test_restriction_to_the_base_control_reproduces_recorded_values():
    problem, base, n, _ = make_random_instance(31)
    traj = simulate_policy(problem, base, n - 1)
    sset = build_from_trajectory(traj)
    only_base = lambda x: FiniteControls((0,))
    for x in traj.states:
        sol = solve_restricted(problem, sset, x, only_base, _cfg(2), policy=base)
        assert sol.value == sset.terminal_cost(x)


def test_restriction_must_keep_the_base_action_at_members():
    problem, base, n, m = make_random_instance(31)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    no_base = lambda x: FiniteControls(tuple(range(1, m)))
    with pytest.raises(AssumptionViolationError):
        solve_restricted(problem, sset, n - 1, no_base, _cfg(2), policy=base)


def test_a_restricted_search_stops_at_the_first_member_it_expands(grid):
    """The search checks a state's restricted set when it first tables the
    state's moves, one depth at a time from the root down. With the base
    action dropped at every member but the start, the first member tabled
    is the start's successor on the recorded run, one depth below the
    root, at both lookahead depths."""
    policy = next(iter(grid.base_policies.values()))
    sset, x0 = grid.sample_sets["trajectory"], grid.start_states[0]

    def drop_base(state):
        spec = grid.problem.control_set(state)
        if state == x0 or not sset.contains(state):
            return spec
        return FiniteControls(tuple(u for u in spec.controls if u != policy.action(state)))

    for ell, state in ((4, ((1, 2), (2, 1))), (6, ((1, 2), (2, 1)))):
        with pytest.raises(AssumptionViolationError) as err:
            solve_restricted(grid.problem, sset, x0, drop_base, _cfg(ell), policy=policy)
        assert f"at member state {state!r} omits" in str(err.value)


def _tied_instance(seed):
    """A make_random_instance-style problem whose stage costs are 0, 1, 2 or
    +inf, so equal values, and equal tails, are common."""
    rnd = random.Random(seed)
    n, m = rnd.randint(4, 12), rnd.randint(2, 4)
    nxt = [[rnd.randrange(n) for _ in range(m)] for _ in range(n)]
    cost = [[rnd.choice((0.0, 1.0, 1.0, 2.0, INF)) for _ in range(m)] for _ in range(n)]
    for x in range(1, n):
        nxt[x][0], cost[x][0] = rnd.randrange(x), float(rnd.randint(0, 2))
    problem = ProblemDef(dynamics=lambda x, u: nxt[x][u], stage_cost=lambda x, u: cost[x][u],
                         control_set=lambda x: FiniteControls(tuple(range(m))),
                         stopping_predicate=lambda x: x == 0)
    base = ddrollout.Policy(action=lambda x: 0, id="tree")
    return problem, build_from_trajectory(simulate_policy(problem, base, n - 1)), n, m


class _Reference:
    """The documented rule by plain recursion: least value, then least tail,
    then first in sorted control order. expanded counts the (state, depth)
    nodes it evaluates, each once."""

    def __init__(self, problem, sset, ell, controls_at):
        self.problem, self.sset, self.ell, self.controls_at = problem, sset, ell, controls_at
        self.memo, self.expanded = {}, 0

    def best(self, x, depth):
        if (state_key(x), depth) not in self.memo:
            self.memo[(state_key(x), depth)] = self._expand(x, depth)
        return self.memo[(state_key(x), depth)]

    def _expand(self, x, depth):
        self.expanded += 1
        if depth == 0:
            v = self.sset.terminal_cost(x)
            return (v, (), x, self.sset.sample_id(x)) if v < INF else (v, (), None, None)
        out, out_tail = (INF, (), None, None), INF
        for u in sorted(self.controls_at(x, self.ell - depth).controls):
            g = self.problem.stage_cost(x, u)
            if g == INF:
                continue
            tail = self.best(self.problem.dynamics(x, u), depth - 1)
            if tail[0] < INF and (g + tail[0], tail[0]) < (out[0], out_tail):
                out, out_tail = (g + tail[0], (u,) + tail[1], tail[2], tail[3]), tail[0]
        return out


def _bits(value, controls, terminal, sid):
    return repr((value, controls, None if terminal is None else state_key(terminal), sid))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_the_layered_search_matches_a_recursive_reference(seed, ell):
    """Values, plans, terminal states and sample ids agree bit for bit with
    the rule's plain recursion, for step-independent, step-dependent and
    restricted control maps, and the search evaluates exactly the nodes the
    recursion expands: over solves sharing one memo, and over searches of
    different step-dependent maps sharing one move table."""
    problem, sset, n, m = _tied_instance(seed)
    full = _Reference(problem, sset, ell, lambda x, k: problem.control_set(x))
    memo = {}
    for x in range(n):
        before = full.expanded
        sol = solve_discrete(problem, sset, x, _cfg(ell), memo=memo)
        assert _bits(sol.value, sol.controls, sol.terminal_state, sol.terminal_sample_id) \
            == _bits(*full.best(x, ell))
        assert repr(sol.per_stage_values) == repr(tuple(full.best(x, k)[0]
                                                        for k in range(ell + 1)))
        assert sol.diagnostics["nodes"] == full.expanded - before

    tables = {}
    for shift in (0, 1):
        def by_step(x, k, _shift=shift):
            return FiniteControls(tuple(u for u in range(m) if u == 0 or (x + k + _shift) % u))
        for x in range(n):
            ref = _Reference(problem, sset, ell, by_step)
            search = _Search(problem, sset, ell, by_step, tables=tables)
            found = LookaheadSolution(*search.best(x, ell))  # (value, walk, sample id)
            assert _bits(found.value, found.controls, found.terminal_state,
                         found.terminal_sample_id) == _bits(*ref.best(x, ell))
            assert search.evaluated == ref.expanded

    def odd_out(x):
        return FiniteControls(tuple(u for u in range(m) if u == 0 or (x + u) % 2))
    for x in range(n):
        sol = solve_restricted(problem, sset, x, odd_out, _cfg(ell))
        ref = _Reference(problem, sset, ell, lambda s, k: odd_out(s))
        assert _bits(sol.value, sol.controls, sol.terminal_state, sol.terminal_sample_id) \
            == _bits(*ref.best(x, ell))


def test_a_deep_lookahead_has_no_depth_limit(tour):
    """Nothing in the search recurses, so Python's recursion limit does not
    bound its depth (a recursive search overflowed at l = 992). At l = 2000
    each stored tour set gives its l = 991 value: completed tours are
    absorbing and cost-free."""
    want = {"cdb": 11.0, "bcd": 7.0, "merged": 7.0, "merged+abd": 4.0, "abd": 4.0}
    assert set(tour.sample_sets) == set(want)
    for name, sset in tour.sample_sets.items():
        sol = solve(tour.problem, sset, "A", _cfg(2000))
        assert sol.value == want[name] and len(sol.controls) == 2000
        assert walk(tour.problem, "A", sol.controls).price(sset.terminal_cost) == sol.value


def _walks_its_plan(problem, sset, x, sol) -> bool:
    """Whether sol carries its plan simulated afresh from x: the same states
    (by state_key) and stage costs, as Python floats, with its walk pricing
    to its value bit for bit. An infeasible solution has no walk."""
    if sol.value == INF:
        return sol.walk is None
    fresh = walk(problem, x, tuple(sol.controls))
    return ([state_key(s) for s in sol.walk.states] == [state_key(s) for s in fresh.states]
            and sol.walk.costs == fresh.costs
            and all(type(g) is float for g in sol.walk.costs)
            and sol.walk.price(sset.terminal_cost) == sol.value)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_every_discrete_solution_walks_its_plan(seed, ell):
    """Every exact and restricted solve on a random instance returns the walk
    of its plan, read from its move table, as a fresh simulation gives it."""
    problem, base, n, m = make_random_instance(seed)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    memo = {}
    for x in range(n):
        sol = solve_discrete(problem, sset, x, _cfg(ell), memo=memo)
        assert _walks_its_plan(problem, sset, x, sol)
        odd_out = solve_restricted(problem, sset, x, lambda s: FiniteControls(
            tuple(u for u in range(m) if u == 0 or (s + u) % 2)), _cfg(ell))
        assert _walks_its_plan(problem, sset, x, odd_out)


_CELLS = sorted(_NEXT)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_CELLS), min_size=2, max_size=2, unique=True),
       st.integers(1, 6))
def test_every_grid_solution_walks_its_plan(grid, cells, ell):
    """From a random two-vehicle start, every step of an agent-by-agent
    rollout and a restricted solve that pins the second vehicle to its base
    move return the walk of their plans, as a fresh simulation gives it."""
    problem, sset = grid.problem, grid.sample_sets["trajectory"]
    policy, x0 = next(iter(grid.base_policies.values())), tuple(cells)
    drive, steps = engine._drive, []

    def noting(*args, **kwargs):
        step = args[5]

        def noted(x, prev):
            sol, report = step(x, prev)
            steps.append((x, sol))
            return sol, report
        return drive(*args[:5], noted, *args[6:], **kwargs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(engine, "_drive", noting)
        try:
            run_multiagent(problem, sset, x0, _cfg(ell), 6, grid.partition, policy)
        except InitialInfeasibilityError:
            pass
    assert steps and all(_walks_its_plan(problem, sset, x, sol) for x, sol in steps)

    def pin_second(state):
        fixed = policy.action(state)[1]
        return FiniteControls(tuple((m, fixed) for m in grid.partition.options(state, 0)))
    sol = solve_restricted(problem, sset, x0, pin_second, _cfg(ell))
    assert _walks_its_plan(problem, sset, x0, sol)


def test_restricted_value_is_sandwiched():
    problem, base, n, m = make_random_instance(17)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    full = solve_discrete(problem, sset, n - 1, _cfg(3)).value
    only_base = lambda x: FiniteControls((0,))
    restricted = solve_restricted(problem, sset, n - 1, only_base, _cfg(3),
                                  policy=base).value
    assert full <= restricted <= sset.terminal_cost(n - 1)


def test_solve_dispatches_to_the_discrete_backend(integrator):
    """A problem without piecewise-linear structure is enumerated; one with
    it goes to shooting, seeds included."""
    problem, base, n, _ = make_random_instance(3)
    sset = build_from_trajectory(simulate_policy(problem, base, n - 1))
    a = solve(problem, sset, n - 1, _cfg(2))
    b = solve_discrete(problem, sset, n - 1, _cfg(2))
    assert a.value == b.value and a.controls == b.controls

    problem, sset = integrator.problem, integrator.sample_sets["trajectory"]
    policy = next(iter(integrator.base_policies.values()))
    x0 = integrator.start_states[0]
    seed = (np.full(1, -0.5),) * 4
    seeds = [seed, base_plan(problem, policy, x0, 4)]
    a = solve(problem, sset, x0, _cfg(4), seeds=seeds)
    b = solve_continuous(problem, sset, x0, _cfg(4), seeds=seeds)
    assert a.value == b.value < INF
    assert np.array_equal(np.concatenate(a.controls), np.concatenate(b.controls))
    assert repr(a.diagnostics) == repr(b.diagnostics)


def test_every_solver_config_field_is_read():
    """Each SolverConfig knob is read somewhere in the package.

    The package names its configs cfg, mpc_cfg, run.config or
    bundle.solver_defaults, so a read is an attribute load on one of those
    names; the class body itself does not count.
    """
    receivers = {"cfg", "mpc_cfg", "config", "solver_defaults"}
    read = set()
    for path in Path(ddrollout.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        own = set()
        if path.name == "lookahead.py":
            cls = next(n for n in tree.body
                       if isinstance(n, ast.ClassDef) and n.name == "SolverConfig")
            own = {id(n) for n in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in own:
                base = node.value
                name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                if name in receivers:
                    read.add(node.attr)
    unread = {f.name for f in dataclasses.fields(SolverConfig)} - read
    assert not unread, f"SolverConfig fields nothing reads: {sorted(unread)}"


def _restated(problem, base, wrap, unwrap):
    """problem and its base policy over the states wrap(x)."""
    return (ProblemDef(dynamics=lambda s, u: wrap(problem.dynamics(unwrap(s), u)),
                       stage_cost=lambda s, u: problem.stage_cost(unwrap(s), u),
                       control_set=lambda s: problem.control_set(unwrap(s)),
                       stopping_predicate=lambda s: problem.is_stopping(unwrap(s)),
                       name=problem.name),
            Policy(action=lambda s: base.action(unwrap(s)), id=base.id))


_FORMS = {
    "vector": (lambda x: np.array([float(x)]), lambda s: int(s[0])),
    "augmented": (lambda x: AugmentedState(x, 1.0), lambda s: s.base),
    "augmented vector": (lambda x: AugmentedState(np.array([float(x)]), 1.0),
                         lambda s: int(s.base[0])),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("seed", range(6))
def test_a_problem_restated_over_other_states_searches_alike(form, seed):
    """The same problem over int states and over 1-D vectors or augmented
    states: one key per state whatever its type, so the same values, plans
    and rows over a run of solves sharing a memo."""
    wrap, unwrap = _FORMS[form]
    problem, base, n, _ = make_random_instance(seed)
    other, other_base = _restated(problem, base, wrap, unwrap)
    starts = random.Random(seed).sample(range(1, n), min(3, n - 1))
    sets = [build_from_trajectory(simulate_policy(p, b, x(starts[0])))
            for p, b, x in ((problem, base, int), (other, other_base, wrap))]
    memos = [{}, {}]
    for x in starts:
        sols = [solve_discrete(p, s, x0, _cfg(3), memo=m)
                for p, s, x0, m in zip((problem, other), sets, (x, wrap(x)), memos)]
        a, b = sols
        assert (a.value, a.controls, a.per_stage_values, a.diagnostics) == \
            (b.value, b.controls, b.per_stage_values, b.diagnostics)
        assert a.terminal_state == (None if b.terminal_state is None
                                    else unwrap(b.terminal_state))


def test_a_token_state_is_its_own_key():
    """The search keys a successor of a token type by the state itself."""
    for x in (((0, 2), (2, 0)), "ABD", 3, 2.5):
        assert type(x) in _SELF_KEYED and state_key(x) is x
