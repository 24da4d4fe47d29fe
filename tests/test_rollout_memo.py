"""One memo per rollout: the state-independent lookahead work is done once
per run, and sharing it changes no result."""

import gc
import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ddrollout import (AgentPartition, ExplicitSampleSet, FiniteControls, Policy, ProblemDef,
                       SampleEntry, SolverConfig, boxqp, engine, lookahead, run_classical_mpc,
                       run_multiagent, run_rollout, shooting, solve_restricted)
from ddrollout.budget import AugmentedState, base_view
from ddrollout.cli import main
from ddrollout.costs import INF
from ddrollout.errors import SearchSpaceError
from ddrollout.model import state_key
from ddrollout.sample_sets import FreeTerminal, Targets
from ddrollout.shooting import solve_continuous


def _reference_assemble(pl, x0, sigma, h_r, lo_full, hi_full):
    """Plain per-sequence condensation, one step at a time."""
    ell, d = len(sigma), x0.size
    m = pl.modes[0].b.shape[1]
    width = ell * m
    phis = np.zeros((ell + 1, d))
    gammas = np.zeros((ell + 1, d, width))
    phis[0] = x0
    for k in range(ell):
        mode = pl.modes[sigma[k]]
        gammas[k + 1] = mode.a @ gammas[k]
        gammas[k + 1, :, k * m:(k + 1) * m] += mode.b
        phis[k + 1] = mode.a @ phis[k] + mode.c
    h0, b0, c0 = h_r.copy(), np.zeros(width), 0.0
    for k in range(ell):
        h0 += 2.0 * gammas[k].T @ pl.q @ gammas[k]
        b0 += 2.0 * gammas[k].T @ pl.q @ phis[k]
        c0 += float(phis[k] @ pl.q @ phis[k])
    u_abs = np.maximum(np.abs(lo_full), np.abs(hi_full))
    reach = np.abs(gammas[ell]) @ u_abs
    return phis, gammas, h0, b0, c0, reach


@pytest.mark.parametrize("name,ell", [("spiral", 5), ("integrator", 4)])
def test_batched_condensation_matches_a_per_sequence_loop(request, name, ell):
    pl = request.getfixturevalue(name).problem.pl
    rng = np.random.default_rng(3)
    lo, hi = -rng.uniform(0.5, 2.0, ell), rng.uniform(0.5, 2.0, ell)
    h_r = 2.0 * np.kron(np.eye(ell), pl.r)
    sigmas = np.array(list(itertools.product(range(len(pl.modes)), repeat=ell)))
    for x0 in rng.uniform(-9.0, 9.0, (4, 2)):
        cond = shooting._assemble(pl, x0, sigmas, h_r, lo, hi)
        assert len(cond.sigmas) > 0
        for i, sigma in enumerate(cond.sigmas):  # the sequences _assemble keeps
            ref = _reference_assemble(pl, x0, tuple(sigma), h_r, lo, hi)
            got = (cond.phis[i], cond.gammas[i], cond.h0[i], cond.b0[i], cond.c0[i],
                   cond.reach[i])
            for g, r in zip(got, ref):
                scale = max(1.0, float(np.abs(r).max()))
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * scale)
            # b0 splits into its x0-linear part and its offset
            np.testing.assert_allclose(cond.b_x[i] @ x0 + cond.b_c[i], ref[3], rtol=1e-12,
                                       atol=1e-12 * max(1.0, float(np.abs(ref[3]).max())))


def _solves(monkeypatch, share: bool):
    """Record the memo each rollout step's solve is handed, and pass it on
    only if share."""
    seen = []

    def solve(*args, memo=None, **kwargs):
        seen.append(memo)
        return lookahead.solve(*args, memo=memo if share else None, **kwargs)

    monkeypatch.setattr(engine, "solve", solve)
    return seen


def test_grid_rollout_with_its_memo_matches_memo_less_solves_bit_for_bit(grid, tour,
                                                                          monkeypatch):
    """Also on the tour's three table sets. A shared memo carries each
    state's transition table from solve to solve as well as the values."""
    cases = [(grid, "trajectory", 6), (grid, "trajectory", 8),
             (tour, "cdb", 2), (tour, "merged", 2), (tour, "merged+abd", 2)]
    for bundle, set_name, ell in cases:
        policy = next(iter(bundle.base_policies.values()))
        args = (bundle.problem, bundle.sample_sets[set_name], bundle.start_states[0],
                replace(bundle.solver_defaults, ell=ell), 40)
        seen = _solves(monkeypatch, share=True)
        shared = run_rollout(*args, base_policy=policy)
        _solves(monkeypatch, share=False)
        alone = run_rollout(*args, base_policy=policy)
        assert repr(shared) == repr(alone)
        # every step was handed the same memo
        assert len(seen) == shared.steps and all(m is seen[0] for m in seen)
        assert len(seen[0]) > 0


def test_a_rollout_computes_each_move_of_the_discrete_search_once(grid, monkeypatch):
    """A state's moves are tabled on its first expansion and read at every
    later depth and solve, so over a whole rollout the search calls
    stage_cost and dynamics at most once per (state, control) pair. (Expanding
    each (state, depth) node afresh makes 56,205 and 53,879 calls here.)"""
    calls = {"stage_cost": Counter(), "dynamics": Counter()}
    searching = [False]

    def counted(name, fn):
        def wrapped(x, u):
            if searching[0]:
                calls[name][(x, u)] += 1
            return fn(x, u)
        return wrapped

    def solve(*args, **kwargs):
        searching[0] = True
        try:
            return lookahead.solve(*args, **kwargs)
        finally:
            searching[0] = False

    monkeypatch.setattr(engine, "solve", solve)
    problem = replace(grid.problem, **{name: counted(name, getattr(grid.problem, name))
                                       for name in calls})
    policy = next(iter(grid.base_policies.values()))
    run = run_rollout(problem, grid.sample_sets["trajectory"], grid.start_states[0],
                      replace(grid.solver_defaults, ell=8), 40, base_policy=policy)
    assert run.status == "stopped" and len(run.per_step_values) == 5
    assert max(calls["stage_cost"].values()) == max(calls["dynamics"].values()) == 1
    # only the moves stage_cost prices finite have a successor
    assert set(calls["dynamics"]) < set(calls["stage_cost"])
    assert sum(calls["stage_cost"].values()) < 10_000


def test_the_agent_by_agent_search_tables_each_move_once(grid, monkeypatch):
    """Every search of an agent-by-agent rollout shares one table of each
    state's moves per control set, so over the whole rollout the searches
    call stage_cost and dynamics at most once per (state, control set); and
    a search whose plan has not moved since that agent's last one is
    skipped. (Without either, the searches make 9,435 stage_cost calls
    here, up to 99 for one pair, in 20 searches.)"""
    calls = {"stage_cost": Counter(), "dynamics": Counter()}
    searching = [False]
    control_set = {}
    searches = []

    class Search(lookahead._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)
            controls_at = self.controls_at

            def noted(state, k):
                spec = controls_at(state, k)
                control_set[state] = tuple(sorted(spec.controls))
                return spec
            self.controls_at = noted

        def best(self, state, depth):
            searching[0] = True
            try:
                return super().best(state, depth)
            finally:
                searching[0] = False

    def counted(name, fn):
        def wrapped(x, u):
            if searching[0]:
                calls[name][(x, control_set[x], u)] += 1
            return fn(x, u)
        return wrapped

    monkeypatch.setattr(engine, "_Search", Search)
    problem = replace(grid.problem, **{name: counted(name, getattr(grid.problem, name))
                                       for name in calls})
    policy = next(iter(grid.base_policies.values()))
    run = run_multiagent(problem, grid.sample_sets["trajectory"], grid.start_states[0],
                         replace(grid.solver_defaults, ell=8), 40, grid.partition, policy)
    assert run.status == "stopped"
    assert len(searches) == 11
    assert max(calls["stage_cost"].values()) == max(calls["dynamics"].values()) == 1
    assert sum(calls["stage_cost"].values()) < 1_000


def _naive_multiagent(problem, sset, x0, cfg, horizon, partition, policy, sweeps):
    """Agent-by-agent rollout with a fresh search, and a fresh move table,
    for every agent in every sweep, and every plan simulated afresh."""

    def step(x, prev):
        value, plan = INF, None
        shifted = None if prev is None else \
            prev.controls[1:] + (policy.action(base_view(prev.terminal_state)),)
        for cand in (lookahead.base_plan(problem, policy, x, cfg.ell), shifted):
            if cand is not None:
                v = lookahead.walk(problem, x, cand).price(sset.terminal_cost)
                if plan is None or v < value:
                    value, plan = v, cand
        if value == INF:
            return lookahead.LookaheadSolution(INF), None
        sweep_values = [value]
        for _ in range(sweeps):
            for agent in partition.agents:
                def controls_at(state, k, _plan=plan, _agent=agent):
                    return FiniteControls(tuple(partition.combine(_plan[k], _agent, o)
                                                for o in partition.options(state, _agent)))
                search = lookahead._Search(problem, sset, cfg.ell, controls_at, tables={})
                v, found, _ = search.best(x, cfg.ell)
                if v < value:
                    value, plan = v, found
            sweep_values.append(value)
        plan = lookahead.walk(problem, x, tuple(plan))
        return (lookahead.LookaheadSolution(value, plan),
                {"value": value, "sample_id": sset.sample_id(plan.states[-1]),
                 "sweep_values": tuple(sweep_values)})

    return engine._drive(problem, sset, x0, cfg, horizon, step, variant="multiagent",
                         policy_id="multiagent-rollout")


@pytest.mark.parametrize("ell", [4, 8])
@pytest.mark.parametrize("sweeps", [0, 1, 2, 3])
def test_skipping_searches_and_sharing_their_tables_changes_no_rollout(grid, ell, sweeps):
    args = (grid.problem, grid.sample_sets["trajectory"], grid.start_states[0],
            replace(grid.solver_defaults, ell=ell), 40, grid.partition,
            next(iter(grid.base_policies.values())))
    run = run_multiagent(*args, sweeps=sweeps)
    naive = _naive_multiagent(*args, sweeps)
    assert run.trajectory == naive.trajectory and run.status == naive.status
    assert run.per_step_values == naive.per_step_values
    assert run.solver_reports == naive.solver_reports


def test_an_agent_searches_again_once_another_agent_moved_the_plan():
    """One joint step of two agents choosing 0 or 1. From the base plan
    (0, 0) only agent 1 can improve alone, to (0, 1); only then can agent 0
    reach (1, 1). Sweep 2 must therefore search agent 0 again."""
    price = {(0, 0): 3.0, (0, 1): 2.0, (1, 0): 4.0, (1, 1): 0.0}
    problem = ProblemDef(
        dynamics=lambda x, u: "end",
        stage_cost=lambda x, u: price[u] if x == "start" else INF,
        control_set=lambda x: FiniteControls(tuple(price)),
        stopping_predicate=lambda x: x == "end")
    sset = ExplicitSampleSet([SampleEntry("start", 3.0, "base", "end"),
                              SampleEntry("end", 0.0, "base")], label="relay")
    partition = AgentPartition(
        agents=(0, 1), options=lambda x, agent: (0, 1),
        combine=lambda joint, agent, move: (move, joint[1]) if agent == 0 else (joint[0], move))
    policy = Policy(action=lambda x: (0, 0), id="base")
    args = (problem, sset, "start", SolverConfig(ell=1), 5, partition, policy)
    run = run_multiagent(*args, sweeps=3)
    assert run.solver_reports[0]["sweep_values"] == (3.0, 2.0, 0.0, 0.0)
    assert run.trajectory.controls == ((1, 1),) and run.status == "stopped"
    assert run == _naive_multiagent(*args, 3)


def test_a_finished_search_is_freed_without_the_cycle_collector(grid):
    """A search refers to nothing that refers back to it, so its memo goes
    as soon as the search does, not at the next full collection."""
    policy = next(iter(grid.base_policies.values()))
    sset, x0 = grid.sample_sets["trajectory"], grid.start_states[0]

    def pin_second(state):
        fixed = policy.action(state)[1]
        return FiniteControls(tuple((m, fixed) for m in grid.partition.options(state, 0)))

    gc.collect()
    gc.disable()
    try:
        run_rollout(grid.problem, sset, x0, replace(grid.solver_defaults, ell=8), 40,
                    base_policy=policy)
        assert gc.collect() == 0
        lookahead.solve_discrete(grid.problem, sset, x0, replace(grid.solver_defaults, ell=4))
        assert gc.collect() == 0
        solve_restricted(grid.problem, sset, x0, pin_second,
                         replace(grid.solver_defaults, ell=4), policy=policy)
        assert gc.collect() == 0
        run_multiagent(grid.problem, sset, x0, replace(grid.solver_defaults, ell=4), 40,
                       grid.partition, policy)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_spiral_mpc_with_its_memo_matches_memo_less_solves(spiral, monkeypatch):
    policy = next(iter(spiral.base_policies.values()))

    def run():
        return run_classical_mpc(spiral.problem, spiral.start_states[0],
                                 replace(spiral.solver_defaults, ell=6), 30,
                                 terminal="origin", base_policy=policy)

    face_solve, map_solves = shooting._face_solve, []

    def counting(kkt, free, rhs):
        if rhs.shape[2] > 1:  # sequences' maps; other solves have one right-hand side
            map_solves.append(len(rhs))
        return face_solve(kkt, free, rhs)

    monkeypatch.setattr(shooting, "_face_solve", counting)
    seen = _solves(monkeypatch, share=True)
    shared = run()
    assert sum(map_solves) == 32
    _solves(monkeypatch, share=False)
    alone = run()
    assert shared.status == alone.status == "closed_in_set"
    assert shared.steps == alone.steps
    np.testing.assert_allclose(shared.per_step_values, alone.per_step_values, rtol=1e-12)
    assert [r["sample_id"] for r in shared.solver_reports] == \
        [r["sample_id"] for r in alone.solver_reports]
    # the 32 sequences the box keeps on their path over the run's solves (of
    # the 32 from each of the two modes), each solved once and kept under the
    # sequence
    assert all(m is seen[0] for m in seen) and len(seen[0]) == 32
    assert {len(sigma) for sigma in seen[0]} == {6} and {sigma[0] for sigma in seen[0]} == {0, 1}
    assert all(seqs.maps.shape == (6, 5) for seqs in seen[0].values())


def test_rollouts_on_different_problems_do_not_share_work(spiral, integrator):
    """Mode sequences of the same length have the same keys on both
    problems; each run must still see only its own."""

    def spiral_run():
        policy = next(iter(spiral.base_policies.values()))
        return run_rollout(spiral.problem, spiral.sample_sets["disk"], np.array([8.0, -9.0]),
                           replace(spiral.solver_defaults, ell=4), 10, base_policy=policy)

    def integrator_run():
        policy = next(iter(integrator.base_policies.values()))
        return run_rollout(integrator.problem, integrator.sample_sets["trajectory"],
                           integrator.start_states[0],
                           replace(integrator.solver_defaults, ell=4), 10,
                           base_policy=policy)

    first = [repr(spiral_run()), repr(integrator_run())]
    second = [repr(integrator_run()), repr(spiral_run())]
    assert first == second[::-1]


def test_no_replayed_plan_lies_outside_its_energy_ball(integrator, monkeypatch):
    """A plan outside its target's ball ends with less budget than the
    target's tail needs, so it is dropped before the replay; replaying it
    anyway prices it +inf, so dropping it changes no value. On this rollout
    every such plan comes from a pair whose rows alone leave the ball, so
    the shipped least-norm prune drops them all before their solve; the
    first run switches that prune off."""
    radius, balls, dropped = [None], [], []
    solve_candidate, ball_box_qp = shooting._solve_candidate, shooting._ball_box_qp

    def candidate(problem, sset, x, cond, s, targets, t, *args, **kwargs):
        radius[0] = targets.radii[t]
        balls.clear()
        out = solve_candidate(problem, sset, x, cond, s, targets, t, *args, **kwargs)
        radius[0] = None
        ell = cond.sigmas.shape[1]
        for z in balls:  # the plan the ball solve returned, if any
            if np.linalg.norm(z) > targets.radii[t]:
                m = len(z) // ell
                plan = tuple(z[k * m:(k + 1) * m] for k in range(ell))
                dropped.append(lookahead.walk(problem, x, plan).price(sset.terminal_cost))
        return out

    def ball(*args, **kwargs):
        out = ball_box_qp(*args, **kwargs)
        balls.append(out[0])
        return out

    def priced(problem, x, controls):
        if radius[0] is not None:
            assert np.linalg.norm(np.concatenate(controls)) <= radius[0]
        return lookahead.walk(problem, x, controls)

    monkeypatch.setattr(shooting, "_solve_candidate", candidate)
    monkeypatch.setattr(shooting, "_ball_box_qp", ball)
    monkeypatch.setattr(shooting, "walk", priced)
    policy = next(iter(integrator.base_policies.values()))
    x0 = AugmentedState(np.asarray(integrator.start_states[0], dtype=float),
                        float(integrator.budget_spec.e_max))

    def rollout():
        dropped.clear()
        run = run_rollout(integrator.augmented_problem, integrator.augmented_sets["budget"], x0,
                          replace(integrator.solver_defaults, ell=4), 40, base_policy=policy,
                          variant="augmented")
        assert run.steps == 40
        assert all(v == INF for v in dropped)
        return len(dropped)

    beyond_ball = shooting._beyond_ball
    monkeypatch.setattr(shooting, "_beyond_ball",
                        lambda seqs, rhs, radii: np.zeros(rhs.shape[:2], dtype=bool))
    assert rollout() > 0
    monkeypatch.setattr(shooting, "_beyond_ball", beyond_ball)
    assert rollout() == 0


def test_a_discrete_search_past_the_node_cap_raises(grid, monkeypatch, capsys, tmp_path):
    policy = next(iter(grid.base_policies.values()))
    args = (grid.problem, grid.sample_sets["trajectory"], grid.start_states[0],
            replace(grid.solver_defaults, ell=6), 40)
    assert run_rollout(*args, base_policy=policy).status == "stopped"
    monkeypatch.setattr(lookahead, "NODE_CAP", 500)
    with pytest.raises(SearchSpaceError, match="NODE_CAP=500"):
        run_rollout(*args, base_policy=policy)
    code = main(["run", "--instance", "grid", "--ell", "6", "--horizon", "40",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: discrete search expanded more than")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("instance,set_name,ell,nodes,rows", [
    ("grid", "trajectory", 6, 2715, 600),
    ("grid", "trajectory", 8, 3915, 600),
    ("tour", "cdb", 2, 25, 8),
])
def test_discrete_solves_count_their_nodes_and_rows(request, monkeypatch, instance, set_name,
                                                     ell, nodes, rows):
    """Each discrete solve reports the (state, depth) nodes it evaluated and
    the move rows it tabled. Over a rollout sharing one memo the nodes sum to
    what a memoized recursion expands, and each state is tabled once; the
    run's reports keep only their own keys."""
    bundle = request.getfixturevalue(instance)
    seen = []

    def solve(*args, **kwargs):
        sol = lookahead.solve(*args, **kwargs)
        seen.append(sol.diagnostics)
        return sol

    monkeypatch.setattr(engine, "solve", solve)
    run = run_rollout(bundle.problem, bundle.sample_sets[set_name], bundle.start_states[0],
                      replace(bundle.solver_defaults, ell=ell), 40,
                      base_policy=next(iter(bundle.base_policies.values())))
    assert sum(d["nodes"] for d in seen) == nodes
    assert sum(d["rows"] for d in seen) == rows
    assert all(isinstance(d["nodes"], int) and isinstance(d["rows"], int) for d in seen)
    assert set(run.solver_reports[0]) == {"value", "sample_id", "per_stage_values"}


def test_a_deep_search_past_the_node_cap_is_a_clean_error(monkeypatch, capsys, tmp_path):
    """At l = 2000 the search stops at NODE_CAP, not at Python's stack
    limit. At l = 100000 its memory grows with the nodes it collects, not
    with depth times states: a dense (l + 1) x 600-state array of values
    alone would take 480 MB."""
    args = ["run", "--instance", "two-vehicle-grid", "--out-dir", str(tmp_path), "--ell"]
    assert main(args + ["2000"]) == 1
    assert capsys.readouterr().err == (f"error: discrete search expanded more than "
                                       f"NODE_CAP={lookahead.NODE_CAP} nodes\n")
    monkeypatch.setattr(lookahead, "NODE_CAP", 200_000)
    tracemalloc.start()
    try:
        assert main(args + ["100000"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ("error: discrete search expanded more than "
                                       "NODE_CAP=200000 nodes\n")
    assert peak < 32e6
    assert not any(tmp_path.iterdir())


def _reference_jobs(problem, sset, x, ell):
    """The (sequence, target index) pairs per-pair tests keep: the
    componentwise box reach, and for a target with an energy ball, full-rank
    rows whose least-norm solution lies in the ball widened by the room the
    rows' tolerance leaves."""
    pl = problem.pl
    base_x = np.asarray(base_view(x), dtype=float)
    lo = np.tile(problem.control_set(x).lo, ell)
    hi = np.tile(problem.control_set(x).hi, ell)
    first = pl.mode_of(base_x)
    sigmas = [(first,) + rest for rest in itertools.product(range(len(pl.modes)), repeat=ell - 1)]
    jobs = []
    for sigma in sigmas:
        phis, gammas, *_ = _reference_assemble(pl, base_x, sigma, np.zeros((ell, ell)), lo, hi)
        reach_box = np.abs(gammas[ell]) @ np.maximum(np.abs(lo), np.abs(hi))
        targets = sset.shooting_targets(x)
        for t, state in enumerate(targets.states):
            rhs = state - phis[ell]
            if np.any(np.abs(rhs) > reach_box + shooting.EPS_STATE + 1e-12):
                continue
            g = gammas[ell]
            if targets.radii is not None and np.linalg.matrix_rank(g) == len(g):
                pinv = np.linalg.pinv(g)
                room = shooting.EPS_STATE * np.abs(pinv).sum()
                if np.linalg.norm(pinv @ rhs) > targets.radii[t] * (1.0 + 1e-12) + room:
                    continue
            jobs.append((sigma, t))
    return jobs


def test_the_least_norm_ball_test_drops_every_pair_a_cauchy_schwarz_bound_would():
    """For full-rank rows g, r_i = g_i g+ r, so |r_i| <= |g_i| |g+ r|: a pair
    whose row i the ball cannot reach by Cauchy-Schwarz, |r_i| > |g_i|
    radius (+ EPS_STATE), has its least-norm point outside the ball, and
    _beyond_ball drops it. Seeded random rows, right-hand sides and radii;
    the two tests' tolerances differ only within EPS_STATE |g_i| sum|g+| of
    the threshold, a band such draws do not meet."""
    rng = np.random.default_rng(17)
    d, n_seq, n_targets = 2, 6, 50
    for width in (2, 3, 5, 8):
        g = rng.normal(size=(n_seq, d, width)) * rng.uniform(0.1, 3.0, (n_seq, 1, 1))
        factors = [shooting._row_factors(np.eye(width), rows) for rows in g]
        seqs = SimpleNamespace(pinv=np.array([f[0] for f in factors]),
                               give=np.array([f[1] for f in factors]))
        rhs = rng.normal(0.0, 2.0, (n_seq, n_targets, d))
        radii = rng.uniform(0.05, 3.0, n_targets)
        shrunk = np.linalg.norm(g, axis=2)[:, None] * radii[:, None]
        cauchy_schwarz = np.any(np.abs(rhs) > shrunk + shooting.EPS_STATE + 1e-12, axis=2)
        beyond = shooting._beyond_ball(seqs, rhs, radii)
        assert cauchy_schwarz.any() and not cauchy_schwarz.all()
        assert not (cauchy_schwarz & ~beyond).any()
        if width > d:  # the least-norm test is the sharper one
            assert (beyond & ~cauchy_schwarz).any()


def _sorted_jobs(keep, tails, lb):
    """The job order as a sort of (screened bound, tail value, target,
    sequence) tuples."""
    n_targets = keep.shape[1]
    return [(t, s) for _, _, t, s in sorted((lb[s * n_targets + t], tails[t], int(t), int(s))
                                            for s, t in zip(*np.nonzero(keep)))]


@pytest.mark.parametrize("case", ["spiral", "budget"])
def test_the_broadcast_reach_prune_keeps_the_per_pair_job_list(spiral, integrator, monkeypatch,
                                                              case):
    if case == "spiral":
        problem, sset, ell = spiral.problem, spiral.sample_sets["trajectory-0"], 3
        x = np.array([3.0, 2.0])
    else:
        problem, sset, ell = integrator.augmented_problem, integrator.augmented_sets["budget"], 4
        x = AugmentedState(np.asarray(integrator.start_states[0], dtype=float), 0.2)
    job_order, assemble, orders, conds = shooting._job_order, shooting._assemble, [], []

    def record(keep, tails, lb):
        out = job_order(keep, tails, lb)
        orders.append((keep, tails, lb, out))
        return out

    monkeypatch.setattr(shooting, "_job_order", record)
    monkeypatch.setattr(shooting, "_assemble", lambda *a: conds.append(assemble(*a)) or conds[-1])
    shooting.solve_continuous(problem, sset, x, replace(SolverConfig(), ell=ell))
    (keep, tails, lb, (t_idx, s_idx)), = orders
    assert list(zip(t_idx, s_idx)) == _sorted_jobs(keep, tails, lb)
    # the sequences _assemble keeps, by their index in cond
    at = {sigma: s for s, sigma in enumerate(map(tuple, conds[0].sigmas.tolist()))}
    n_targets = len(tails)
    want = sorted(((t, at[sigma]) for sigma, t in _reference_jobs(problem, sset, x, ell)
                   if sigma in at),
                  key=lambda j: (lb[j[1] * n_targets + j[0]], tails[j[0]], j[0], j[1]))
    assert list(zip(t_idx, s_idx)) == want
    assert 0 < len(want) < n_targets * 2 ** (ell - 1)
    # tied screened bounds go by tail value, tied tail values by target, then sequence
    rng = np.random.default_rng(5)
    keep, tails = rng.random((9, 7)) < 0.6, rng.integers(0, 3, 7).astype(float)
    lb = rng.integers(0, 4, keep.size).astype(float)
    assert list(zip(*job_order(keep, tails, lb))) == _sorted_jobs(keep, tails, lb)


@pytest.mark.parametrize("name,ell", [("spiral", 4), ("integrator", 3), ("integrator", 1)])
def test_the_screen_agrees_with_each_pairs_own_tests(request, name, ell):
    """Each pair's screened optimum is the per-pair affine map's, bit for
    bit; it counts as interior exactly when _box_qp would return it as is,
    in one iteration (and it lies in its ball); its bound is its objective;
    its path test is path_excess on its own predicted path. Half the targets
    are reachable inside the box, the rest are off the reachable set (at
    ell = 1 the two rows outnumber the one control, so the optimum misses
    them)."""
    pl = request.getfixturevalue(name).problem.pl
    rng = np.random.default_rng(11)
    lo, hi = -np.ones(ell), np.ones(ell)
    h_r = 2.0 * np.kron(np.eye(ell), pl.r)
    interior = []
    for x0 in rng.uniform(-1.0, 1.0, (4, 2)):
        sigmas = np.array([(pl.mode_of(x0),) + rest
                           for rest in itertools.product(range(len(pl.modes)), repeat=ell - 1)])
        cond = shooting._assemble(pl, x0, sigmas, h_r, lo, hi)
        sigmas = cond.sigmas  # the sequences _assemble keeps
        s0 = int(rng.integers(len(sigmas)))
        reachable = cond.phis[s0, ell] + rng.uniform(-0.3, 0.3, (6, ell)) @ cond.gammas[s0, ell].T
        states = np.concatenate([reachable, reachable + rng.normal(0.0, 0.05, (6, 2))])
        values = rng.uniform(0.0, 5.0, len(states))
        radii = np.where(rng.random(len(states)) < 0.5, rng.uniform(0.5, 2.0, len(states)), np.inf)
        memo = {}
        screen = shooting._screen(pl, cond, Targets(values, states, radii), memo, lo, hi)
        # each sequence kept has its own memo entry
        maps = np.array([memo[sigma].maps for sigma in map(tuple, sigmas.tolist())])
        assert len(memo) == len(sigmas) > 0
        d = x0.size
        for s, t in itertools.product(range(len(sigmas)), range(len(states))):
            i = s * len(states) + t
            h0, b0, phis, gammas = cond.h0[s], cond.b0[s], cond.phis[s], cond.gammas[s]
            rows = (gammas[ell], states[t] - phis[ell])
            z = maps[s, :, d + 1:] @ rows[1] + maps[s, :, 1:d + 1] @ x0 + maps[s, :, 0]
            assert np.array_equal(screen.z[s, t], z)
            boxed = shooting._box_qp(h0, b0, lo, hi, rows, z)
            as_is = boxed[2] == 1 and np.array_equal(boxed[0], z)
            assert screen.interior[i] == (as_is and float(np.linalg.norm(z)) <= radii[t])
            assert screen.lb[i] == pytest.approx(_qp_obj(h0, b0, z) + cond.c0[s] + values[t],
                                                 rel=1e-12, abs=1e-12)
            path = phis[1:] + gammas[1:] @ z
            assert screen.on_path[i] == (pl.path_excess(sigmas[s, 1:], path[:-1])
                                         <= shooting.EPS_STATE)
        interior += screen.interior
    assert any(interior) and not all(interior)


def _qp_obj(h, b, z):
    return 0.5 * float(z @ h @ z) + float(b @ z)


def _per_candidate(monkeypatch):
    """Send every job of solve_continuous through one per-candidate solve,
    the way the solver worked before the screen: the pinned optimum
    P r + Q x0 + q from its sequence's own KKT maps, then the bound, the box
    (and ball) QP, the target, ball and path checks, and the replay. The
    reference solves its own box QP, a stack of one, so no group is solved
    for it. It does not tell its drops apart: each counts as "bound"."""
    screen, conds, maps = shooting._screen, [], {}

    def no_screen(pl, cond, targets, memo, lo_full, hi_full):
        conds.append(cond)
        n = cond.sigmas.shape[0] * len(targets.values)
        z = np.zeros((cond.sigmas.shape[0], len(targets.values), cond.h0.shape[1]))
        return shooting._Screen(z, [-INF] * n, [False] * n, [False] * n)

    def candidate(problem, sset, x, cond, s, targets, t, boxed, lo_full, hi_full, m, bound=INF,
                  row_factored=None):
        assert cond is conds[-1]
        state = None if targets.states is None else targets.states[t]
        radius = None if targets.radii is None else float(targets.radii[t])
        sigma, ell = tuple(cond.sigmas[s].tolist()), cond.sigmas.shape[1]
        phis, gammas, c0 = cond.phis[s], cond.gammas[s], cond.c0[s]
        g_l, phi_l = gammas[ell], phis[ell]
        h, b, rows, const = cond.h0[s], cond.b0[s], None, targets.values[t]
        if state is not None:
            rows = (g_l, state - phi_l)
            d = phi_l.size
            if sigma not in maps:
                rhs = np.zeros((h.shape[0] + d, 2 * d + 1))
                rhs[:h.shape[0], 0], rhs[:h.shape[0], 1:d + 1] = -cond.b_c[s], -cond.b_x[s]
                rhs[h.shape[0]:, d + 1:] = np.eye(d)
                maps[sigma] = shooting._face_solve(shooting._kkt(h[None], g_l[None]),
                                                   np.ones((1, h.shape[0]), dtype=bool),
                                                   rhs[None])[0][0]
            affine = maps[sigma]
            z = affine[:, d + 1:] @ rows[1] + affine[:, 1:d + 1] @ cond.x0 + affine[:, 0]
        else:
            if targets.quad is not None:
                w = 2.0 * (g_l.T @ targets.quad)
                h, b = h + w @ g_l, b + w @ phi_l
                const += float(phi_l @ targets.quad @ phi_l)
            z = shooting._face_solve(h[None], np.ones((1, b.size), dtype=bool),
                                     -b[None, :, None])[0][0, :, 0]
        slack = shooting.PRICE_SLACK * (1.0 + abs(bound))
        if not _qp_obj(h, b, z) + c0 + const < bound + slack:
            return "bound", True
        z, converged, it = shooting._ball_box_qp(
            h, b, lo_full, hi_full, radius, rows,
            shooting._box_qp(h, b, lo_full, hi_full, rows, z))
        path = phis[1:] + gammas[1:] @ z
        if not (shooting._meets(z, rows)
                and (radius is None or float(np.linalg.norm(z)) <= radius)
                and problem.pl.path_excess(sigma[1:], path[:-1]) <= shooting.EPS_STATE
                and _qp_obj(h, b, z) + c0 + const < bound + slack):
            return "bound", converged
        controls = tuple(z[k * m:(k + 1) * m].copy() for k in range(ell))
        plan = shooting.walk(problem, x, controls)
        diag = {"mismatch": shooting._mismatch(plan.states[-1], state), "iterations": it,
                "converged": converged}
        return (plan.price(sset.terminal_cost), plan, diag), converged

    monkeypatch.setattr(shooting, "_screen", no_screen)
    monkeypatch.setattr(shooting, "_solve_group",
                        lambda cond, targets, t, s, *_: [None] * len(s))
    monkeypatch.setattr(shooting, "_solve_candidate", candidate)


def _screen_cases(spiral, integrator):
    """(problem, set, x0, ell, policy, mode_cap) solves the screen must not change."""
    rng = np.random.default_rng(7)
    spiral_policy = next(iter(spiral.base_policies.values()))
    for name in ("trajectory-0", "trajectory-1"):
        for ell in range(3, 7):
            x0 = rng.uniform(-9.0, 9.0, 2)
            yield spiral.problem, spiral.sample_sets[name], x0, ell, spiral_policy, 128
    origin = ExplicitSampleSet([SampleEntry(np.zeros(2), 0.0, "terminal")], label="origin")
    for x0 in (np.array([1.0, 1.0]), rng.uniform(-9.0, 9.0, 2)):
        yield spiral.problem, origin, x0, 8, spiral_policy, 128
    policy = next(iter(integrator.base_policies.values()))
    for x0 in (np.asarray(integrator.start_states[0], dtype=float), rng.uniform(-1.0, 1.0, 2)):
        for ell in (1, 4):  # at ell = 1 the rows outnumber the controls
            yield integrator.problem, integrator.sample_sets["trajectory"], x0, ell, policy, 128
    base = np.asarray(integrator.start_states[0], dtype=float)
    for budget in (0.1, 0.2, float(integrator.budget_spec.e_max)):
        for ell in (3, 4):
            yield (integrator.augmented_problem, integrator.augmented_sets["budget"],
                   AugmentedState(base, budget), ell, policy, 128)
    # one free target: the analytic disk, and the classical baseline's free terminal
    for x0 in (rng.uniform(-9.0, 9.0, 2), rng.uniform(-9.0, 9.0, 2)):
        for ell in range(3, 6):
            yield spiral.problem, spiral.sample_sets["disk"], x0, ell, spiral_policy, 128
    for sset in (FreeTerminal(integrator.mpc_quadratic), FreeTerminal()):
        yield integrator.problem, sset, base, 4, policy, 128


def _pricing(priced):
    """lookahead.walk, recording the bytes of every plan it walks for its price."""
    def walk(problem, x, controls):
        priced.append(b"".join(np.asarray(u, dtype=float).tobytes() for u in controls))
        return lookahead.walk(problem, x, controls)
    return walk


def test_the_screen_changes_no_solve(spiral, integrator, monkeypatch):
    """Every case solved with the screen and with every job sent through
    the per-candidate reference gives the same plan, value and report. The
    reference screens every pair at -inf, so it visits its jobs in tail
    order; the solve visits them best first and prices only plans the
    reference prices too, and no more of them."""
    fast_paths, priced = 0, Counter()
    for problem, sset, x0, ell, policy, cap in _screen_cases(spiral, integrator):
        cfg = replace(SolverConfig(), ell=ell, mode_cap=cap)
        calls, got_priced, want_priced = [], [], []
        seeds = engine._seeds(problem, None, policy, x0, ell)  # the base policy's plan
        solve_candidate = shooting._solve_candidate
        with monkeypatch.context() as patched:
            patched.setattr(shooting, "_solve_candidate",
                            lambda *a, **k: calls.append(1) or solve_candidate(*a, **k))
            patched.setattr(shooting, "walk", _pricing(got_priced))
            got = solve_continuous(problem, sset, x0, cfg, seeds=seeds)
        with monkeypatch.context() as patched:
            _per_candidate(patched)
            patched.setattr(shooting, "walk", _pricing(want_priced))
            want = solve_continuous(problem, sset, x0, cfg, seeds=seeds)
        assert Counter(got_priced) <= Counter(want_priced)
        priced.update(got=len(got_priced), want=len(want_priced))
        assert got.value == want.value
        assert len(got.controls) == len(want.controls)
        assert all(np.array_equal(u, v) for u, v in zip(got.controls, want.controls))
        keys = ("candidates", "iterations", "mismatch", "converged")
        assert [got.diagnostics.get(k) for k in keys] == [want.diagnostics.get(k) for k in keys]
        fast_paths += got.diagnostics["candidates"] - len(calls)
    assert fast_paths > 0  # some jobs never reached the per-candidate solver
    assert priced["got"] < priced["want"]


def test_every_priced_plan_replays_to_its_prediction_within_a_thousandth_of_the_slack(
        spiral, integrator, monkeypatch):
    """Over the screen's cases, each plan a solve prices (the seeds aside)
    replays to within PRICE_SLACK / 1000, relative, of the value the solve
    predicted for it: the screened bound of an interior optimum, or the
    condensed objective of a solved one. So the slack only covers rounding,
    and no plan it keeps from the replay could have won."""
    screen, solve_candidate, priced = shooting._screen, shooting._solve_candidate, shooting._priced
    screens, jobs, gaps = [], [], {"solved": [], "interior": []}

    def screened(*args):
        screens.append(screen(*args))
        return screens[-1]

    def candidate(problem, sset, x, cond, s, targets, t, *args, **kwargs):
        jobs.append((cond, s, targets, t))
        try:
            return solve_candidate(problem, sset, x, cond, s, targets, t, *args, **kwargs)
        finally:
            jobs.pop()

    def price(problem, sset, x, controls, pinned, **diag):
        out = priced(problem, sset, x, controls, pinned, **diag)
        if diag.get("seed"):
            return out
        z = np.concatenate(controls)
        if jobs:  # solved: the objective _solve_candidate tested against the bound
            cond, s, targets, t = jobs[-1]
            h, b, _, const = shooting._subproblems(cond, targets, t, s)
            kind, predicted = "solved", [_qp_obj(h, b, z) + cond.c0[s] + const]
        else:  # interior: the screened bound of the pair whose optimum it is
            last = screens[-1]
            same = np.all(last.z == z, axis=2).ravel()
            kind, predicted = "interior", [last.lb[i] for i in np.flatnonzero(same)
                                           if last.interior[i]]
        assert predicted
        gaps[kind].append(min(abs(out[0] - p) / (1.0 + abs(p)) for p in predicted))
        return out

    monkeypatch.setattr(shooting, "_screen", screened)
    monkeypatch.setattr(shooting, "_solve_candidate", candidate)
    monkeypatch.setattr(shooting, "_priced", price)
    for problem, sset, x0, ell, policy, cap in _screen_cases(spiral, integrator):
        solve_continuous(problem, sset, x0, replace(SolverConfig(), ell=ell, mode_cap=cap),
                         seeds=engine._seeds(problem, None, policy, x0, ell))
    assert all(gaps.values())
    assert max(max(g) for g in gaps.values()) <= shooting.PRICE_SLACK / 1000


def _own_verdict(problem, cond, targets, t, s, z):
    """Job (t, s)'s tests on its plan z, one job at a time: the first rule
    that drops it, else its predicted value."""
    sigma, phis, gammas = cond.sigmas[s], cond.phis[s], cond.gammas[s]
    h, b, rows, const = shooting._subproblems(cond, targets, t, s)
    path = phis[1:] + gammas[1:] @ z
    if not shooting._meets(z, rows):
        return "rows"
    if targets.radii is not None and float(np.linalg.norm(z)) > float(targets.radii[t]):
        return "ball"
    if not problem.pl.path_excess(sigma[1:], path[:-1]) <= shooting.EPS_STATE:
        return "path"
    return _qp_obj(h, b, z) + cond.c0[s] + const


def test_each_stacked_verdict_is_the_jobs_own(spiral, integrator, monkeypatch):
    """Over the screen's cases, every verdict of the stacked tests, on a
    group's box optima or on a ball plan as a stack of one, is what the
    job's own tests give on the same z: the same rule, or the same
    predicted value up to the rounding of b'z (one job's b is a strided
    view, which BLAS sums in another order)."""
    verdicts, seen = shooting._verdicts, Counter()

    def checked(cond, targets, t, s, z, sub):
        out = verdicts(cond, targets, t, s, z, sub)
        for tk, sk, zk, got in zip(t.tolist(), s.tolist(), z, out):
            want = _own_verdict(problem, cond, targets, tk, sk, zk)
            if isinstance(want, str):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
            seen[got if isinstance(got, str) else "value"] += 1
            seen["alone" if len(z) == 1 else "stacked"] += 1
        return out

    monkeypatch.setattr(shooting, "_verdicts", checked)
    for problem, sset, x0, ell, policy, cap in _screen_cases(spiral, integrator):
        solve_continuous(problem, sset, x0, replace(SolverConfig(), ell=ell, mode_cap=cap),
                         seeds=engine._seeds(problem, None, policy, x0, ell))
    assert all(seen[k] > 0 for k in ("ball", "path", "value", "stacked", "alone")), seen


def test_a_stack_with_no_plan_on_its_rows_in_its_ball_takes_no_path_test(integrator,
                                                                        monkeypatch):
    """On the 40-step augmented rollout, a stack of verdicts in which no plan
    meets its rows inside its ball runs no path test; every other stack
    runs one. Each of the 40 solves stacks one group, whose plans all go on
    to the ball, and then tests its ball plan as a stack of one."""
    verdicts, path_excess = shooting._verdicts, type(integrator.problem.pl).path_excess
    calls, stacks = [0], Counter()

    def checked(cond, targets, t, s, z, sub):
        calls[0] = 0
        out = verdicts(cond, targets, t, s, z, sub)
        kept = any(not isinstance(v, str) or v == "path" for v in out)
        assert calls[0] == kept
        stacks[kept] += 1
        return out

    def counted(self, sigma, xs):
        calls[0] += 1
        return path_excess(self, sigma, xs)

    monkeypatch.setattr(shooting, "_verdicts", checked)
    monkeypatch.setattr(type(integrator.problem.pl), "path_excess", counted)
    run_rollout(integrator.augmented_problem, integrator.augmented_sets["budget"],
                AugmentedState(np.asarray(integrator.start_states[0], dtype=float),
                               float(integrator.budget_spec.e_max)),
                replace(integrator.solver_defaults, ell=4), 40,
                base_policy=next(iter(integrator.base_policies.values())), variant="augmented")
    assert stacks == {False: 40, True: 40}


def test_only_box_active_jobs_reach_the_per_candidate_solver(spiral, monkeypatch):
    """A classical-MPC rollout (512 sequences, one origin target per step):
    a job whose box-free optimum lies strictly inside the control box is
    settled by the screen, so every job the active-set solve sees is
    box-active. Only the first step's jobs are; every later step is settled
    by the screen alone. The first step's 256 jobs, one for each sequence
    the box keeps on its path, are 4 groups of _CHUNK = 64, each solved in
    one stacked box QP."""
    policy = next(iter(spiral.base_policies.values()))
    cfg = replace(spiral.solver_defaults, ell=10, mode_cap=512)
    solve_group, solve_candidate, box_qp = (shooting._solve_group, shooting._solve_candidate,
                                            shooting._box_qp)
    seen, stacks, steps = [], [], []

    def group(cond, targets, t, s, z, lo_full, hi_full):
        for zk in z:
            margin = 1e-12 * (1.0 + float(np.abs(zk).max()))
            assert not (np.all(zk > lo_full + margin) and np.all(zk < hi_full - margin))
        return solve_group(cond, targets, t, s, z, lo_full, hi_full)

    def stacked(h, b, lo, hi, rows=None, z=None):
        if rows is not None:  # not the start-point QP inside it
            stacks.append((len(steps), len(b)))
        return box_qp(h, b, lo, hi, rows, z)

    def record(*args, **kwargs):
        seen.append(len(steps))
        return solve_candidate(*args, **kwargs)

    def solve(*args, **kwargs):
        steps.append(lookahead.solve(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(shooting, "_solve_group", group)
    monkeypatch.setattr(shooting, "_box_qp", stacked)
    monkeypatch.setattr(shooting, "_solve_candidate", record)
    monkeypatch.setattr(engine, "solve", solve)
    run = run_classical_mpc(spiral.problem, spiral.start_states[0], cfg, 40, terminal="origin",
                            base_policy=policy)
    assert run.status == "closed_in_set" and run.steps == 15 and len(steps) == 6
    assert seen == [0] * 256
    assert shooting._CHUNK == 64 and stacks == [(0, 64)] * 4
    left = [s.diagnostics["candidates"] - s.diagnostics["pruned_by"]["sequence"] for s in steps]
    assert sum(left) > 6 * 256


def test_each_group_of_box_active_jobs_takes_one_path_test(spiral, monkeypatch):
    """On the classical-MPC rollout, the first step's 256 box-active jobs
    (4 groups of _CHUNK = 64) take their path test in 4 stacked path_excess
    calls, one per group, beside the screen's one; every later step makes
    the screen's call alone."""
    policy = next(iter(spiral.base_policies.values()))
    cfg = replace(spiral.solver_defaults, ell=10, mode_cap=512)
    path_excess, calls, steps = type(spiral.problem.pl).path_excess, [], []

    def counted(pl, sigma, xs):
        calls.append((len(steps), np.shape(sigma)))
        return path_excess(pl, sigma, xs)

    def solve(*args, **kwargs):
        steps.append(lookahead.solve(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(type(spiral.problem.pl), "path_excess", counted)
    monkeypatch.setattr(engine, "solve", solve)
    run_classical_mpc(spiral.problem, spiral.start_states[0], cfg, 40, terminal="origin",
                      base_policy=policy)
    assert len(steps) == 6
    assert Counter(step for step, _ in calls) == {0: 5, **{k: 1 for k in range(1, 6)}}
    assert [shape for step, shape in calls if step == 0][1:] == [(64, 9)] * 4


def test_a_solve_measures_only_its_winners_mismatch(integrator, monkeypatch):
    """Each solve of the augmented rollout prices several plans but measures
    one mismatch, its winner's, after the job loop; the report carries it
    and no pinned states."""
    mismatch, priced, steps = shooting._mismatch, shooting._priced, []
    counts = Counter()

    def solve(*args, **kwargs):
        counts.clear()
        steps.append(lookahead.solve(*args, **kwargs))
        steps[-1].diagnostics["counted"] = dict(counts)
        return steps[-1]

    monkeypatch.setattr(engine, "solve", solve)
    monkeypatch.setattr(shooting, "_mismatch",
                        lambda *a: counts.update(["mismatch"]) or mismatch(*a))
    monkeypatch.setattr(shooting, "_priced",
                        lambda *a, **k: counts.update(["priced"]) or priced(*a, **k))
    x0 = AugmentedState(np.asarray(integrator.start_states[0], dtype=float),
                        float(integrator.budget_spec.e_max))
    run = run_rollout(integrator.augmented_problem, integrator.augmented_sets["budget"], x0,
                      replace(integrator.solver_defaults, ell=4), 10,
                      base_policy=next(iter(integrator.base_policies.values())),
                      variant="augmented")
    assert len(steps) == run.steps == 10
    assert all(s.diagnostics["counted"]["mismatch"] == 1 for s in steps)
    assert sum(s.diagnostics["counted"]["priced"] for s in steps) > 2 * len(steps)
    assert all("pinned" not in s.diagnostics and 0.0 <= s.diagnostics["mismatch"] <= 1e-9
               for s in steps)


def test_assembling_in_chunks_changes_no_bit(spiral):
    """Of 700 sequences from (3, 1), _assemble keeps 224 (three full
    _CHUNKs and part of a fourth). Each one it keeps has the bits it gets
    alone, and each one it drops is dropped alone too."""
    pl, ell = spiral.problem.pl, 10
    sigmas = np.array(list(itertools.product(range(2), repeat=ell)))[:700]
    lo, hi = -np.ones(ell), np.ones(ell)
    h_r = 2.0 * np.kron(np.eye(ell), pl.r)
    x0 = np.array([3.0, 1.0])
    whole = shooting._assemble(pl, x0, sigmas, h_r, lo, hi)
    kept = whole.sigmas.tolist()
    assert shooting._CHUNK == 64 and len(kept) == 224
    outcomes = set()
    for sigma in sigmas[::37]:
        alone = shooting._assemble(pl, x0, sigma[None], h_r, lo, hi)
        outcomes.add(len(alone.sigmas))
        if sigma.tolist() not in kept:
            assert len(alone.sigmas) == 0
            continue
        i = kept.index(sigma.tolist())
        for f in ("phis", "gammas", "h0", "b0", "c0", "b_x", "b_c", "reach"):
            assert np.array_equal(getattr(whole, f)[i], getattr(alone, f)[0]), f
    assert outcomes == {0, 1}


def test_the_curvature_lift_changes_no_rollout(spiral, monkeypatch):
    """The 40-step spiral trajectory-0 rollout from (1, 1) at ell = 5, as
    shipped and with every sequence's curvature forced to zero (so the lift
    prunes nothing): the runs are identical, and the lift keeps a third of
    the box-active jobs from the per-candidate solver."""
    policy = next(iter(spiral.base_policies.values()))
    solve_candidate, row_factors = shooting._solve_candidate, shooting._row_factors

    def rollout(flat):
        calls = []
        with monkeypatch.context() as patched:
            patched.setattr(shooting, "_solve_candidate",
                            lambda *a, **k: calls.append(1) or solve_candidate(*a, **k))
            if flat:
                patched.setattr(shooting, "_row_factors", lambda h, g, factors=None: (
                    *row_factors(h, g, factors)[:2], np.zeros(h.shape[0])))
            run = run_rollout(spiral.problem, spiral.sample_sets["trajectory-0"],
                              np.array([1.0, 1.0]), replace(spiral.solver_defaults, ell=5), 40,
                              base_policy=policy)
        return run, len(calls)

    shipped, shipped_calls = rollout(flat=False)
    forced, forced_calls = rollout(flat=True)
    assert repr(shipped) == repr(forced)
    assert shipped_calls <= 340 and forced_calls == 496


def test_stacking_box_active_jobs_across_targets_changes_no_rollout(spiral, monkeypatch):
    """The 40-step spiral trajectory-0 rollout from (1, 1) at ell = 5, as
    shipped and with every box-active job solved in a group of its own
    (_CHUNK = 1): the runs are identical. Shipped, the jobs that need the
    active-set solve are stacked across targets into at most 6 groups."""
    policy = next(iter(spiral.base_policies.values()))
    solve_group = shooting._solve_group

    def rollout(chunk):
        groups = []
        with monkeypatch.context() as patched:
            patched.setattr(shooting, "_CHUNK", chunk)
            patched.setattr(shooting, "_solve_group",
                            lambda cond, targets, t, *a: groups.append(t) or
                            solve_group(cond, targets, t, *a))
            run = run_rollout(spiral.problem, spiral.sample_sets["trajectory-0"],
                              np.array([1.0, 1.0]), replace(spiral.solver_defaults, ell=5), 40,
                              base_policy=policy)
        return run, groups

    shipped, shipped_groups = rollout(shooting._CHUNK)
    alone, alone_groups = rollout(1)
    assert repr(shipped) == repr(alone)
    assert len(shipped_groups) <= 6 and max(len(set(t.tolist())) for t in shipped_groups) > 1
    assert {len(t) for t in alone_groups} == {1}
    # a group holds every job the loop goes on to solve, and may hold some the bound then drops
    assert len(alone_groups) <= sum(map(len, shipped_groups))


def test_a_classical_mpc_rollout_computes_no_lift(spiral, monkeypatch):
    """The classical-MPC benchmark rollout factors no sequence's rows. Its
    first step solves its first group of box-active jobs at an infinite
    running bound; once a plan lowers the bound, the group's other jobs
    skip the curvature lift, which would factor every sequence's rows to
    spare a box QP already solved."""
    def no_lift(h, g):
        raise AssertionError("rows factored")

    monkeypatch.setattr(shooting, "_null_factors", no_lift)
    policy = next(iter(spiral.base_policies.values()))
    run = run_classical_mpc(spiral.problem, spiral.start_states[0],
                            replace(spiral.solver_defaults, ell=10, mode_cap=512), 40,
                            terminal="origin", base_policy=policy)
    assert run.status == "closed_in_set"


def test_every_candidate_is_a_seed_a_replay_or_pruned_by_one_rule(spiral, integrator,
                                                                  monkeypatch):
    """On the first spiral trajectory-0 solve, and on every step of short
    rollouts (spiral trajectory-0 and disk, classical MPC at ell = 6, the
    integrator's augmented budget and trajectory set), the per-rule prune
    counts (Python ints), the replayed jobs and the seeds add up to the
    candidates, and the solve's "replayed" count is its replays; the run's
    step report still copies only its four solver keys."""
    priced, counts = shooting._priced, {"replayed": 0, "seeds": 0}

    def counted(*args, **diag):
        counts["seeds" if diag.get("seed") else "replayed"] += 1
        return priced(*args, **diag)

    def add_up(sol):
        rules = sol.diagnostics["pruned_by"]
        assert sorted(rules) == sorted(shooting._RULES)
        assert all(type(n) is int for n in rules.values())
        assert sol.diagnostics["replayed"] == counts["replayed"]
        assert sum(rules.values()) + counts["replayed"] + counts["seeds"] == \
            sol.diagnostics["candidates"]
        return rules

    monkeypatch.setattr(shooting, "_priced", counted)
    policy = next(iter(spiral.base_policies.values()))
    x0 = np.array([1.0, 1.0])
    sol = solve_continuous(spiral.problem, spiral.sample_sets["trajectory-0"], x0,
                           replace(spiral.solver_defaults, ell=5),
                           seeds=[lookahead.base_plan(spiral.problem, policy, x0, 5)])
    rules = add_up(sol)
    assert all(rules[r] > 0 for r in ("bound", "lift", "path"))
    assert counts["seeds"] == 1
    assert set(engine._report_of(sol)) == {"value", "sample_id", "mismatch", "iterations",
                                           "candidates", "converged"}

    steps = []

    def solve(*args, **kwargs):
        counts.update(replayed=0, seeds=0)
        sol = lookahead.solve(*args, **kwargs)
        steps.append(add_up(sol))
        return sol

    monkeypatch.setattr(engine, "solve", solve)
    int_policy = next(iter(integrator.base_policies.values()))
    int_x0 = np.asarray(integrator.start_states[0], dtype=float)
    for name in ("trajectory-0", "disk"):
        run_rollout(spiral.problem, spiral.sample_sets[name], np.array([1.0, 1.0]),
                    replace(spiral.solver_defaults, ell=5), 6, base_policy=policy)
    run_classical_mpc(spiral.problem, np.array([1.0, 1.0]),
                      replace(spiral.solver_defaults, ell=6), 6, terminal="origin",
                      base_policy=policy)
    run_rollout(integrator.augmented_problem, integrator.augmented_sets["budget"],
                AugmentedState(int_x0, float(integrator.budget_spec.e_max)),
                replace(integrator.solver_defaults, ell=4), 6, base_policy=int_policy,
                variant="augmented")
    run_rollout(integrator.problem, integrator.sample_sets["trajectory"], int_x0,
                replace(integrator.solver_defaults, ell=4), 6, base_policy=int_policy)
    assert len(steps) == 30
    # every rule but "ball" (which the least-norm prune leaves nothing to drop here) fires
    assert all(sum(r[k] for r in steps) > 0 for k in ("sequence", "bound", "lift", "path", "rows"))


def _without_walks(patched):
    """A re-simulating reference for the carried walks: each solution
    reaches the engine with its plan simulated afresh from its start, and
    shooting replays every seed, the base policy's and the shifted one, as
    a plain plan."""
    solve, priced = engine.solve, shooting._priced

    def resimulated(problem, sset, x, cfg, **kwargs):
        sol = solve(problem, sset, x, cfg, **kwargs)
        return sol if sol.walk is None else \
            replace(sol, walk=lookahead.walk(problem, x, tuple(sol.controls)))

    patched.setattr(engine, "solve", resimulated)
    patched.setattr(shooting, "_priced", lambda problem, sset, x, plan, *a, **k:
                    priced(problem, sset, x, tuple(plan), *a, **k))


def _walk_cases(spiral, integrator):
    """(problem, set, x0, cfg, policy, variant) of the integrator's augmented
    and trajectory rollouts and the spiral trajectory-0 rollout."""
    policy = next(iter(integrator.base_policies.values()))
    cfg, x0 = replace(integrator.solver_defaults, ell=4), integrator.start_states[0]
    yield (integrator.augmented_problem, integrator.augmented_sets["budget"],
           AugmentedState(np.asarray(x0, dtype=float), float(integrator.budget_spec.e_max)),
           cfg, policy, "augmented")
    yield integrator.problem, integrator.sample_sets["trajectory"], x0, cfg, policy, "basic"
    yield (spiral.problem, spiral.sample_sets["trajectory-0"], np.array([1.0, 1.0]),
           replace(spiral.solver_defaults, ell=5), next(iter(spiral.base_policies.values())),
           "basic")


def test_reusing_the_winners_walks_changes_no_rollout(spiral, integrator, monkeypatch):
    """Each 40-step rollout of _walk_cases, as shipped and with the carried
    walks re-simulated (_without_walks): the runs are identical, and the
    shipped one spares exactly the ell dynamics calls of each solution's
    re-simulation, of each base plan's replay and of each shifted seed's
    replay. Every walk priced as it stands holds, bit for bit, the states
    and stage costs of its plan's replay."""
    def fresh(walk):
        return [state_key(s) for s in walk.states], walk.costs

    for problem, sset, x0, cfg, policy, variant in _walk_cases(spiral, integrator):
        def rollout():
            calls = []
            counted = replace(problem, dynamics=lambda x, u: calls.append(1) or
                              problem.dynamics(x, u))
            return run_rollout(counted, sset, x0, cfg, 40, base_policy=policy,
                               variant=variant), len(calls)

        priced, walks = shooting._priced, []

        def checked(problem_, sset_, x, plan, *args, **kwargs):
            if isinstance(plan, lookahead.Walk):
                walks.append(fresh(plan) == fresh(lookahead.walk(problem, x, plan)))
            return priced(problem_, sset_, x, plan, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(shooting, "_priced", checked)
            shipped, shipped_calls = rollout()
        assert walks and all(walks), variant
        with monkeypatch.context() as patched:
            _without_walks(patched)
            again, again_calls = rollout()
        assert repr(shipped) == repr(again), variant
        solves, ell = len(shipped.per_step_values), cfg.ell
        spared = ell * solves + ell * solves + ell * (solves - 1)
        assert again_calls - shipped_calls == spared, variant


def test_after_a_disturbance_the_shifted_seed_walks_from_the_disturbed_state(
        spiral, monkeypatch):
    """The spiral trajectory-0 rollout from (1, 1), bumped by (0.5, -0.5)
    after its fourth move as the disturbance variant bumps it: every seed
    comes as its walk from the state its solve starts at and is priced as it
    stands. Where no disturbance acted that state is the previous winner's
    walk's states[1], and the shifted seed extends that walk; after the bump
    the shifted plan is walked from the bumped state. The run is identical
    to one with the carried walks re-simulated."""
    shift, solve, priced, solves = np.array([0.5, -0.5]), engine.solve, shooting._priced, []

    def solving(problem, sset, x, cfg, seeds=(), **kwargs):
        solves.append(SimpleNamespace(x=x, seeds=list(seeds), walks=[]))
        solves[-1].sol = solve(problem, sset, x, cfg, seeds=seeds, **kwargs)
        return solves[-1].sol

    def pricing(problem, sset, x, plan, pinned, **diag):
        out = priced(problem, sset, x, plan, pinned, **diag)
        if diag.get("seed"):
            solves[-1].walks.append(out[1])
        return out

    def rollout():
        return repr(run_rollout(spiral.problem, spiral.sample_sets["trajectory-0"],
                                np.array([1.0, 1.0]), replace(spiral.solver_defaults, ell=5), 8,
                                base_policy=next(iter(spiral.base_policies.values())),
                                disturbance=lambda t, x: x + shift if t == 3 else x,
                                variant="disturbance"))

    with monkeypatch.context() as patched:
        patched.setattr(engine, "solve", solving)
        patched.setattr(shooting, "_priced", pricing)
        shipped = rollout()
    assert len(solves) == 8
    for prev, now in zip(solves, solves[1:]):
        shifted, carried = now.seeds[0], prev.sol.walk
        assert len(now.walks) == 2 and all(w.states[0] is now.x for w in now.walks)
        assert shifted is now.walks[0]
        if now is solves[4]:  # the bumped state: the shifted plan, walked from there
            assert all(u is v for u, v in zip(shifted, carried[1:]))
            assert np.array_equal(now.x, carried.states[1] + shift)
        else:  # the carried walk, one step on, and the appended step
            assert now.x is carried.states[1]
            assert all(a is b for a, b in zip(shifted.states[:-1], carried.states[1:]))
    with monkeypatch.context() as patched:
        _without_walks(patched)
        assert rollout() == shipped


def test_a_sequences_ball_steps_read_its_memo_entrys_factors(integrator, monkeypatch):
    """The 40-step augmented rollout factors its one sequence's rows once
    (one _svd_rank, one eigh) into the sequence's memo entry, and its 40 ball
    steps read them there and factor nothing; the run is identical to one
    whose ball steps factor the rows afresh."""
    svd_rank, eigh, ball_step = boxqp._svd_rank, np.linalg.eigh, boxqp._ball_step
    counts, where = Counter(), ["solve"]

    def stepping(*args, **kwargs):
        counts["ball steps"] += 1
        where[0] = "ball step"
        try:
            return ball_step(*args, **kwargs)
        finally:
            where[0] = "solve"

    def rollout():
        return repr(run_rollout(
            integrator.augmented_problem, integrator.augmented_sets["budget"],
            AugmentedState(np.asarray(integrator.start_states[0], dtype=float),
                           float(integrator.budget_spec.e_max)),
            replace(integrator.solver_defaults, ell=4), 40,
            base_policy=next(iter(integrator.base_policies.values())), variant="augmented"))

    with monkeypatch.context() as patched:
        patched.setattr(boxqp, "_svd_rank",
                        lambda g: counts.update([("svd", where[0])]) or svd_rank(g))
        patched.setattr(np.linalg, "eigh",
                        lambda a: counts.update([("eigh", where[0])]) or eigh(a))
        patched.setattr(boxqp, "_ball_step", stepping)
        shipped = rollout()
    assert counts == {"ball steps": 40, ("svd", "solve"): 1, ("eigh", "solve"): 1}
    with monkeypatch.context() as patched:
        patched.setattr(boxqp, "_ball_step", lambda *args: ball_step(*args[:6]))
        assert rollout() == shipped
