"""One memo per rollout: the state-independent lookahead work is done once
per run, and sharing it changes no result."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ddrollout import SolverConfig, engine, lookahead, run_classical_mpc, run_rollout, shooting
from ddrollout.budget import AugmentedState, base_view
from ddrollout.cli import main
from ddrollout.costs import INF
from ddrollout.errors import SearchSpaceError


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
    row_norms = np.array([np.linalg.norm(row) for row in gammas[ell]])
    return phis, gammas, h0, b0, c0, reach, row_norms


@pytest.mark.parametrize("name,ell", [("spiral", 5), ("integrator", 4)])
def test_batched_condensation_matches_a_per_sequence_loop(request, name, ell):
    pl = request.getfixturevalue(name).problem.pl
    rng = np.random.default_rng(3)
    lo, hi = -rng.uniform(0.5, 2.0, ell), rng.uniform(0.5, 2.0, ell)
    h_r = 2.0 * np.kron(np.eye(ell), pl.r)
    sigmas = np.array(list(itertools.product(range(len(pl.modes)), repeat=ell)))
    for x0 in rng.uniform(-9.0, 9.0, (4, 2)):
        cond = shooting._assemble(pl, x0, sigmas, h_r, lo, hi)
        for i, sigma in enumerate(sigmas):
            ref = _reference_assemble(pl, x0, tuple(sigma), h_r, lo, hi)
            got = (cond.phis[i], cond.gammas[i], cond.h0[i], cond.b0[i], cond.c0[i],
                   cond.reach[i], cond.row_norms[i])
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


def test_grid_rollout_with_its_memo_matches_memo_less_solves_bit_for_bit(grid, monkeypatch):
    policy = next(iter(grid.base_policies.values()))
    args = (grid.problem, grid.sample_sets["trajectory"], grid.start_states[0],
            replace(grid.solver_defaults, ell=6), 40)
    seen = _solves(monkeypatch, share=True)
    shared = run_rollout(*args, base_policy=policy)
    _solves(monkeypatch, share=False)
    alone = run_rollout(*args, base_policy=policy)
    assert repr(shared) == repr(alone)
    # every step was handed the same memo
    assert len(seen) == shared.steps and all(m is seen[0] for m in seen)
    assert len(seen[0]) > 0


def test_spiral_mpc_with_its_memo_matches_memo_less_solves(spiral, monkeypatch):
    policy = next(iter(spiral.base_policies.values()))

    def run():
        return run_classical_mpc(spiral.problem, spiral.start_states[0],
                                 replace(spiral.solver_defaults, ell=6), 30,
                                 terminal="origin", base_policy=policy)

    seen = _solves(monkeypatch, share=True)
    shared = run()
    _solves(monkeypatch, share=False)
    alone = run()
    assert shared.status == alone.status == "closed_in_set"
    assert shared.steps == alone.steps
    np.testing.assert_allclose(shared.per_step_values, alone.per_step_values, rtol=1e-12)
    assert [r["sample_id"] for r in shared.solver_reports] == \
        [r["sample_id"] for r in alone.solver_reports]
    # the 32 sequences from each of the two modes, each solved once
    assert all(m is seen[0] for m in seen) and len(seen[0]) == 64


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
    anyway prices it +inf, so dropping it changes no value."""
    radius, balls, dropped = [None], [], []
    solve_candidate, ball_box_qp = shooting._solve_candidate, shooting._ball_box_qp

    def candidate(problem, sset, x, asm, target, *args, **kwargs):
        radius[0] = target.ball_radius
        balls.clear()
        out = solve_candidate(problem, sset, x, asm, target, *args, **kwargs)
        radius[0] = None
        for z in balls:  # the plan the ball solve returned, if any
            if target.ball_radius is not None and np.linalg.norm(z) > target.ball_radius:
                m = len(z) // len(asm.sigma)
                plan = tuple(z[k * m:(k + 1) * m] for k in range(len(asm.sigma)))
                dropped.append(lookahead.replay(problem, x, plan, sset.terminal_cost)[0])
        return out

    def ball(*args, **kwargs):
        out = ball_box_qp(*args, **kwargs)
        balls.append(out[0])
        return out

    def priced(problem, x, controls, terminal):
        if radius[0] is not None:
            assert np.linalg.norm(np.concatenate(controls)) <= radius[0]
        return lookahead.replay(problem, x, controls, terminal)

    monkeypatch.setattr(shooting, "_solve_candidate", candidate)
    monkeypatch.setattr(shooting, "_ball_box_qp", ball)
    monkeypatch.setattr(shooting, "replay", priced)
    policy = next(iter(integrator.base_policies.values()))
    x0 = AugmentedState(np.asarray(integrator.start_states[0], dtype=float),
                        float(integrator.budget_spec.e_max))
    run = run_rollout(integrator.augmented_problem, integrator.augmented_sets["budget"], x0,
                      replace(integrator.solver_defaults, ell=4), 40, base_policy=policy,
                      variant="augmented")
    assert run.steps == 40
    assert dropped and all(v == INF for v in dropped)


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


def _reference_jobs(problem, sset, x, ell):
    """The (sequence, target) pairs a per-pair reach test keeps, in job order."""
    pl = problem.pl
    base_x = np.asarray(base_view(x), dtype=float)
    lo = np.tile(problem.control_set(x).lo, ell)
    hi = np.tile(problem.control_set(x).hi, ell)
    first = pl.mode_of(base_x)
    sigmas = [(first,) + rest for rest in itertools.product(range(len(pl.modes)), repeat=ell - 1)]
    jobs = []
    for s, sigma in enumerate(sigmas):
        phis, gammas, *_ = _reference_assemble(pl, base_x, sigma, np.zeros((ell, ell)), lo, hi)
        reach_box = np.abs(gammas[ell]) @ np.maximum(np.abs(lo), np.abs(hi))
        for t, target in enumerate(sset.shooting_targets(x)):
            reach = reach_box
            if target.ball_radius is not None:
                reach = np.minimum(reach, np.linalg.norm(gammas[ell], axis=1) * target.ball_radius)
            if np.any(np.abs(target.state - phis[ell]) > reach + shooting.EPS_STATE + 1e-12):
                continue
            jobs.append((target.value, t, s, sigma))
    return [(j[3], j[0]) for j in sorted(jobs, key=lambda j: j[:3])]


@pytest.mark.parametrize("case", ["spiral", "budget"])
def test_the_broadcast_reach_prune_keeps_the_per_pair_job_list(spiral, integrator, monkeypatch,
                                                              case):
    if case == "spiral":
        problem, sset, ell = spiral.problem, spiral.sample_sets["trajectory-0"], 3
        x = np.array([3.0, 2.0])
    else:
        problem, sset, ell = integrator.augmented_problem, integrator.augmented_sets["budget"], 4
        x = AugmentedState(np.asarray(integrator.start_states[0], dtype=float), 0.2)
    solved = []

    def record(problem, sset, x, asm, target, *args, **kwargs):
        solved.append((asm.sigma, target.value))
        return INF, (), {}

    monkeypatch.setattr(shooting, "_solve_candidate", record)
    shooting.solve_continuous(problem, sset, x, replace(SolverConfig(), ell=ell))
    want = _reference_jobs(problem, sset, x, ell)
    assert solved == want
    assert 0 < len(want) < len(sset.shooting_targets(x)) * 2 ** (ell - 1)
