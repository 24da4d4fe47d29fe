"""Continuous backend against independent quadratic-programming oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog, lsq_linear, minimize

from ddrollout import AugmentedState, ExplicitSampleSet, SampleEntry, SolverConfig, run_rollout
from ddrollout import boxqp, engine, shooting
from ddrollout.costs import INF
from ddrollout.cli import EXIT_SOLVER, main
from ddrollout.errors import SearchSpaceError, SolverFailureError
from ddrollout.lookahead import base_plan, walk
from ddrollout.model import EPS_STATE, LinearMode, PiecewiseLinearStructure
from ddrollout.sample_sets import FreeTerminal
from ddrollout.boxqp import _ball_box_qp, _box_qp
from ddrollout.shooting import solve_continuous


def _cfg(ell, **kw):
    return replace(SolverConfig(), ell=ell, **kw)


def _objective(problem, terminal_fn):
    """Plain rollout of a flat control vector, fully independent of the solver."""

    def f(x0, z):
        x = np.asarray(x0, dtype=float)
        total = 0.0
        for u in np.asarray(z, dtype=float).reshape(-1, 1):
            total += problem.stage_cost(x, u)
            x = problem.dynamics(x, u)
        return total + terminal_fn(x)

    return f


def test_free_terminal_matches_scipy_quadratic_minimum(integrator):
    problem = integrator.problem
    p_tail = integrator.notes["tail_matrix"]
    tset = FreeTerminal(p_tail)
    cfg = _cfg(4)
    f = _objective(problem, lambda x: float(x @ p_tail @ x))
    for x0 in (np.array([-1.0, 0.5]), np.array([2.0, -1.5]), np.array([0.3, 0.1])):
        sol = solve_continuous(problem, tset, x0, cfg)
        ref = minimize(lambda z: f(x0, z), np.zeros(4), method="L-BFGS-B",
                       bounds=[(-1.0, 1.0)] * 4,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000})
        assert sol.value == pytest.approx(ref.fun, rel=1e-6, abs=1e-8)
        # the reported value is the exact objective of the reported plan
        assert f(x0, np.concatenate([np.atleast_1d(u) for u in sol.controls])) == \
            pytest.approx(sol.value, rel=1e-10, abs=1e-10)


def test_active_box_bounds_are_respected_and_optimal(integrator):
    """First-order certificate at a start where the control box saturates.

    The objective is convex in the stacked controls wherever the state
    path stays inside its box, so the projected-gradient conditions at the
    returned plan certify a global minimum; scipy cannot be used here
    because finite differences step over the state-box infinity cliff.
    """
    problem = integrator.problem
    p_tail = integrator.notes["tail_matrix"]
    tset = FreeTerminal(p_tail)
    f = _objective(problem, lambda x: float(x @ p_tail @ x))
    for x0 in (np.array([-3.5, 2.5]), np.array([-3.0, 3.0])):
        sol = solve_continuous(problem, tset, x0, _cfg(4))
        z = np.array([float(np.atleast_1d(u)[0]) for u in sol.controls])
        assert np.all(np.abs(z) <= 1.0 + 1e-12)
        assert np.max(np.abs(z)) >= 1.0 - 1e-9  # bound genuinely active
        assert f(x0, z) == pytest.approx(sol.value, rel=1e-9)
        h = 1e-6
        for i in range(z.size):
            e = np.zeros(z.size)
            e[i] = h
            up, down = f(x0, z + e), f(x0, z - e)
            assert math.isfinite(up) and math.isfinite(down)
            grad = (up - down) / (2.0 * h)
            if z[i] >= 1.0 - 1e-9:
                assert grad <= 1e-4
            elif z[i] <= -1.0 + 1e-9:
                assert grad >= -1e-4
            else:
                assert abs(grad) <= 1e-4


def _kkt_reach_value(problem, x0, target_state, ell):
    """Exact equality-constrained QP value by a KKT solve, ignoring the box.

    Returns +inf when the pinned plan leaves the unit control box, since
    then it is not an admissible certificate.
    """
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[0.0], [1.0]])
    q = np.eye(2)
    r = np.array([[1.0]])
    # x_k = a^k x0 + sum_j a^(k-1-j) b u_j
    pows = [np.linalg.matrix_power(a, k) for k in range(ell + 1)]
    gmat = np.zeros((2 * (ell + 1), ell))
    for k in range(ell + 1):
        for j in range(k):
            gmat[2 * k:2 * k + 2, j] = (pows[k - 1 - j] @ b)[:, 0]
    consts = np.concatenate([pows[k] @ x0 for k in range(ell + 1)])
    h = 2.0 * np.eye(ell) * r[0, 0]
    bvec = np.zeros(ell)
    for k in range(ell):  # stage state costs x_k' q x_k
        gk = gmat[2 * k:2 * k + 2, :]
        h += 2.0 * gk.T @ q @ gk
        bvec += 2.0 * gk.T @ q @ consts[2 * k:2 * k + 2]
    gl = gmat[2 * ell:, :]
    cl = consts[2 * ell:]
    kkt = np.block([[h, gl.T], [gl, np.zeros((2, 2))]])
    rhs = np.concatenate([-bvec, np.asarray(target_state) - cl])
    try:
        zl = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return INF
    z = zl[:ell]
    if np.any(np.abs(z) > 1.0 + 1e-9):
        return INF
    x = x0
    total = 0.0
    for u in z:
        total += problem.stage_cost(x, np.array([u]))
        x = problem.dynamics(x, np.array([u]))
    if not np.allclose(x, target_state, atol=1e-6):
        return INF
    return total


def test_sample_targets_beat_every_exact_interior_certificate(integrator):
    problem = integrator.problem
    sset = integrator.sample_sets["trajectory"]
    cfg = _cfg(4)
    x0 = np.array([-3.0, -0.4])
    sol = solve_continuous(problem, sset, x0, cfg)
    assert sol.value < INF
    # the terminal state reaches its sample to the set's own tolerance
    assert sset.contains(sol.terminal_state)
    # and lands on it: the target is imposed as exact equality rows
    assert min(np.abs(sol.terminal_state - e.state).max() for e in sset.entries()) <= 1e-12
    assert sol.terminal_sample_id == sset.sample_id(sol.terminal_state)
    # replaying the plan with the set's terminal cost reproduces the value
    assert walk(problem, x0, sol.controls).price(sset.terminal_cost) == sol.value
    bound = min(_kkt_reach_value(problem, x0, e.state, 4) + e.value
                for e in sset.entries())
    assert sol.value <= bound + 1e-5 * max(1.0, abs(bound))


def test_infeasible_when_no_sample_is_reachable(integrator):
    problem = integrator.problem
    # a sample far outside anything reachable in two steps of unit control
    far = ExplicitSampleSet([SampleEntry(np.array([100.0, 100.0]), 0.0, "p",
                                         np.array([100.0, 100.0]))], label="far")
    sol = solve_continuous(problem, far, np.zeros(2), _cfg(2))
    assert sol.value == INF
    assert sol.controls == ()


def test_closed_loop_descends_and_improves_on_base(integrator):
    problem = integrator.problem
    sset = integrator.sample_sets["trajectory"]
    policy = next(iter(integrator.base_policies.values()))
    x0 = integrator.start_states[0]
    run = run_rollout(problem, sset, x0, _cfg(4), 40, base_policy=policy)
    base_cost = integrator.notes["base_cost"]
    assert run.initial_set_value == pytest.approx(base_cost, rel=1e-12)
    assert run.total_cost <= base_cost
    vals = run.per_step_values
    for k in range(len(vals) - 1):
        assert vals[k + 1] <= vals[k] + 1e-6 * max(1.0, abs(vals[k]))


def test_hybrid_modes_replay_exactly(spiral):
    problem = spiral.problem
    sset = spiral.sample_sets["disk"]
    cfg = replace(spiral.solver_defaults, ell=5)
    x0 = np.array([1.0, 1.0])
    sol = solve_continuous(problem, sset, x0, cfg)
    assert sol.value < INF
    # audit: rolling the plan through the true sign-switching dynamics
    # reproduces the claimed objective, so the mode sequence was right
    assert walk(problem, x0, sol.controls).price(sset.terminal_cost) == \
        pytest.approx(sol.value, rel=1e-8)
    assert sol.value <= spiral.notes["base_costs"][(1.0, 1.0)] + 1e-9


def test_mode_enumeration_is_capped_by_mode_cap(spiral):
    """ell steps from x enumerate 2**(ell - 1) spiral mode sequences; more
    than mode_cap of them is refused, never searched partially."""
    problem = spiral.problem
    disk = spiral.sample_sets["disk"]
    x0 = np.array([1.0, 1.0])
    at_cap = replace(spiral.solver_defaults, ell=8)
    assert at_cap.mode_cap == 2 ** 7
    sol = solve_continuous(problem, disk, x0, at_cap)
    assert sol.value < INF and sol.diagnostics["candidates"] == 2 ** 7
    with pytest.raises(SearchSpaceError, match="mode_cap=128"):
        solve_continuous(problem, disk, x0, replace(at_cap, ell=9))
    sol = solve_continuous(problem, disk, x0, replace(at_cap, ell=9, mode_cap=256))
    assert sol.value < INF and sol.diagnostics["candidates"] == 2 ** 8
    assert disk.contains(sol.terminal_state)
    assert walk(problem, x0, sol.controls).price(disk.terminal_cost) == sol.value


def test_disk_terminal_lands_inside_the_disk(spiral):
    problem = spiral.problem
    disk = spiral.sample_sets["disk"]
    sol = solve_continuous(problem, disk, np.array([8.0, -9.0]),
                           replace(spiral.solver_defaults, ell=5))
    assert sol.value < INF
    assert disk.contains(sol.terminal_state)


def test_first_spiral_solve_replays_only_plans_that_can_win(spiral, monkeypatch):
    """From (1,1) on trajectory-0 most subproblem plans leave the mode
    sequence they were solved under; none of those is replayed."""
    walks, sset = [], spiral.sample_sets["trajectory-0"]
    monkeypatch.setattr(shooting, "walk", lambda *a: walks.append(walk(*a)) or walks[-1])
    policy = next(iter(spiral.base_policies.values()))
    x0 = np.array([1.0, 1.0])
    sol = solve_continuous(spiral.problem, sset, x0, replace(spiral.solver_defaults, ell=5),
                           seeds=[base_plan(spiral.problem, policy, x0, 5)])
    assert sol.value == 2.0974762193515346
    prices = [w.price(sset.terminal_cost) for w in walks]
    assert len(prices) <= 100 and INF not in prices


def test_the_first_spiral_solve_visits_its_jobs_best_first(spiral, monkeypatch):
    """From (1,1) on trajectory-0, with the base plan as its seed, the jobs
    taken lowest screened bound first reach the winner in one stacked group
    of _CHUNK box-active jobs and two replays beside the seed; the first job
    the bound drops ends the loop, and the jobs after it still count as
    candidates pruned by the bound."""
    groups, priced = [], []
    solve_group, price = shooting._solve_group, shooting._priced
    monkeypatch.setattr(shooting, "_solve_group",
                        lambda cond, targets, t, s, *a: groups.append(len(s))
                        or solve_group(cond, targets, t, s, *a))
    monkeypatch.setattr(shooting, "_priced", lambda *a, **k: priced.append(k) or price(*a, **k))
    policy = next(iter(spiral.base_policies.values()))
    x0 = np.array([1.0, 1.0])
    sol = solve_continuous(spiral.problem, spiral.sample_sets["trajectory-0"], x0,
                           replace(spiral.solver_defaults, ell=5),
                           seeds=[base_plan(spiral.problem, policy, x0, 5)])
    assert sol.value == 2.0974762193515346 and sol.diagnostics["candidates"] == 1273
    assert groups == [shooting._CHUNK] == [64]
    assert len(priced) == 3 and [k.get("seed", False) for k in priced] == [True, False, False]
    assert sol.diagnostics["replayed"] == 2


def test_a_tie_goes_to_the_plan_priced_first(integrator, monkeypatch):
    """Every stage prices at 100, so two targets of one tail tie at any plan
    that reaches them, while the screen's quadratic costs rank the second
    target's job first. It is priced first; the first target's plan then
    ties the bound and does not replace it: the solve keeps the plan priced
    first."""
    problem = replace(integrator.problem, stage_cost=lambda x, u: 100.0)
    x0 = np.asarray(integrator.start_states[0], dtype=float)
    states = [walk(problem, x0, (np.array([u]),) * 4).states[-1] for u in (0.2, 0.8)]
    sset = ExplicitSampleSet([SampleEntry(s, 1.0, "p") for s in states], label="two")
    walked = []
    monkeypatch.setattr(shooting, "walk", lambda *a: walked.append(walk(*a)) or walked[-1])
    sol = solve_continuous(problem, sset, x0, _cfg(4))
    assert [w.price(sset.terminal_cost) for w in walked] == [401.0, 401.0]
    assert np.abs(walked[0].states[-1] - states[1]).max() < 1e-12  # the second target first
    assert sol.value == 401.0 and sol.walk is walked[0]
    assert sol.diagnostics["replayed"] == 2


@pytest.mark.parametrize("side", ["region", "box"])
def test_a_plan_off_its_path_by_two_eps_is_dropped_and_by_half_eps_replayed(
        spiral, monkeypatch, side):
    """A control box of the one point z, whose x_1 lies off its sequence's
    path by 2 or 0.5 EPS_STATE: _assemble drops the sequence 2 EPS_STATE off
    and keeps the one 0.5 EPS_STATE off, whose plan z is replayed."""
    problem = spiral.problem
    pl, eps = problem.pl, EPS_STATE
    sin60 = math.sin(math.pi / 3.0)
    replays = []
    monkeypatch.setattr(shooting, "walk", lambda *a: replays.append(a) or walk(*a))
    for off, want in ((2.0 * eps, 0), (0.5 * eps, 1)):
        if side == "region":  # x_1[0] = -off, outside mode 0's x[0] >= 0
            x0, sigma = np.array([1.0, (0.5 + off / 0.8) / sin60]), (0, 0)
        else:  # x_1 inside mode 1, x_1[1] = hi + EPS_STATE + off
            x0, sigma = np.array([9.0, 7.0]), (0, 1)
        mode = pl.modes[sigma[0]]
        z = np.zeros(2)
        if side == "box":
            z[0] = pl.state_box[1][1] + EPS_STATE + off - (mode.a @ x0)[1]
        x1 = mode.a @ x0 + mode.b @ z[:1] + mode.c
        assert pl.path_excess(sigma[1:], x1[None]) == pytest.approx(off, rel=1e-3)
        cond = shooting._assemble(pl, x0, np.array([sigma]), np.zeros((2, 2)), z, z)
        assert len(cond.sigmas) == want
        if want:  # the box QP's optimum is z, in one iteration, with its verdict
            replays.clear()
            free = FreeTerminal()
            targets, job = free.shooting_targets(x0), (np.array([0]), np.array([0]))
            verdict = shooting._verdicts(cond, targets, *job, z[None],
                                         shooting._subproblems(cond, targets, *job))[0]
            shooting._solve_candidate(problem, free, x0, cond, 0, targets, 0,
                                      (z, True, 1, verdict), z, z, 1)
            assert len(replays) == 1  # the half-eps plan's replay is its price


@pytest.mark.parametrize("side", ["region", "box"])
def test_the_replay_not_the_prediction_prices_a_plan_within_the_path_tests_margins(
        spiral, integrator, side):
    """The path test admits a state up to EPS_STATE on the wrong side of a
    region boundary and up to 2 EPS_STATE past the state box, where the
    condensed prediction is not exact: the spiral's x_1 = (-5e-10, 1) passes
    for mode 0, but mode_of and the dynamics take mode 1 there, and the
    integrator's x_1 = (4 + 1.5e-9, 0) passes, but stage_cost prices it +inf.
    A control box of the one point z that reaches such an x_1 gives a plan
    that passes every test with a finite predicted value, and the plan is
    priced by its exact replay."""
    if side == "region":  # u_0 = 0 and x_1 = a_0 x0 = (-5e-10, 1) to rounding
        problem, z = spiral.problem, np.zeros(2)
        x0 = np.linalg.solve(problem.pl.modes[0].a, np.array([-5e-10, 1.0]))
        # x_2 = 0.8 R(+-60 deg) x_1 + (0, u_1): this terminal cost tells the modes apart
        free = FreeTerminal(np.array([[1.0, 0.5], [0.5, 1.0]]))
    else:  # u_0 = -1.5e-9 cancels x0's velocity
        problem, x0, z = integrator.problem, np.array([4.0, 1.5e-9]), np.array([-1.5e-9, 0.0])
        free = FreeTerminal()
    pl, plan = problem.pl, (z[:1], z[1:])
    x1 = problem.dynamics(x0, plan[0])
    assert pl.path_excess((0,), x1[None]) <= EPS_STATE
    if side == "region":
        assert x1[0] < 0.0 and pl.mode_of(x0) == 0 and pl.mode_of(x1) == 1
    else:
        assert x1.tolist() == [4.0 + 1.5e-9, 0.0] and problem.stage_cost(x1, plan[1]) == INF
    cond = shooting._assemble(pl, x0, np.array([(0, 0)]), 2.0 * np.kron(np.eye(2), pl.r), z, z)
    targets, job = free.shooting_targets(x0), (np.array([0]), np.array([0]))
    predicted = shooting._verdicts(cond, targets, *job, z[None],
                                   shooting._subproblems(cond, targets, *job))[0]
    priced, converged = shooting._solve_candidate(problem, free, x0, cond, 0, targets, 0,
                                                  (z, True, 1, predicted), z, z, 1)
    value = walk(problem, x0, plan).price(free.terminal_cost)
    assert converged and isinstance(predicted, float) and predicted < INF
    assert priced[0] == value and abs(value - predicted) > 1e-3


def _lp_least(f, phi, gamma, lo, hi):
    """The least value of f (phi + gamma z) over the box lo <= z <= hi, by LP."""
    res = linprog(f @ gamma, bounds=list(zip(lo, hi)), method="highs")
    assert res.status == 0
    return float(f @ phi) + res.fun


def test_the_sequence_test_agrees_with_an_lp():
    """On random region rows, state boxes, steps x = phi + gamma z and
    control boxes, _box_keeps drops a sequence exactly when the least value
    over the box of one of its path rows, as linprog finds it, exceeds the
    row's bound (g + EPS_STATE for a region row, a state-box face plus
    2 EPS_STATE): a step placed 0.5 EPS_STATE past one row is dropped and
    one 0.5 EPS_STATE short of it kept, for region rows and faces alike.
    Random steps are checked outside a 1e-10 band around the bound, wider
    than the test's rounding allowance; there the LP cannot decide."""
    rng = np.random.default_rng(43)
    seen = dict.fromkeys(("region kept", "region dropped", "face kept", "face dropped",
                          "random kept", "random dropped"), 0)
    for trial in range(20):
        d, width = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        n_modes, n_rows = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        mode = LinearMode(np.eye(d), np.zeros((d, 1)), np.zeros(d))
        pl = PiecewiseLinearStructure(
            modes=(mode,) * n_modes, q=np.eye(d), r=np.eye(1),
            state_box=(-rng.uniform(2.0, 4.0, d), rng.uniform(2.0, 4.0, d)),
            region_f=rng.standard_normal((n_modes, n_rows, d)),
            region_g=rng.uniform(0.0, 2.0, (n_modes, n_rows)))
        # each mode's path rows and their bounds, as path_excess allows them
        faces = np.vstack([np.eye(d), -np.eye(d)])
        f_all = [np.vstack([f, faces]) for f in pl.region_f]
        g_all = [np.concatenate([g + EPS_STATE, np.concatenate([pl.state_box[1],
                                                                -pl.state_box[0]]) + 2 * EPS_STATE])
                 for g in pl.region_g]
        lo, hi = -rng.uniform(0.1, 1.0, width), rng.uniform(0.1, 1.0, width)
        centre, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        n_seq = 8
        modes = rng.integers(n_modes, size=n_seq)
        gamma = 0.3 * rng.standard_normal((n_seq, d, width))
        phi = rng.normal(0.0, 1.0, (n_seq, d))
        kinds = ["random"] * n_seq
        # four steps placed at one row: a region row or a face, on either side of its bound
        for s, (kind, gap) in enumerate((("region", -0.5), ("region", 0.5), ("face", -0.5),
                                         ("face", 0.5))):
            row = int(rng.integers(n_rows)) if kind == "region" else n_rows + int(
                rng.integers(2 * d))
            f, g = f_all[modes[s]][row], g_all[modes[s]][row]
            fg = f @ gamma[s]
            least = f @ phi[s] + fg @ centre - np.abs(fg) @ half
            phi[s] += (g + gap * EPS_STATE - least) * f / (f @ f)
            kinds[s] = (kind, row)
        keeps = shooting._box_keeps(shooting._path_rows(pl), modes, phi, gamma, centre, half)
        for s in range(n_seq):
            excess = np.array([_lp_least(f, phi[s], gamma[s], lo, hi) - g
                               for f, g in zip(f_all[modes[s]], g_all[modes[s]])])
            if kinds[s] == "random":
                if abs(excess.max()) <= 1e-10:
                    continue
                assert keeps[s] == (excess.max() <= 0.0), (trial, s, excess)
                seen["random kept" if keeps[s] else "random dropped"] += 1
                continue
            kind, row = kinds[s]
            assert excess[row] == pytest.approx(-0.5 * EPS_STATE if s % 2 == 0
                                                else 0.5 * EPS_STATE, abs=1e-11)
            if np.delete(excess, row).max(initial=-INF) < -1e-6:  # the other rows are slack
                assert keeps[s] == (s % 2 == 0), (trial, s, excess)
                seen[kind + (" kept" if keeps[s] else " dropped")] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", ["disk", "trajectory-0"])
def test_a_start_whose_box_keeps_no_sequence_has_no_plan(spiral, monkeypatch, name):
    """From (-10, -10) and (10, -10) every x_1 leaves the state box, so
    _assemble keeps no sequence. The screen and the job loop take the empty
    stack, and the solve has no plan, as when every pair was dropped after
    its screen: each pair counts as dropped by the sequence rule."""
    assemble, kept = shooting._assemble, []
    monkeypatch.setattr(shooting, "_assemble",
                        lambda *a: kept.append(assemble(*a)) or kept[-1])
    policy = next(iter(spiral.base_policies.values()))
    sset = spiral.sample_sets[name]
    for x0, ell in itertools.product(([-10.0, -10.0], [10.0, -10.0]), (2, 3, 5)):
        x0 = np.array(x0)
        sol = solve_continuous(spiral.problem, sset, x0, replace(spiral.solver_defaults, ell=ell),
                               seeds=engine._seeds(spiral.problem, None, policy, x0, ell))
        assert len(kept[-1].sigmas) == 0 and kept[-1].h0.shape == (0, ell, ell)
        assert sol.value == INF and sol.controls == () and sol.terminal_state is None
        pairs = 2 ** (ell - 1) * len(sset.shooting_targets(x0).values)
        assert sol.diagnostics["candidates"] == sol.diagnostics["pruned_by"]["sequence"] == pairs


def test_a_solve_whose_every_box_qp_fails_to_converge(integrator, monkeypatch, tmp_path, capsys):
    """With the screen stubbed out and every box QP returning z = 0, every
    job of the integrator trajectory solve ends as a rows drop. When no box
    QP converged and there are no seeds, the solve raises SolverFailureError,
    and `ddrollout run` exits 3.
    When they converged, the solve just has no plan. The base policy's plan
    is a converged candidate, so with it the solve returns that plan's
    value."""
    def no_screen(pl, cond, targets, memo, lo_full, hi_full):
        z = np.zeros((len(cond.sigmas), len(targets.values), cond.h0.shape[1]))
        n = z.shape[0] * z.shape[1]
        return shooting._Screen(z, [-INF] * n, [False] * n, [False] * n)

    monkeypatch.setattr(shooting, "_screen", no_screen)
    converged = [False]
    monkeypatch.setattr(shooting, "_box_qp", lambda h, b, lo, hi, rows, z:
                        (np.zeros_like(z), np.full(len(z), converged[0]), np.full(len(z), 99)))
    sset, x0 = integrator.sample_sets["trajectory"], integrator.start_states[0]
    with pytest.raises(SolverFailureError) as failure:
        solve_continuous(integrator.problem, sset, x0, _cfg(4))
    converged[0] = True  # the same drops after converged solves: no plan, no failure
    sol = solve_continuous(integrator.problem, sset, x0, _cfg(4))
    counts = sol.diagnostics["pruned_by"]
    assert sol.value == INF and sol.diagnostics["candidates"] == counts["rows"] > 0
    converged[0] = False

    policy = next(iter(integrator.base_policies.values()))
    plan = base_plan(integrator.problem, policy, x0, 4)
    sol = solve_continuous(integrator.problem, sset, x0, _cfg(4), seeds=[plan])
    assert sol.value == walk(integrator.problem, x0, plan).price(sset.terminal_cost) < INF
    counts = sol.diagnostics["pruned_by"]
    assert sol.diagnostics["candidates"] == 1 + counts["rows"] and counts["rows"] > 0

    monkeypatch.setattr(engine, "base_plan", lambda *a: None)
    code = main(["run", "--instance", "integrator", "--horizon", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_SOLVER == 3
    assert capsys.readouterr().err.startswith("solver failure: ")
    assert not list(tmp_path.iterdir())


def test_budget_solve_replays_to_its_value(integrator):
    problem = integrator.augmented_problem
    sset = integrator.augmented_sets["budget"]
    policy = next(iter(integrator.base_policies.values()))
    x0 = AugmentedState(integrator.start_states[0], integrator.budget_spec.e_max)
    sol = solve_continuous(problem, sset, x0, _cfg(4), seeds=[base_plan(problem, policy, x0, 4)])
    assert sol.value < INF
    # a member: the base state matches a seed step and the remaining budget
    # covers that step's tail usage, so the replay prices it at that tail
    assert sset.contains(sol.terminal_state)
    assert sol.terminal_sample_id is not None
    assert walk(problem, x0, sol.controls).price(sset.terminal_cost) == sol.value


def test_origin_terminal_is_reached_to_the_state_tolerance(spiral):
    """The classical-MPC terminal constraint is a one-sample set at the
    origin; the lookahead must end in it, not merely near it."""
    problem = spiral.problem
    origin = ExplicitSampleSet([SampleEntry(np.zeros(2), 0.0, "terminal")], label="origin")
    x0 = np.array([1.0, 1.0])
    sol = solve_continuous(problem, origin, x0, spiral.solver_defaults)
    assert sol.value < INF
    assert origin.contains(sol.terminal_state)
    assert np.abs(sol.terminal_state).max() <= 1e-12  # on it, up to rounding
    assert walk(problem, x0, sol.controls).price(origin.terminal_cost) == sol.value


def _qp_obj(h, b, z):
    return 0.5 * float(z @ h @ z) + float(b @ z)


def _face_oracle(h, b, lo, hi, g, r):
    """Exact optimum of a box QP with the equality rows g z = r by brute force
    over faces: each variable held at its lower bound, at its upper bound, or
    free, the free block solved by a KKT least-squares solve and kept when it
    meets the rows and lands inside the box; +inf when no face does."""
    best = math.inf
    for held in itertools.product(("free", "lo", "hi"), repeat=b.size):
        free = np.array([s == "free" for s in held])
        z = np.where([s == "lo" for s in held], lo, hi)
        if free.any():
            nf = int(free.sum())
            kkt = np.block([[h[np.ix_(free, free)], g[:, free].T],
                            [g[:, free], np.zeros((r.size, r.size))]])
            rhs = np.concatenate([-b[free] - h[np.ix_(free, ~free)] @ z[~free],
                                  r - g[:, ~free] @ z[~free]])
            z[free] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:nf]
            slack = 1e-9 * (1.0 + float(np.abs(z).max()))
            if np.any(z < lo - slack) or np.any(z > hi + slack):
                continue
        if np.abs(g @ z - r).max(initial=0.0) <= 1e-9:
            best = min(best, _qp_obj(h, b, np.clip(z, lo, hi)))
    return best


def _subproblem_qp(rng, n):
    """A random box QP shaped like a shooting subproblem: a least-squares
    running cost, rank deficient when control effort is free, and up to two
    equality rows pinning a terminal state that the box may not reach."""
    rows = int(rng.integers(1, n + 2))
    m = rng.standard_normal((rows, n))
    h = 2.0 * m.T @ m
    b = 2.0 * m.T @ rng.standard_normal(rows)
    g = rng.standard_normal((int(rng.integers(0, 3)), n))
    r = g @ rng.uniform(-2.0, 2.0, n)
    return h, b, -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), g, r


def test_box_qp_matches_face_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(300):
        h, b, lo, hi, g, r = _subproblem_qp(rng, int(rng.integers(1, 6)))
        rows = (g, r) if r.size else None
        z, converged, _ = _box_qp(h, b, lo, hi, rows)
        assert converged
        assert np.all(z >= lo) and np.all(z <= hi)
        ref = _face_oracle(h, b, lo, hi, g, r)
        miss = np.abs(g @ z - r).max(initial=0.0)
        if ref == math.inf:  # no box point meets the rows
            assert miss > 1e-9
            continue
        assert miss <= 1e-9
        assert _qp_obj(h, b, z) == pytest.approx(ref, rel=1e-9, abs=1e-9)
        if trial % 5 == 0:  # the energy ball cuts through the box optimum
            least = float(np.linalg.norm(_box_qp(np.eye(b.size), 0.0 * b, lo, hi, rows)[0]))
            radius = least + rng.uniform(0.0, 1.0) * (float(np.linalg.norm(z)) - least)
            zb, _, _ = _ball_box_qp(h, b, lo, hi, radius, rows)
            assert float(np.linalg.norm(zb)) <= radius
            assert np.all(zb >= lo) and np.all(zb <= hi)
            assert np.abs(g @ zb - r).max(initial=0.0) <= 1e-9
    # stacks of problems that share the width, the row count and the box,
    # each solved in one call
    for n, d in itertools.product(range(1, 6), range(3)):
        lo, hi = -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
        stack = []
        for _ in range(12):
            h, b, *_ = _subproblem_qp(rng, n)
            g = rng.standard_normal((d, n))
            stack.append((h, b, g, g @ rng.uniform(-2.0, 2.0, n)))
        h, b, g, r = (np.array(a) for a in zip(*stack))
        z, converged, _ = _box_qp(h, b, lo, hi, (g, r) if d else None)
        assert converged.all()
        assert np.all(z >= lo) and np.all(z <= hi)
        for k in range(len(stack)):
            ref = _face_oracle(h[k], b[k], lo, hi, g[k], r[k])
            miss = np.abs(g[k] @ z[k] - r[k]).max(initial=0.0)
            if ref == math.inf:
                assert miss > 1e-9
                continue
            assert miss <= 1e-9
            assert _qp_obj(h[k], b[k], z[k]) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_stacking_changes_no_bit(monkeypatch):
    """A seeded mix of problems solved in one stack and one by one gives each
    problem the same (z, converged, iterations) bits. The mix covers interior
    optima, box-active optima, rank-deficient rows, faces with fewer free
    coordinates than rows (the min-norm fallback), problems that finish at
    different iterations, and one that runs to the 4 (n + 1) cap: its face
    solves are made to step out of the box every time, so each round is
    blocked."""
    rng = np.random.default_rng(23)
    n, d = 4, 2
    lo, hi = -np.ones(n), np.ones(n)
    problems = []
    for k in range(40):
        h, b, *_ = _subproblem_qp(rng, n)
        g = rng.standard_normal((d, n))
        r = g @ rng.uniform(-0.5, 0.5, n) if k % 5 == 0 else g @ rng.uniform(-1.5, 1.5, n)
        if k % 5 == 0:  # an interior optimum
            b = -h @ rng.uniform(-0.5, 0.5, n)
        if k % 5 == 1:  # rank-deficient rows
            g, r = np.vstack([g[:1], 2.0 * g[:1]]), np.r_[r[:1], 2.0 * r[:1]]
        if k % 5 == 2:  # the rows meet the box only at a vertex
            g = np.hstack([np.eye(2) + 0.3, np.zeros((2, 2))]) + np.eye(2, n, 2) * 0.5
            r = g @ np.array([1.0, -1.0, 1.0, -1.0]) + np.array([2.0, 0.0])
        problems.append((h, b, g, r))
    h, b, g, r = (np.array(a) for a in zip(*problems))
    b[-1, 0] = np.nan  # marks the problem whose face solves step out of the box
    r[-1] = g[-1] @ rng.uniform(-0.5, 0.5, n)  # some box point meets its rows

    few_free = []
    face_solve = boxqp._face_solve

    def recording(kkt, free, rhs, rank=None):
        few_free.append(bool((free.sum(axis=1) < kkt.shape[1] - free.shape[1]).any()))
        z, lam = face_solve(kkt, free, rhs, rank)
        z[np.isnan(rhs).any(axis=(1, 2))] = -1.0
        return z, lam

    monkeypatch.setattr(boxqp, "_face_solve", recording)
    stacked = _box_qp(h, b, lo, hi, (g, r))
    alone = [_box_qp(h[k], b[k], lo, hi, (g[k], r[k])) for k in range(len(b))]
    for k, (z, converged, iterations) in enumerate(alone):
        assert stacked[0][k].tobytes() == z.tobytes(), k
        assert (stacked[1][k], stacked[2][k]) == (converged, iterations), k
    assert any(few_free)
    iterations = stacked[2].tolist()
    assert 1 in iterations and len(set(iterations)) > 4
    assert not stacked[1][-1] and stacked[1][:-1].all()
    assert stacked[2][-1] > 4 * (n + 1) > stacked[2][:-1].max()
    rows_miss = np.abs(boxqp._mv(g, stacked[0]) - r).max(axis=1)
    assert (rows_miss > 1e-9).any() and (rows_miss <= 1e-9).sum() > 20


def test_the_face_solve_is_the_min_norm_solution_in_any_stack():
    """On seeded stacks of 64 KKT systems with k right-hand sides, each
    restricted to a random face, _face_solve gives every system the same
    bits alone as in the stack, and its solution matches numpy.linalg.lstsq's
    min-norm solution of the masked system (a held coordinate's row and
    column the identity's, its right-hand sides 0) to 1e-9 relative. The
    stacks mix regular systems, a singular h, rank-deficient rows, rows
    1e-13 from rank-deficient (a numerically singular system), rows 1e-6
    from it (past the LU limit, yet regular), and faces with more rows than
    free coordinates."""
    rng = np.random.default_rng(53)
    d = 2
    for trial in range(6):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        h, g = np.empty((64, n, n)), rng.standard_normal((64, d, n))
        free = rng.random((64, n)) < 0.8
        for i in range(64):
            m = rng.standard_normal((1 if i % 6 == 1 else n + 1, n))  # 1: a singular h
            h[i] = 2.0 * m.T @ m
            if i % 6 == 2:  # rank-deficient rows
                g[i, 1] = 2.0 * g[i, 0]
            elif i % 6 in (3, 4):  # rows 1e-13 or 1e-6 from rank-deficient
                g[i, 1] = 2.0 * g[i, 0] + (1e-13, 1e-6)[i % 6 - 3] * rng.standard_normal(n)
            elif i % 6 == 5:  # one free coordinate under two rows
                free[i] = np.arange(n) == rng.integers(n)
        rhs = rng.standard_normal((64, n + d, k))
        kkt = boxqp._kkt(h, g)
        z, lam = boxqp._face_solve(kkt, free, rhs)
        assert z.shape == (64, n, k) and lam.shape == (64, d, k)
        for i in range(64):
            alone = boxqp._face_solve(kkt[i:i + 1], free[i:i + 1], rhs[i:i + 1])
            assert alone[0][0].tobytes() == z[i].tobytes(), (trial, i)
            assert alone[1][0].tobytes() == lam[i].tobytes(), (trial, i)
            kept = np.r_[free[i], np.ones(d, dtype=bool)]
            masked = np.where(kept[:, None] & kept, kkt[i], 0.0)
            masked[~kept, ~kept] = 1.0
            want = np.linalg.lstsq(masked, np.where(kept[:, None], rhs[i], 0.0), rcond=None)[0]
            got = np.concatenate([z[i], lam[i]])
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (trial, i)


def test_faces_past_the_rank_skip_the_lu_and_keep_their_bits(monkeypatch):
    """Stacks of the start point's g'g systems (no rows, h of rank d), with
    faces of up to d free coordinates (regular, solved by LU) and faces of
    more (singular): told the rank, _face_solve gives the LU only the
    regular faces and sends the singular ones straight to the SVD, and every
    system gets the same bits and the SVD takes the same systems as without
    it."""
    rng = np.random.default_rng(59)
    svd, lu_solve, took = np.linalg.svd, boxqp._lu_solve, {"svd": 0, "lu": 0}
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args: took.update(svd=took["svd"] + len(a))
                        or svd(a, *args))
    monkeypatch.setattr(boxqp, "_lu_solve", lambda a, rhs: took.update(lu=took["lu"] + len(a))
                        or lu_solve(a, rhs))
    d, seen = 2, {"regular": 0, "singular": 0}
    for trial in range(6):
        n, k = int(rng.integers(3, 11)), int(rng.integers(1, 4))
        g = rng.standard_normal((64, d, n))
        h = g.transpose(0, 2, 1) @ g
        free = rng.random((64, n)) < rng.uniform(0.1, 0.9, (64, 1))
        rhs = rng.standard_normal((64, n, k))
        kkt = boxqp._kkt(h, np.zeros((64, 0, n)))
        singular = int((free.sum(axis=1) > d).sum())
        took.update(svd=0, lu=0)
        want = boxqp._face_solve(kkt, free, rhs)
        svd_without = took["svd"]
        assert took["lu"] == 64
        took.update(svd=0, lu=0)
        got = boxqp._face_solve(kkt, free, rhs, rank=d)
        assert took == {"svd": svd_without, "lu": 64 - singular}
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].shape == want[1].shape == (64, 0, k)
        seen["singular"] += singular
        seen["regular"] += 64 - singular
    assert min(seen.values()) > 50


def test_a_ball_below_the_least_norm_point_returns_without_a_search(monkeypatch):
    """No box point lies in a ball smaller than the box's least-norm point
    (1, 1), so that point comes back after the box QP and the least-norm QP,
    and only the first counts as iterations."""
    calls = []

    def counted(h, *args):  # one problem, not the stack of one that solves it
        calls.extend([h] if h.ndim == 2 else [])
        return _box_qp(h, *args)

    monkeypatch.setattr(boxqp, "_box_qp", counted)
    lo, hi = np.ones(2), np.full(2, 10.0)
    z, _, iterations = _ball_box_qp(np.eye(2), np.full(2, -5.0), lo, hi, 1.0)
    assert len(calls) <= 2
    assert np.array_equal(z, lo) and iterations == 1


def test_a_least_norm_point_on_the_sphere_to_rounding_comes_back_inside_the_ball():
    """On the row z_0 + z_1 = 1.5 with z_1 <= 0.5, the box QP's optimum is the
    least-norm point (1, 0.5). A radius 2 ulps below its norm lies within
    rounding of it: that point comes back 5e-13 inside the sphere, still on
    the row. A radius 1e-9 below has no point, and the point itself comes
    back outside the ball."""
    lo, hi = np.full(2, -1.0), np.array([2.0, 0.5])
    rows = (np.ones((1, 2)), np.array([1.5]))
    least = np.array([1.0, 0.5])
    norm = float(np.linalg.norm(least))
    h, b = np.eye(2), np.array([0.0, -10.0])
    z, converged, _ = _ball_box_qp(h, b, lo, hi, np.nextafter(np.nextafter(norm, 0), 0), rows)
    assert converged and np.linalg.norm(z) < norm * (1.0 - 4e-13)
    assert np.abs(z - least).max() < 1e-12 and abs(z.sum() - 1.5) <= EPS_STATE
    z, converged, _ = _ball_box_qp(h, b, lo, hi, norm * (1.0 - 1e-9), rows)
    assert converged and np.array_equal(z, least)


def test_the_bisection_reports_the_flag_of_the_plan_it_returns(monkeypatch):
    """The bisection returns its last feasible-side solve, so it must report
    that solve's convergence flag, not the flag of whichever solve came last.
    Here every box QP reports converged=False exactly when it lands outside
    the ball. Past a cliff at lam = 3 the norm drops from 2 to 1/2, so no
    solve lands in the acceptance band: the search ends on its interval test
    after infeasible-side solves just below the cliff. The exact step aims
    at z = 1, outside the box, so it declines."""
    b, lo, hi, radius = np.array([-4.0]), np.array([-10.0]), np.array([0.9]), 1.0
    outside = []

    def box_qp(h, b_s, lo, hi, rows=None, z=None):
        if not b_s.any():  # the least-norm point of the box: the origin
            return np.zeros(1), True, 1
        lam = 0.5 * (b[0] / b_s[0] - 1.0)  # b_s = b / (1 + 2 lam)
        z = np.array([-2.0 if lam < 3.0 else 0.5])
        outside.append(float(np.linalg.norm(z)) > radius)
        return z, not outside[-1], 1

    monkeypatch.setattr(boxqp, "_box_qp", box_qp)
    z, converged, _ = _ball_box_qp(np.eye(1), b, lo, hi, radius)
    assert outside[-1] and outside.count(False) >= 2  # the last solve was infeasible
    assert z.tolist() == [0.5] and converged


def _ball_kkt_gap(h, b, lo, hi, g, r, radius, z):
    """A certified bound on how far z's objective lies above the minimum
    over the box, the rows g z = r and the ball ||z|| <= radius. Stationarity
    grad + g'nu - a_lo + a_hi + mu z = 0 is solved in least squares with
    nu free, a nonnegative on the bounds z sits at and mu nonnegative if z is
    on the sphere. For every feasible z', convexity and those signs give
    f(z') - f(z) >= res'(z' - z) >= -||res|| ||hi - lo||."""
    n, scale = b.size, 1.0 + float(np.abs(z).max(initial=0.0))
    cols = [g.T, -np.eye(n)[:, z <= lo + 1e-9 * scale], np.eye(n)[:, z >= hi - 1e-9 * scale]]
    if float(np.linalg.norm(z)) >= radius * (1.0 - 1e-9):
        cols.append(z[:, None])
    a = np.hstack(cols)
    lower = np.r_[np.full(g.shape[0], -np.inf), np.zeros(a.shape[1] - g.shape[0])]
    grad = h @ z + b
    if a.shape[1]:
        fit = lsq_linear(a, -grad, bounds=(lower, np.inf), method="bvls")
        grad = grad + a @ fit.x
    return float(np.linalg.norm(grad)) * float(np.linalg.norm(hi - lo))


def test_the_ball_qp_is_optimal_by_a_kkt_certificate():
    """On random box QPs with up to two rows and an energy ball, the ball
    solve returns a feasible point whose certified gap to the optimum is
    below 1e-8 (1 + |f|). The instances cover a singular h (the hard case),
    a trust-region step that leaves the box, a zero radius, a radius below
    the least-norm point of box and rows (then that point comes back) and
    rank-deficient rows."""
    rng = np.random.default_rng(17)
    seen = dict.fromkeys(("hard", "box active", "interior", "zero", "below least",
                          "rank-deficient rows"), 0)
    for trial in range(120):
        n = int(rng.integers(1, 6))
        h, b, lo, hi, g, r = _subproblem_qp(rng, n)
        if trial % 3 == 0:  # strictly convex
            h = h + np.diag(rng.uniform(0.1, 1.0, n))
        if trial % 7 == 0 and r.size:  # the second row repeats the first
            g, r = np.vstack([g[:1], 2.0 * g[:1]]), np.r_[r[:1], 2.0 * r[:1]]
        rows = (g, r) if r.size else None
        z = _box_qp(h, b, lo, hi, rows)[0]
        least_value = _face_oracle(np.eye(n), np.zeros(n), lo, hi, g, r)
        if least_value == math.inf:  # no box point meets the rows
            continue
        least = math.sqrt(2.0 * least_value)
        kind = trial % 4
        if kind == 0:
            radius = 0.0
        elif kind == 1:
            radius = least * rng.uniform(0.2, 0.9)
        else:
            radius = least + rng.uniform(0.05, 0.95) * (float(np.linalg.norm(z)) - least)
        zb, converged, _ = _ball_box_qp(h, b, lo, hi, radius, rows)
        assert converged
        assert np.all(zb >= lo) and np.all(zb <= hi)
        assert np.abs(g @ zb - r).max(initial=0.0) <= 1e-9
        norm = float(np.linalg.norm(zb))
        if radius < least * (1.0 - 1e-9):  # no point meets all three
            assert norm == pytest.approx(least, rel=1e-9, abs=1e-12)
            seen["zero" if radius == 0.0 else "below least"] += 1
            continue
        assert norm <= radius
        if radius == 0.0:  # the origin is the only feasible point
            seen["zero"] += 1
            continue
        gap = _ball_kkt_gap(h, b, lo, hi, g, r, radius, zb)
        assert gap <= 1e-8 * (1.0 + abs(_qp_obj(h, b, zb))), trial
        if norm >= radius * (1.0 - 1e-9):
            null = np.linalg.svd(g)[2][np.linalg.matrix_rank(g):] if r.size else np.eye(n)
            eig = np.linalg.eigvalsh(null @ h @ null.T)
            if eig.size and eig[0] <= 1e-10 * max(1.0, float(np.abs(eig).max())):
                seen["hard"] += 1
            elif np.any(zb <= lo + 1e-9) or np.any(zb >= hi - 1e-9):
                seen["box active"] += 1
            else:
                seen["interior"] += 1
        if r.size and np.linalg.matrix_rank(g) < g.shape[0]:
            seen["rank-deficient rows"] += 1
    assert all(seen.values()), seen


def test_the_exact_ball_step_matches_the_bisection_on_the_augmented_rollout(
        integrator, monkeypatch):
    """The 40-step augmented rollout as shipped, and with the exact
    trust-region step forced to decline so that every ball-active plan goes
    through the bisection: the same status, steps and samples, per-step
    values within 1e-9 relative, and every ball plan inside its ball unless
    no point of box and rows lies in it (then the least-norm point comes back
    after one box QP under the rows past the stacked box QP). The shipped run
    never bisects, and the least-norm ball prune leaves no pair without a
    point in its ball."""
    policy = next(iter(integrator.base_policies.values()))
    x0 = AugmentedState(np.asarray(integrator.start_states[0], dtype=float),
                        float(integrator.budget_spec.e_max))
    box_qp, ball_box_qp = boxqp._box_qp, boxqp._ball_box_qp

    def rollout():
        tally, solves = {"bisected": 0, "no point": 0, "calls": 0}, [0]

        def counted(h, b, lo, hi, rows=None, z=None, rank=None):
            # one problem under the rows: not the start-point QP inside _box_qp,
            # nor the stack of one that solves it
            solves[0] += rows is not None and h.ndim == 2
            return box_qp(h, b, lo, hi, rows, z, rank)

        def ball(h, b, lo, hi, radius, rows=None, boxed=None, factors=None):
            solves[0] = 0  # the box QP itself ran stacked, before the call
            out = ball_box_qp(h, b, lo, hi, radius, rows, boxed, factors)
            tally["calls"] += 1
            tally["bisected"] += solves[0] > 1
            if float(np.linalg.norm(out[0])) > radius:
                assert solves[0] == 1
                tally["no point"] += 1
            return out

        with monkeypatch.context() as patched:
            patched.setattr(boxqp, "_box_qp", counted)
            patched.setattr(shooting, "_ball_box_qp", ball)
            run = run_rollout(integrator.augmented_problem, integrator.augmented_sets["budget"],
                              x0, replace(integrator.solver_defaults, ell=4), 40,
                              base_policy=policy, variant="augmented")
        return run, tally

    shipped, shipped_tally = rollout()
    monkeypatch.setattr(boxqp, "_ball_step", lambda *args, **kwargs: None)
    forced, forced_tally = rollout()
    assert (shipped.status, shipped.steps) == (forced.status, forced.steps) == ("horizon", 40)
    assert ([r["sample_id"] for r in shipped.solver_reports]
            == [r["sample_id"] for r in forced.solver_reports])
    assert np.allclose(shipped.per_step_values, forced.per_step_values, rtol=1e-9, atol=0.0)
    assert shipped_tally == {"bisected": 0, "no point": 0, "calls": 40}
    assert forced_tally == {"bisected": 40, "no point": 0, "calls": 40}


def test_the_curvature_lift_never_lifts_the_bound_above_the_box_optimum():
    """The rows' optimum z* (a KKT solve) bounds every box point on the rows
    from below by its objective lb, and every such point lies at least
    _lift above it. On random box QPs with rows, lb + lift never exceeds the
    face-enumerated optimum (+inf when no box point meets the rows). The
    instances cover rank-deficient rows and a singular h (both lift nothing),
    a free-effort coordinate (a zero row and column of h), a coordinate the
    rows fix (M_ii = 0 to rounding: it lifts to +inf outside the box, and
    nothing inside it or outside by less than the rows' EPS_STATE allows)
    and optima inside the box (no violation)."""
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(("lifted", "rank-deficient rows", "singular", "free effort",
                          "fixed", "no violation", "infeasible"), 0)
    for trial in range(300):
        n = int(rng.integers(1, 5))
        h, b, lo, hi, g, r = _subproblem_qp(rng, n)
        if not r.size:
            g = rng.standard_normal((1, n))
            r = g @ rng.uniform(-2.0, 2.0, n)
        kind = trial % 5
        if kind == 1 and g.shape[0] == 2:  # the second row repeats the first
            g, r = np.vstack([g[:1], 2.0 * g[:1]]), np.r_[r[:1], 2.0 * r[:1]]
        elif kind == 2:  # coordinate k costs nothing
            k = int(rng.integers(n))
            h[k], h[:, k], b[k] = 0.0, 0.0, 0.0
            seen["free effort"] += 1
        elif kind == 3:  # the first row fixes coordinate k: inside, outside, or just
            k = int(rng.integers(n))  # outside by less than the rows' tolerance
            g = np.vstack([np.eye(n)[k], g[1:]])
            r = np.r_[rng.choice([rng.uniform(-2.5, 2.5), hi[k] + 1e-11, lo[k] - 1e-11]), r[1:]]
        z = boxqp._face_solve(boxqp._kkt(h[None], g[None]), np.ones((1, n), dtype=bool),
                              np.r_[-b, r][None, :, None])[0][0, :, 0]
        lb = _qp_obj(h, b, z)
        pinv, give, curvature = boxqp._row_factors(h, g)
        lift = boxqp._lift(give, curvature, z, lo, hi)
        ref = _face_oracle(h, b, lo, hi, g, r)
        assert lift >= 0.0  # never NaN
        assert lb + lift <= ref + 1e-9 * (1.0 + abs(ref)), trial
        rank = np.linalg.matrix_rank(g)
        if rank < g.shape[0]:
            assert not curvature.any() and not pinv.any() and not give.any()
            seen["rank-deficient rows"] += 1
        else:
            np.testing.assert_allclose(pinv, np.linalg.pinv(g), rtol=1e-9, atol=1e-12)
            assert np.array_equal(give, EPS_STATE * np.abs(pinv).sum(axis=1))
            null = np.linalg.svd(g)[2][rank:]
            eig = np.linalg.eigvalsh(null @ h @ null.T)
            if eig.size and eig[0] <= 1e-10 * max(1.0, float(np.abs(eig).max())):
                assert not curvature.any()
                seen["singular"] += 1
        if kind == 3 and curvature.any():
            assert curvature[k] >= 1e12, curvature
            seen["fixed"] += 1
        if np.all(z >= lo) and np.all(z <= hi):
            assert lift == 0.0
            seen["no violation"] += 1
        elif ref == INF:
            seen["infeasible"] += 1
        elif 0.0 < lift < INF:
            seen["lifted"] += 1
    assert all(seen.values()), seen


def test_the_least_norm_ball_prune_drops_only_rows_that_leave_the_ball():
    """A pair is beyond its ball when the least-norm point of its rows,
    less what the rows' EPS_STATE tolerance allows, is longer than the
    radius; rank-deficient rows are never beyond."""
    rng = np.random.default_rng(31)
    for trial in range(60):
        n, d = int(rng.integers(2, 6)), 2
        g = rng.standard_normal((d, n))
        if trial % 4 == 0:
            g[1] = 2.0 * g[0]
        h = np.eye(n)
        pinv, give, _ = boxqp._row_factors(h, g)
        seqs = shooting._SequenceMaps(np.zeros((1, n, 2 * d + 1)), pinv[None], give[None],
                                      np.zeros((1, n)))
        r = rng.uniform(-2.0, 2.0, (4, d))
        least = np.linalg.norm(r @ pinv.T, axis=1)
        # a point meeting the rows to EPS_STATE may be up to give.sum() shorter
        radii = np.array([least[0] * 0.999, least[1] * 1.001, least[2] - 0.5 * give.sum(), np.inf])
        beyond = shooting._beyond_ball(seqs, r[None], radii)[0]
        if trial % 4 == 0:
            assert not beyond.any()
        else:
            # the least-norm point meets the rows, so a ball holding it is never beyond
            assert np.abs(g @ (pinv @ r[1]) - r[1]).max() <= 1e-12
            assert beyond.tolist() == [True, False, False, False]
