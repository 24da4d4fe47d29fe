"""Acceptance gates for the shipped instances, one verdict line each.

Each test prints a single criterion line; run with -s to see them all.
Hard gates are asserted. Reference solver numbers are soft gates: the
closed-loop ordering must hold, proximity is reported but a better
result than the reference is not a failure.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ddrollout import (
    AugmentedState,
    FiniteControls,
    SolverConfig,
    merge,
    run_multiagent,
    run_rollout,
    simulate_policy,
    trajectory_cost,
)
from ddrollout.costs import INF
from ddrollout.lookahead import solve, solve_discrete, solve_restricted

from conftest import make_random_instance, nested_pair, optimal_cost, plain_lookahead

# previously recorded closed-loop results for the same configurations;
# proximity is reported, never gated (a better result is fine)
REFERENCE_ROLLOUT = {(1.0, 1.0): 5.0162, (8.0, -9.0): 318.9486}
REFERENCE_BUDGET = (74.7492, 59.4915, 49.9164)


def report(num, text, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {text}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def info(num, text):
    print(f"[criterion {num:02d}]   {text}")


@pytest.fixture(scope="module")
def runs(spiral, integrator, grid, tour):
    """Every closed-loop run the criteria share, with wall times."""
    out = {"times": {}}

    policy = next(iter(spiral.base_policies.values()))
    sset = spiral.sample_sets[spiral.default_set]
    for x0 in spiral.start_states:
        key = tuple(float(c) for c in x0)
        t0 = time.perf_counter()
        run = run_rollout(spiral.problem, sset, x0, spiral.solver_defaults, 80,
                          base_policy=policy)
        out["times"][("spiral", key)] = time.perf_counter() - t0
        out[("spiral", key)] = run

    gcfg = replace(grid.solver_defaults, ell=2)
    gpol = next(iter(grid.base_policies.values()))
    gset = grid.sample_sets["trajectory"]
    out["grid-basic"] = run_rollout(grid.problem, gset, grid.start_states[0],
                                    gcfg, 30, base_policy=gpol)
    out["grid-multi"] = run_multiagent(grid.problem, gset, grid.start_states[0],
                                       gcfg, 30, grid.partition, gpol)

    for label in ("cdb", "cdb+bcd", "cdb+bcd+abd"):
        parts = label.split("+")
        cur = tour.sample_sets[parts[0]] if len(parts) == 1 else \
            merge([tour.sample_sets[p] for p in parts], label=label)
        out[("tour", label)] = run_rollout(tour.problem, cur,
                                           tour.start_states[0],
                                           tour.solver_defaults, 8)

    ipol = next(iter(integrator.base_policies.values()))
    x0 = integrator.start_states[0]
    cap = integrator.budget_spec.e_max
    icfg = replace(integrator.solver_defaults, ell=5)
    t0 = time.perf_counter()
    out["budget-base-traj"] = simulate_policy(integrator.problem, ipol, x0,
                                              max_steps=2000)
    out["budget-capped"] = run_rollout(
        integrator.augmented_problem, integrator.augmented_sets["budget"],
        AugmentedState(x0, cap), icfg, 200, base_policy=ipol)
    out["budget-free"] = run_rollout(
        integrator.problem, integrator.sample_sets["trajectory"], x0,
        icfg, 80, base_policy=ipol)
    out["times"]["budget"] = time.perf_counter() - t0
    return out


UNPERTURBED = [
    ("spiral", (1.0, 1.0), "continuous"),
    ("spiral", (8.0, -9.0), "continuous"),
    ("grid-basic", None, "discrete"),
    ("grid-multi", None, "discrete"),
    (("tour", "cdb"), None, "discrete"),
    (("tour", "cdb+bcd"), None, "discrete"),
    (("tour", "cdb+bcd+abd"), None, "discrete"),
    ("budget-capped", None, "continuous"),
    ("budget-free", None, "continuous"),
]


def _lookup(runs, key, sub):
    return runs[(key, sub)] if sub is not None else runs[key]


def test_criterion_01_base_policy_costs(spiral):
    policy = next(iter(spiral.base_policies.values()))
    t0 = time.perf_counter()
    got = {tuple(x0): trajectory_cost(simulate_policy(spiral.problem, policy, x0,
                                                      max_steps=500))
           for x0 in spiral.start_states}
    elapsed = time.perf_counter() - t0
    ok = (abs(got[(1.0, 1.0)] - 5.5556) <= 1e-3
          and abs(got[(8.0, -9.0)] - 402.778) <= 1e-2
          and elapsed < 1.0)
    assert report(1, "spiral base-policy costs at both starts", ok,
                  f"{got[(1.0, 1.0)]:.4f}, {got[(8.0, -9.0)]:.4f}, {elapsed:.2f}s"), got


def test_criterion_02_rollout_improves_on_base(spiral, runs):
    policy = next(iter(spiral.base_policies.values()))
    ok = True
    for x0 in spiral.start_states:
        key = tuple(float(c) for c in x0)
        run = runs[("spiral", key)]
        base = trajectory_cost(simulate_policy(spiral.problem, policy, x0,
                                               max_steps=500))
        elapsed = runs["times"][("spiral", key)]
        ok = ok and run.total_cost <= base and elapsed < 60.0
        ref = REFERENCE_ROLLOUT[key]
        rel = (run.total_cost - ref) / ref
        verdict = ("better than reference" if rel <= 0
                   else f"within {100 * rel:.2f}% of reference")
        info(2, f"x0={key}: rollout {run.total_cost:.4f} vs base {base:.4f} "
                f"in {elapsed:.1f}s; reference {ref:.4f}: {verdict}")
        # soft gate only: proximity is informational, improvement is the gate
    assert report(2, "five-step lookahead rollout at or below base", ok)


def test_criterion_03_per_step_values_descend(runs):
    worst = 0.0
    ok = True
    for key, sub, kind in UNPERTURBED:
        values = _lookup(runs, key, sub).per_step_values
        for a, b in zip(values, values[1:]):
            if kind == "discrete":
                ok = ok and b <= a
            else:
                slack = 1e-6 * max(1.0, abs(a))
                worst = max(worst, (b - a) / max(1.0, abs(a)))
                ok = ok and b <= a + slack
    assert report(3, "per-step lookahead values never increase", ok,
                  f"worst continuous rise {worst:.2e}")


def test_criterion_04_cost_value_chain(runs):
    ok = True
    for key, sub, kind in UNPERTURBED:
        run = _lookup(runs, key, sub)
        # a run cut off at its horizon has a truncated cost: it proves nothing
        assert run.status != "horizon", (key, sub)
        first = run.per_step_values[0]
        cert = run.initial_set_value
        if cert == INF:
            continue
        slack = 0.0 if kind == "discrete" else \
            1e-6 * max(1.0, abs(first), abs(cert))
        ok = ok and run.total_cost <= first + slack and first <= cert + slack
    assert report(4, "realized <= lookahead <= certified on every run", ok)


def test_criterion_05_random_instances_match_oracle():
    t0 = time.perf_counter()
    cfg_ell = 2
    checked = 0
    for seed in range(50):
        problem, base, n, m = make_random_instance(seed)
        small, big = nested_pair(problem, base, n, seed)
        cfg = replace(SolverConfig(), ell=cfg_ell)
        for x in range(n):
            for sset in (small, big):
                got = solve(problem, sset, x, cfg).value
                want = plain_lookahead(problem, sset, x, cfg_ell)
                assert got == want, (seed, x, sset.label, got, want)
            v_small = plain_lookahead(problem, small, x, cfg_ell)
            v_big = plain_lookahead(problem, big, x, cfg_ell)
            assert v_big <= v_small, (seed, x)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    assert report(5, "50 random instances: solver == oracle, supersets help", ok,
                  f"{checked} states in {elapsed:.1f}s")


def test_criterion_06_tour_instance_exact_tours(runs):
    want = {"cdb": ("ACDBA", 11.0), "cdb+bcd": ("ABCDA", 7.0),
            "cdb+bcd+abd": ("ABDCA", 4.0)}
    ok = True
    for label, (tour_str, cost) in want.items():
        run = runs[("tour", label)]
        got = "".join(run.trajectory.states[-1])
        ok = ok and got == tour_str and run.total_cost == cost
        info(6, f"{label}: {got} at {run.total_cost:.0f}")
    assert report(6, "tours match exactly as the sample set grows", ok)


def test_criterion_07_budget_accounting_and_ordering(runs, integrator):
    base = trajectory_cost(runs["budget-base-traj"])
    capped, free = runs["budget-capped"], runs["budget-free"]
    spec = integrator.budget_spec

    traj = capped.trajectory
    head0 = traj.states[0].info
    head_end = traj.states[-1].info
    spent = math.fsum(float(spec.per_step_usage(s.base, u))
                      for s, u in zip(traj.states, traj.controls))
    folded = head0
    for s, u in zip(traj.states, traj.controls):
        folded -= float(spec.per_step_usage(s.base, u))

    identity = spent == head0 - head_end and folded == head_end
    capped_ok = head_end >= 0.0 and spent <= spec.e_max
    ordering = base >= capped.total_cost >= free.total_cost
    elapsed = runs["times"]["budget"]
    for label, got, ref in (("base", base, REFERENCE_BUDGET[0]),
                            ("capped", capped.total_cost, REFERENCE_BUDGET[1]),
                            ("free", free.total_cost, REFERENCE_BUDGET[2])):
        info(7, f"{label}: {got:.4f} (reference {ref:.4f}, ordering-only gate)")
    ok = identity and capped_ok and ordering and elapsed < 120.0
    assert report(7, "budget accounting exact, ordering base >= capped >= free",
                  ok, f"spent {spent:.6f} of {spec.e_max}, {elapsed:.1f}s")


def test_criterion_08_multiagent_and_restricted_sandwich(runs, grid):
    start = grid.start_states[0]
    base_value = grid.notes["base_cost"]
    multi = runs["grid-multi"]
    opt = optimal_cost(grid.problem, start)

    gpol = next(iter(grid.base_policies.values()))

    def pin_second(state):
        fixed = gpol.action(state)[1]
        return FiniteControls(tuple((m, fixed)
                                    for m in grid.partition.options(state, 0)))

    restricted = solve_restricted(grid.problem, grid.sample_sets["trajectory"],
                                  start, pin_second,
                                  replace(grid.solver_defaults, ell=2),
                                  policy=gpol)
    ok = (multi.total_cost <= base_value
          and opt <= restricted.value <= base_value)
    assert report(8, "agent-by-agent rollout <= base, restricted value sandwiched",
                  ok, f"optimal {opt:.0f} <= restricted {restricted.value:.0f} "
                      f"<= base {base_value:.0f}; multiagent {multi.total_cost:.0f}")


def test_criterion_09_value_iteration_monotone():
    ok = True
    for seed in range(10):
        problem, base, n, m = make_random_instance(seed)
        _, big = nested_pair(problem, base, n, seed)
        memo = {}
        for x in range(n):
            row = solve_discrete(problem, big, x, SolverConfig(ell=4), memo=memo).per_stage_values
            for a, b in zip(row, row[1:]):
                ok = ok and b <= a
    assert report(9, "value-iteration iterates pointwise nonincreasing", ok)


def test_criterion_10_disturbances_never_crash(spiral):
    sset = spiral.sample_sets[spiral.default_set]
    cfg = spiral.solver_defaults
    x0 = spiral.start_states[0]

    def small_bump(t, x):
        return x + np.array([0.5, -0.5]) if t == 3 else x

    def huge_bump(t, x):
        return x + np.array([60.0, 60.0]) if t == 2 else x

    recovered = run_rollout(spiral.problem, sset, x0, cfg, 120,
                            disturbance=small_bump, variant="disturbance")
    lost = run_rollout(spiral.problem, sset, x0, cfg, 40,
                       disturbance=huge_bump, variant="disturbance")
    ok = (recovered.status in ("stopped", "closed_in_set", "horizon")
          and math.isfinite(recovered.total_cost)
          and lost.status == "infeasible_after_disturbance"
          and len(lost.trajectory.states) >= 3)
    assert report(10, "disturbances: recoverable completes, unreachable flagged",
                  ok, f"{recovered.status} at {recovered.total_cost:.4f}; "
                      f"{lost.status} after {len(lost.trajectory.controls)} steps")
