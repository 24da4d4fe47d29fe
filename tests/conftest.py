"""Shared fixtures, the random finite-instance generator and exact oracles.

Random instances are small absorbing-target shortest-path problems:
state 0 is the stopping state, control 0 follows a random in-tree over
the state indices so the recorded base policy always terminates, and the
remaining controls jump anywhere. Stage costs are dyadic (multiples of
1/8) so short plans sum exactly in floating point and oracle comparisons
can demand bit equality.
"""

import copy
import heapq
import itertools
import random

import pytest

from ddrollout import (
    FiniteControls,
    Policy,
    ProblemDef,
    build_from_trajectory,
    make_instance,
    merge,
    simulate_policy,
)
from ddrollout.costs import INF
from ddrollout.model import state_key
from ddrollout.serialization import sample_set_to_doc


def make_random_instance(seed, max_states=30, max_controls=4):
    rnd = random.Random(seed)
    n = rnd.randint(4, max_states)
    m = rnd.randint(2, max_controls)
    nxt = [[0] * m for _ in range(n)]
    cost = [[0.0] * m for _ in range(n)]
    for x in range(1, n):
        nxt[x][0] = rnd.randrange(0, x)  # strictly lower index: must reach 0
        for u in range(m):
            if u > 0:
                nxt[x][u] = rnd.randrange(0, n)
            cost[x][u] = rnd.randint(4, 32) / 8.0

    problem = ProblemDef(
        dynamics=lambda x, u: nxt[x][u],
        stage_cost=lambda x, u: cost[x][u],
        control_set=lambda x: FiniteControls(tuple(range(m))),
        stopping_predicate=lambda x: x == 0,
        name=f"random-{seed}",
    )
    base = Policy(action=lambda x: 0, id="tree")
    return problem, base, n, m


def base_sample_sets(problem, base, starts):
    """One explicit set per base run, in start order."""
    out = []
    for i, s in enumerate(starts):
        traj = simulate_policy(problem, base, s)
        out.append(build_from_trajectory(traj, label=f"run-{i}"))
    return out


def nested_pair(problem, base, n, seed):
    """A base-run sample set and a strict superset built from more runs."""
    rnd = random.Random(seed ^ 0x5EED)
    starts = [rnd.randrange(1, n) for _ in range(min(4, n - 1))]
    sets = base_sample_sets(problem, base, starts)
    small = sets[0]
    big = merge(sets, label="all-runs")
    return small, big


def plain_lookahead(problem, sset, x, ell):
    """No-memo reference recursion; additions associate right, like the solver."""
    if ell == 0:
        return sset.terminal_cost(x)
    best = INF
    for u in problem.control_set(x).controls:
        g = problem.stage_cost(x, u)
        if g == INF:
            continue
        tail = plain_lookahead(problem, sset, problem.dynamics(x, u), ell - 1)
        if tail == INF:
            continue
        v = g + tail
        if v < best:
            best = v
    return best


def optimal_cost(problem, x0):
    """Exact optimal cost from x0 to the stopping set by uniform-cost search
    over finite control sets; +inf if no stopping state is reachable."""
    counter = itertools.count()
    frontier = [(0.0, next(counter), x0)]
    dist = {state_key(x0): 0.0}
    while frontier:
        acc, _, state = heapq.heappop(frontier)
        if acc > dist[state_key(state)]:
            continue
        if problem.is_stopping(state):
            return acc
        for u in problem.control_set(state).controls:
            g = problem.stage_cost(state, u)
            if g == INF:
                continue
            nxt, cand = problem.dynamics(state, u), acc + g
            if cand < dist.get(state_key(nxt), INF):
                dist[state_key(nxt)] = cand
                heapq.heappush(frontier, (cand, next(counter), nxt))
    return INF


def widened_doc(sset, shift=5e-4, eps_state=1e-3) -> dict:
    """sset's document with every recorded successor moved by shift and a
    stored eps_state wide enough to forgive the move."""
    doc = copy.deepcopy(sample_set_to_doc(sset))
    doc["eps_state"] = eps_state
    for e in doc["entries"]:
        if e["successor"] is not None:
            e["successor"] = {"__vector__": [c + shift for c in e["successor"]["__vector__"]]}
    return doc


@pytest.fixture(scope="session")
def spiral():
    return make_instance("hybrid-spiral")


@pytest.fixture(scope="session")
def integrator():
    return make_instance("double-integrator")


@pytest.fixture(scope="session")
def grid():
    return make_instance("two-vehicle-grid")


@pytest.fixture(scope="session")
def tour():
    return make_instance("four-city-tour")
