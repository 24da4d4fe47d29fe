"""Built-in problem instances.

Four families, each constructed with its recorded base policies and the
sample sets their trajectories produce. Constructors validate their own
claims (stability margins, admissibility along the seed run, tour
optimality) and refuse to build an inconsistent instance, so the numbers
stored in the bundle notes are always freshly computed rather than assumed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .budget import BudgetConstraintSpec, augment_problem, augment_sample_set
from .costs import INF
from .engine import AgentPartition
from .errors import SearchSpaceError
from .lookahead import SolverConfig
from .model import (EPS_STATE, BoxControls, FiniteControls, LinearMode,
                    PiecewiseLinearStructure, Policy, ProblemDef,
                    simulate_policy, state_key, trajectory_cost)
from .sample_sets import AnalyticSampleSet, build_from_trajectory, merge


@dataclass(frozen=True)
class InstanceBundle:
    """A ready-to-run problem: dynamics, recorded policies, sample sets."""

    name: str
    problem: ProblemDef
    base_policies: dict
    sample_sets: dict
    default_set: str
    start_states: tuple
    solver_defaults: SolverConfig
    notes: dict = field(default_factory=dict)
    partition: AgentPartition | None = None
    budget_spec: BudgetConstraintSpec | None = None
    augmented_problem: ProblemDef | None = None
    augmented_sets: dict | None = None
    mpc_quadratic: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Spiral with a sign-switching rotation mode


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return 0.8 * np.array([[c, -s], [s, c]])


def make_hybrid_spiral() -> InstanceBundle:
    """Two rotation modes selected by the sign of the first coordinate,
    contracting by 0.8 per step; one scalar actuator on the second state.

    The uncontrolled system spirals into the origin, so the do-nothing
    policy has the exact quadratic cost x'x / 0.36 and the disk of that
    policy's trajectories (radius 12.5, so one step from any member stays
    in the state box) is an analytic sample set.
    """
    a_pos = _rotation(math.pi / 3.0)
    a_neg = _rotation(-math.pi / 3.0)
    b = np.array([[0.0], [1.0]])
    zero = np.zeros(2)
    q = np.eye(2)
    r = np.zeros((1, 1))  # control effort is free; only the state is priced
    lo = np.array([-10.0, -10.0])
    hi = np.array([10.0, 10.0])
    lo_tol, hi_tol = lo - EPS_STATE, hi + EPS_STATE

    modes = (LinearMode(a_pos, b, zero), LinearMode(a_neg, b, zero))

    def dynamics(x, u):
        # the scalar form of pl.mode_of: mode 0 holds the boundary x[0] = 0
        m = modes[0] if x[0] >= 0.0 else modes[1]
        return m.a @ x + m.b @ np.asarray(u, dtype=float)

    def stage_cost(x, u):
        if (x < lo_tol).any() or (x > hi_tol).any():
            return INF
        return float(x @ x)

    # mode 0 where -x[0] <= 0, mode 1 where x[0] <= 0
    pl = PiecewiseLinearStructure(modes=modes, q=q, r=r, state_box=(lo, hi),
                                  region_f=np.array([[[-1.0, 0.0]], [[1.0, 0.0]]]),
                                  region_g=np.zeros((2, 1)))
    problem = ProblemDef(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_set=lambda x: BoxControls(np.array([-1.0]), np.array([1.0])),
        name="hybrid-spiral",
        pl=pl,
    )

    coast = Policy(action=lambda x: np.zeros(1), id="coast",
                   analytic_cost=lambda x: float(x @ x) / 0.36)

    p_tail = np.eye(2) / 0.36
    r2 = 12.5 ** 2

    def in_region(x) -> bool:
        x = np.asarray(x, dtype=float)
        if (x < lo_tol).any() or (x > hi_tol).any():
            return False
        return float(x @ x) <= r2 + 1e-12

    def sample_member(rng):
        while True:
            cand = rng.uniform(lo, hi)
            if float(cand @ cand) <= r2:
                return cand

    disk = AnalyticSampleSet(
        label="coast-disk",
        policy_id="coast",
        contains_fn=in_region,
        value_fn=lambda x: float(np.asarray(x) @ np.asarray(x)) / 0.36,
        sample_member=sample_member,
        quadratic=p_tail,
    )

    starts = (np.array([1.0, 1.0]), np.array([8.0, -9.0]))
    # horizon-10 enumeration needs 2^9 mode sequences, over the default cap
    notes = {"base_costs": {}, "mpc_ell": 10, "mpc_terminal": "origin",
             "mpc_mode_cap": 512}
    sample_sets = {"disk": disk}
    for i, x0 in enumerate(starts):
        if not in_region(x0):
            raise ValueError(f"start state {x0} outside the sampled region")
        notes["base_costs"][tuple(x0)] = coast.analytic_cost(x0)
        run = simulate_policy(problem, coast, x0, max_steps=80)
        sample_sets[f"trajectory-{i}"] = build_from_trajectory(
            run, label=f"coast-run-{i}")

    return InstanceBundle(
        name="hybrid-spiral",
        problem=problem,
        base_policies={"coast": coast},
        sample_sets=sample_sets,
        default_set="disk",
        start_states=starts,
        solver_defaults=SolverConfig(ell=5),
        notes=notes,
        mpc_quadratic=None,
    )


# ---------------------------------------------------------------------------
# Double integrator with state box and a control-energy budget


def make_constrained_double_integrator() -> InstanceBundle:
    """Position/velocity chain under a +-4 state box and unit control box,
    with a control-energy budget of 0.5.

    The recorded policy is a deliberately gentle stabilizing gain, so its
    trajectory is admissible everywhere and leaves obvious room for
    improvement. Its exact tail cost and tail control energy both solve
    discrete Lyapunov equations, which gives the trajectory analytic tail
    values and an exact per-state energy requirement for the budget layer.
    """
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[0.0], [1.0]])
    q = np.eye(2)
    r = np.array([[1.0]])
    k_gain = np.array([[0.05, 0.3]])
    lo = np.array([-4.0, -4.0])
    hi = np.array([4.0, 4.0])
    lo_tol, hi_tol = lo - EPS_STATE, hi + EPS_STATE

    a_cl = a - b @ k_gain
    if max(abs(np.linalg.eigvals(a_cl))) >= 1.0:
        raise ValueError("recorded gain is not stabilizing")
    p_tail = solve_discrete_lyapunov(a_cl.T, q + k_gain.T @ r @ k_gain)
    p_usage = solve_discrete_lyapunov(a_cl.T, k_gain.T @ k_gain)

    def dynamics(x, u):
        return a @ x + b @ np.asarray(u, dtype=float)

    def stage_cost(x, u):
        if (x < lo_tol).any() or (x > hi_tol).any():
            return INF
        u = np.asarray(u, dtype=float)
        return float(x @ x) + float(u @ u)

    pl = PiecewiseLinearStructure(modes=(LinearMode(a, b, np.zeros(2)),),
                                  q=q, r=r, state_box=(lo, hi))
    problem = ProblemDef(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_set=lambda x: BoxControls(np.array([-1.0]), np.array([1.0])),
        name="double-integrator",
        pl=pl,
    )

    def act(x):
        return np.clip(-(k_gain @ x), -1.0, 1.0)

    base = Policy(action=act, id="gentle-gain",
                  analytic_cost=lambda x: float(x @ p_tail @ x))

    x0 = np.array([-3.95, -0.05])
    seed = simulate_policy(problem, base, x0, max_steps=80)
    # the analytic tails and the energy ledger are only exact while the
    # gain never saturates and the state stays in the box; check both
    for state in seed.states:
        raw = -(k_gain @ state)
        if abs(float(raw[0])) > 1.0 - 1e-9:
            raise ValueError("recorded gain saturates along the seed run")
        if (state < lo_tol).any() or (state > hi_tol).any():
            raise ValueError("seed run leaves the state box")

    spec = BudgetConstraintSpec(
        per_step_usage=lambda x, u: float(np.asarray(u) @ np.asarray(u)),
        e_max=0.5,
        usage_quad=np.array([[1.0]]),
    )
    traj_set = build_from_trajectory(seed, label="gentle-gain-run")
    budget_set = augment_sample_set(
        seed, spec, label="gentle-gain-run+budget",
        tail_usage_anchor=lambda x: float(x @ p_usage @ x))
    aug_problem = augment_problem(problem, spec)

    notes = {
        "base_cost": trajectory_cost(seed),
        "base_energy": float(x0 @ p_usage @ x0),
        "tail_matrix": p_tail,
        "usage_matrix": p_usage,
        "mpc_terminal": "free",
    }
    if notes["base_energy"] > spec.e_max:
        raise ValueError("budget cap below the recorded policy's own energy")

    return InstanceBundle(
        name="double-integrator",
        problem=problem,
        base_policies={"gentle-gain": base},
        sample_sets={"trajectory": traj_set},
        default_set="trajectory",
        start_states=(x0,),
        solver_defaults=SolverConfig(ell=4),
        notes=notes,
        budget_spec=spec,
        augmented_problem=aug_problem,
        augmented_sets={"budget": budget_set},
        mpc_quadratic=p_tail,
    )


# ---------------------------------------------------------------------------
# Two vehicles on a grid


_MOVES = {
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
    "stay": (0, 0),
    "up": (-1, 0),
}


def make_two_vehicle_grid() -> InstanceBundle:
    """Two vehicles crossing a 5x5 grid, one move each per step.

    Cost counts moves (waiting is free). Landing on the same cell or
    swapping cells is forbidden. The recorded policy routes vehicle one
    greedily and lets vehicle two dodge, which wastes moves; a joint
    lookahead discovers that waiting is cheaper than dodging.
    """
    start = ((0, 2), (2, 0))
    targets = ((4, 2), (2, 4))

    def on_grid(cell) -> bool:
        return 0 <= cell[0] < 5 and 0 <= cell[1] < 5

    def apply_move(cell, move):
        d = _MOVES[move]
        return (cell[0] + d[0], cell[1] + d[1])

    def vehicle_options(state, agent):
        pos = state[agent]
        if pos == targets[agent]:
            return ("stay",)
        return tuple(m for m in sorted(_MOVES) if on_grid(apply_move(pos, m)))

    def control_set(state):
        pairs = itertools.product(vehicle_options(state, 0), vehicle_options(state, 1))
        return FiniteControls(tuple(pairs))

    def dynamics(state, joint):
        return (apply_move(state[0], joint[0]), apply_move(state[1], joint[1]))

    def stage_cost(state, joint):
        n0 = apply_move(state[0], joint[0])
        n1 = apply_move(state[1], joint[1])
        if not (on_grid(n0) and on_grid(n1)):
            return INF
        if n0 == n1:
            return INF
        if n0 == state[1] and n1 == state[0]:  # swap
            return INF
        return float((joint[0] != "stay") + (joint[1] != "stay"))

    def stopping(state) -> bool:
        return state == targets

    problem = ProblemDef(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_set=control_set,
        stopping_predicate=stopping,
        name="two-vehicle-grid",
    )

    def manhattan(cell, tgt) -> int:
        return abs(cell[0] - tgt[0]) + abs(cell[1] - tgt[1])

    def ranked_moves(pos, tgt):
        out = []
        for m in sorted(_MOVES):
            if m == "stay":
                continue
            nxt = apply_move(pos, m)
            if on_grid(nxt):
                out.append((manhattan(nxt, tgt), m, nxt))
        out.sort()
        return out

    def base_action(state):
        p0, p1 = state
        (m0, n0), m1 = ("stay", p0), "stay"
        if p0 != targets[0]:
            for _, m, nxt in ranked_moves(p0, targets[0]):
                if nxt != p1:  # priority vehicle only dodges the occupied cell
                    m0, n0 = m, nxt
                    break
        if p1 != targets[1]:
            for _, m, nxt in ranked_moves(p1, targets[1]):
                if nxt != n0 and nxt != p0:
                    m1 = m
                    break
        return (m0, m1)

    base = Policy(action=base_action, id="priority-greedy")
    seed = simulate_policy(problem, base, start, max_steps=200)
    if not seed.terminated_in_stopping_set:
        raise ValueError("recorded grid policy fails to reach both targets")
    sset = build_from_trajectory(seed, label="priority-greedy-run")

    partition = AgentPartition(
        agents=(0, 1),
        options=vehicle_options,
        combine=lambda joint, agent, move: (
            (move, joint[1]) if agent == 0 else (joint[0], move)),
    )

    return InstanceBundle(
        name="two-vehicle-grid",
        problem=problem,
        base_policies={"priority-greedy": base},
        sample_sets={"trajectory": sset},
        default_set="trajectory",
        start_states=(start,),
        solver_defaults=SolverConfig(ell=4),
        notes={"base_cost": trajectory_cost(seed), "targets": targets},
        partition=partition,
    )


# ---------------------------------------------------------------------------
# Four-city tour


_TOUR_COST = {
    "A": {"B": 1.0, "C": 3.0, "D": 4.0},
    "B": {"A": 3.0, "C": 2.0, "D": 1.0},
    "C": {"A": 1.0, "B": 4.0, "D": 2.0},
    "D": {"A": 2.0, "B": 3.0, "C": 1.0},
}
_CITIES = ("A", "B", "C", "D")


def _tour_complete(seq: str) -> bool:
    return len(seq) > 1 and seq.endswith("A") and all(c in seq for c in _CITIES)


def make_tsp_variant() -> InstanceBundle:
    """Shortest closed tour over four cities, framed as control: a state is
    the visit sequence so far and a control names the next city. Illegal
    moves (revisits, early return) price at infinity; completed tours are
    absorbing and cost-free. Leg costs are asymmetric so the optimum is a
    single tour rather than a reversal pair.
    """

    def dynamics(seq, city):
        return seq if _tour_complete(seq) else seq + city

    def stage_cost(seq, city):
        if _tour_complete(seq):
            return 0.0
        if city == "A":
            if not all(c in seq for c in ("B", "C", "D")):
                return INF  # early return to the depot
        elif city in seq:
            return INF  # revisit
        return _TOUR_COST[seq[-1]][city]

    problem = ProblemDef(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_set=lambda seq: FiniteControls(_CITIES),
        stopping_predicate=_tour_complete,
        name="four-city-tour",
    )

    def preference_policy(order: tuple, pid: str) -> Policy:
        def act(seq):
            if _tour_complete(seq):
                return "A"
            for c in order:
                if c not in seq:
                    return c
            return "A"
        return Policy(action=act, id=pid)

    mu0 = preference_policy(("C", "D", "B"), "prefers-cdb")
    mu1 = preference_policy(("B", "C", "D"), "prefers-bcd")

    run0 = simulate_policy(problem, mu0, "A", max_steps=10)
    run1 = simulate_policy(problem, mu1, "A", max_steps=10)
    run_abd = simulate_policy(problem, mu0, "ABD", max_steps=10)
    s0 = build_from_trajectory(run0, label="cdb-run")
    s1 = build_from_trajectory(run1, label="bcd-run")
    s_abd = build_from_trajectory(run_abd, label="cdb-from-abd")

    # the asymmetric leg costs must admit exactly one optimal tour
    best, best_tours = INF, []
    for perm in itertools.permutations("BCD"):
        tour = "A" + "".join(perm) + "A"
        c = sum(_TOUR_COST[tour[i]][tour[i + 1]] for i in range(4))
        if c < best:
            best, best_tours = c, [tour]
        elif c == best:
            best_tours.append(tour)
    if len(best_tours) != 1:
        raise ValueError("leg costs admit tied optimal tours")

    return InstanceBundle(
        name="four-city-tour",
        problem=problem,
        base_policies={"prefers-cdb": mu0, "prefers-bcd": mu1},
        sample_sets={
            "cdb": s0,
            "bcd": s1,
            "merged": merge([s0, s1], label="cdb+bcd"),
            "merged+abd": merge([s0, s1, s_abd], label="cdb+bcd+abd"),
            "abd": s_abd,
        },
        default_set="cdb",
        start_states=("A",),
        solver_defaults=SolverConfig(ell=2),
        notes={
            "base_costs": {"prefers-cdb": trajectory_cost(run0),
                           "prefers-bcd": trajectory_cost(run1)},
            "optimal_tour": best_tours[0],
            "optimal_cost": best,
        },
    )


# ---------------------------------------------------------------------------


INSTANCES = {
    "hybrid-spiral": make_hybrid_spiral,
    "double-integrator": make_constrained_double_integrator,
    "two-vehicle-grid": make_two_vehicle_grid,
    "four-city-tour": make_tsp_variant,
}

# short names accepted anywhere an instance is named
ALIASES = {
    "hybrid": "hybrid-spiral",
    "spiral": "hybrid-spiral",
    "integrator": "double-integrator",
    "vehicles": "two-vehicle-grid",
    "grid": "two-vehicle-grid",
    "tsp": "four-city-tour",
    "tour": "four-city-tour",
}


def resolve_instance_name(name: str) -> str:
    return ALIASES.get(name, name)


def make_instance(name: str) -> InstanceBundle:
    name = resolve_instance_name(name)
    if name not in INSTANCES:
        known = ", ".join(sorted(INSTANCES))
        raise KeyError(f"unknown instance {name!r}; known: {known}")
    return INSTANCES[name]()


def optimal_cost(problem: ProblemDef, x0, node_cap: int = 500_000):
    """Exact optimal cost-to-reach-stopping by uniform-cost search.

    Only for finite control sets. Returns (cost, states, controls) along
    one optimal path; raises SearchSpaceError past the node cap.
    """
    if problem.stopping_predicate is None:
        raise ValueError("optimal search needs a stopping predicate")
    counter = itertools.count()
    start_key = state_key(x0)
    frontier = [(0.0, next(counter), x0)]
    dist = {start_key: 0.0}
    came = {start_key: None}         # key -> (parent key, control)
    known = {start_key: x0}
    pops = 0
    while frontier:
        acc, _, state = heapq.heappop(frontier)
        key = state_key(state)
        if acc > dist.get(key, INF):
            continue
        pops += 1
        if pops > node_cap:
            raise SearchSpaceError(f"search exceeded {node_cap} expansions")
        if problem.is_stopping(state):
            states, controls = [state], []
            k = key
            while came[k] is not None:
                pk, ctrl = came[k]
                controls.append(ctrl)
                states.append(known[pk])
                k = pk
            states.reverse()
            controls.reverse()
            return acc, tuple(states), tuple(controls)
        spec = problem.control_set(state)
        if not isinstance(spec, FiniteControls):
            raise ValueError("optimal search requires finite control sets")
        for u in sorted(spec.controls):
            g = problem.stage_cost(state, u)
            if g == INF:
                continue
            nxt = problem.dynamics(state, u)
            nk = state_key(nxt)
            cand = acc + g
            if cand < dist.get(nk, INF):
                dist[nk] = cand
                came[nk] = (key, u)
                known[nk] = nxt
                heapq.heappush(frontier, (cand, next(counter), nxt))
    return INF, (), ()
