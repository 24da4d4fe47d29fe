"""Multistep lookahead with a sample-set terminal constraint.

The l-step problem from x minimizes

    sum_{k<l} g(x_k, u_k) + terminal(x_l)

where terminal() is the sample set's recorded cost (+inf off the set).
solve() picks the solver from the problem itself: a problem with
piecewise-linear structure (problem.pl) goes to the shooting module, any
other is solved exactly over its finite controls by value iteration in
layers (_Search): the iterates J_k = T J_{k-1} from the sample set's
terminal cost J_0, evaluated one depth at a time in numpy over integer
state ids, at just the (state, depth) nodes the start reaches. A state's
feasible moves (control, stage cost, successor) are tabled once, as one row
of flat arrays that every later depth and solve reads, so stage_cost and
dynamics run once per (state, control) pair. A control map that reads the
step, as the agent-by-agent search's does, tables a state's moves per
control set instead, in a table that every search of one rollout shares
(engine.run_multiagent).

Much of a solve does not depend on the state it starts from: the value of
each (state, depth) node and the move table in the discrete search, and
each mode sequence's KKT maps in shooting. A caller that solves the same
problem, set and config many times (engine.run_rollout, once per step)
passes one memo dict to every solve, and that work is done once; without a
memo each solve starts afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .budget import base_view
from .costs import INF
from .errors import AssumptionViolationError, SearchSpaceError
from .model import (
    BoxControls,
    FiniteControls,
    Policy,
    ProblemDef,
    state_key,
)

NODE_CAP = 1_000_000  # most (state, depth) nodes one discrete solve may expand
# token state types: state_key(x) is x itself for an x of exactly these types
_SELF_KEYED = frozenset((tuple, str, int, float))


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters that callers choose per run."""

    ell: int = 1
    mode_cap: int = 128  # shooting: most mode sequences it may enumerate

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("lookahead depth must be at least 1")
        if self.mode_cap < 1:
            raise ValueError("mode_cap must be at least 1")


@dataclass(frozen=True)
class LookaheadSolution:
    """An l-step control plan with its achieved value.

    value is the exact objective of the plan: stage costs accumulated
    right-to-left plus the terminal set's cost of its final state. walk is
    the plan's Walk from the state solved at, the one that priced it, so
    walk.price(terminal cost) is value; an infeasible problem is reported as
    value +inf with no walk.
    """

    value: float
    walk: Walk | None = None
    terminal_sample_id: object | None = None
    per_stage_values: tuple | None = None
    diagnostics: dict | None = None

    @property
    def controls(self) -> tuple:
        return () if self.walk is None else self.walk

    @property
    def terminal_state(self):
        return None if self.walk is None else self.walk.states[-1]


class Walk(tuple):
    """A plan, the tuple of its controls, with what simulating it from its
    start gave: states, the start and the state after each control, and
    costs, each step's stage cost. The problems are deterministic, so a
    walk stands for every later simulation of its plan from that start:
    price() gives a fresh simulation's value bit for bit, and a rollout
    applies each solution's moves from its walk and extends that walk into
    the next seed rather than simulating the plan again."""

    def __new__(cls, controls, states, costs):
        self = super().__new__(cls, controls)
        self.states, self.costs = tuple(states), tuple(costs)
        return self

    def price(self, terminal: Callable) -> float:
        """The plan's exact objective: terminal prices the final state, and
        the stage costs are added right to left as g + total, the association
        the discrete search uses, so pricing one of its plans reproduces its
        value bit for bit."""
        total = terminal(self.states[-1])
        for g in reversed(self.costs):
            total = g + total
        return total


def walk(problem: ProblemDef, x, controls) -> Walk:
    """The plan simulated from x."""
    states = [x]
    for u in controls:
        states.append(problem.dynamics(states[-1], u))
    return Walk(controls, states, [problem.stage_cost(s, u) for s, u in zip(states, controls)])


def base_plan(problem: ProblemDef, policy: Policy, x, ell: int) -> Walk | None:
    """The base policy's ell-step plan from x, as the walk that builds it;
    None if a step is infeasible."""
    plan, states, costs = [], [x], []
    for _ in range(ell):
        cur = states[-1]
        u = policy.action(base_view(cur))
        g = problem.stage_cost(cur, u)
        if g == INF:
            return None
        plan.append(u)
        costs.append(g)
        states.append(problem.dynamics(cur, u))
    return Walk(plan, states, costs)


def _sorted_controls(spec) -> tuple:
    if isinstance(spec, BoxControls):
        raise ValueError("discrete backend requires finite control sets")
    if not isinstance(spec, FiniteControls):
        raise TypeError(f"unsupported control set {spec!r}")
    if not spec.controls:
        raise ValueError("control set must be nonempty")
    return tuple(sorted(spec.controls))


class _Column:
    """A 1-D numpy array that grows by doubling; data[:n] is in use."""

    __slots__ = ("data", "n")

    def __init__(self, dtype):
        self.data, self.n = np.empty(64, dtype), 0

    def extend(self, values) -> None:
        n, k = self.n, len(values)
        if n + k > len(self.data):
            grown = np.empty(max(n + k, 2 * len(self.data)), self.data.dtype)
            grown[:n] = self.data[:n]
            self.data = grown
        self.data[n:n + k] = values
        self.n = n + k


class _Table:
    """What searches learn of the problem alone.

    Each state key gets an integer id, and states[id] is the first object
    seen under it. A row is one state's feasible moves in sorted control
    order, moves priced +inf left out: row r's moves are the flat indices
    start[r] to start[r + 1], with their stage cost, successor id and
    control in cost, succ and controls. rows maps a state id, or (id,
    sorted control tuple) for a control map that reads the step, to its row.
    """

    def __init__(self):
        self.ids, self.states, self.rows, self.controls = {}, [], {}, []
        self.start, self.cost, self.succ = (_Column(np.int64), _Column(np.float64),
                                            _Column(np.int64))
        self.start.extend((0,))

    def id_of(self, state) -> int:
        key = state_key(state)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.states)
            self.states.append(state)
        return i

    def moves(self, rows: np.ndarray) -> tuple:
        """The flat indices of the rows' moves, row after row; for each move
        its row's position in rows; and for each row where its moves begin in
        that list and how many there are."""
        start = self.start.data
        lo = start[rows]
        lens = start[rows + 1] - lo
        first = np.cumsum(lens) - lens
        owner = np.repeat(np.arange(len(rows)), lens)
        return np.arange(len(owner)) + (lo - first)[owner], owner, first, lens


class _Nodes:
    """The evaluated (state, depth) nodes of one control map.

    levels[depth] holds the sorted ids of the states evaluated at that
    depth and their slots. A slot holds the node's value, its chosen move
    (a flat move index; -1 at depth 0 and for a node without moves) and the slot of the
    node that move leads to. Following the chosen moves from a node gives
    its plan, which is no plan if they end at a node valued +inf.
    """

    def __init__(self):
        self.levels = {}
        self.value = _Column(np.float64)
        self.move = _Column(np.int64)
        self.next = _Column(np.int64)


def _entry(memo: dict, cls):
    """memo's one instance of cls (the class is its key), made on first need."""
    out = memo.get(cls)
    if out is None:
        out = memo[cls] = cls()
    return out


_NO_LEVEL = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _missing(level, ids: np.ndarray) -> np.ndarray:
    """The sorted ids that a level's sorted ids do not hold."""
    if level is None:
        return ids
    have = level[0]
    pos = np.searchsorted(have, ids)
    np.minimum(pos, len(have) - 1, out=pos)
    return ids[have[pos] != ids]


class _Search:
    """Exact minimization over a finite control map, by value iteration.

    best(state, depth) is the best depth-step plan from state as (value,
    its Walk from state, terminal sample id), with no walk and no id if no
    plan is finite. The walk is read from the move table, so it costs no
    simulation. Values are computed with right-associated additions, so
    Walk.price reproduces them bit for bit. Among minimizing plans the one
    deferring the least cost wins (smallest continuation value, so free
    self-loops cannot postpone progress forever), then the earliest in
    sorted control order.

    The values are the iterates J_k = T J_{k-1} from the sample set's
    terminal cost J_0, computed at the (state, depth) nodes that the roots,
    the start state at each depth asked, reach and nowhere else. The forward
    pass walks from the deepest depth asked down and collects, one depth at
    a time, the nodes the memo does not hold yet: the root at that depth, if
    asked, and the successors of the new nodes one depth up. Nodes at depth
    >= 1 have their states' moves tabled (_Table) on first need; collecting
    more than NODE_CAP new nodes raises SearchSpaceError before a layer is
    tabled. The backward pass evaluates each layer in one numpy pass, from
    depth 0 up: g + tail for every move, then per node the lexicographic
    minimum of (g + tail, tail, position in sorted control order), which is
    the rule above with the same IEEE additions. The plan and its walk are
    read back by following the chosen moves from the root. Nothing recurses,
    so the depth has no limit but NODE_CAP, and the search holds a few
    integers per node it evaluated, never an array over depths times states.

    memo holds the node results (_Nodes) and, unless tables is passed, the
    move table, so memo may only come from earlier solves whose control map
    gave the same controls at every state. controls_at(state, step) may read
    the step only if a tables dict is passed: the search then asks for the
    control set of every node it collects and keeps one row per (state,
    sorted control tuple) in the table in tables. That depends on nothing
    but the problem, so searches with different control maps may share
    tables, while each keeps its own node results in memo.

    Nothing here refers back to the search, so a finished search and its
    memo are freed as soon as the last reference to them goes.
    """

    def __init__(self, problem: ProblemDef, sset, ell: int, controls_at: Callable,
                 memo: dict | None = None, tables: dict | None = None):
        self.problem, self.sset, self.ell, self.controls_at = problem, sset, ell, controls_at
        memo = {} if memo is None else memo
        self.per_step = tables is not None
        self.nodes = _entry(memo, _Nodes)
        self.table = _entry(memo if tables is None else tables, _Table)
        self.evaluated = self.tabled = 0  # new nodes and rows, over all calls

    def best(self, state, depth: int) -> tuple:
        return self._plan(state, self._evaluate(state, range(depth, depth + 1))[0])

    def _evaluate(self, state, depths: range) -> np.ndarray:
        """Evaluate state at each of the depths, a range; its slots, one per
        depth."""
        table, nodes, levels = self.table, self.nodes, self.nodes.levels
        root = np.array([table.id_of(state)], dtype=np.int64)
        layers = []  # (depth, new ids, first slot, their rows), deepest first
        succ, slot = None, nodes.value.n
        for d in range(depths[-1], -1, -1):
            if d in depths:
                cand = root if succ is None else np.concatenate((succ, root))
            elif succ is None:
                break
            else:
                cand = succ
            ids = _missing(levels.get(d), np.unique(cand))
            succ = None
            if not len(ids):
                continue
            self.evaluated += len(ids)
            if self.evaluated > NODE_CAP:
                raise SearchSpaceError(f"discrete search expanded more than "
                                       f"NODE_CAP={NODE_CAP} nodes")
            rows = self._table_rows(ids, self.ell - d) if d else None
            layers.append((d, ids, slot, rows))
            slot += len(ids)
            if d:
                succ = table.succ.data[table.moves(rows)[0]]
        if layers:
            self._backward(layers, slot - nodes.value.n)
        return np.array([levels[d][1][np.searchsorted(levels[d][0], root[0])] for d in depths])

    def _table_rows(self, ids: np.ndarray, step: int) -> np.ndarray:
        """The rows of the states ids at step, tabling the missing ones.

        Each move costs one stage_cost, one dynamics and one lookup of its
        successor's id; a successor of a type whose state_key is itself (a
        token state) is its own key."""
        table, controls_at, per_step = self.table, self.controls_at, self.per_step
        stage_cost, dynamics = self.problem.stage_cost, self.problem.dynamics
        states, rows, ids_of = table.states, table.rows, table.ids
        cost, succ, controls, stops, made = [], [], [], [], {}
        first_move, first_row = table.cost.n, table.start.n - 1
        out = []
        for i in ids.tolist():
            state = states[i]
            ctrls = _sorted_controls(controls_at(state, step)) if per_step else None
            key = (i, ctrls) if per_step else i
            r = rows.get(key)
            if r is None:
                for u in ctrls or _sorted_controls(controls_at(state, step)):
                    g = stage_cost(state, u)
                    if g == INF:
                        continue
                    nxt = dynamics(state, u)
                    k = nxt if type(nxt) in _SELF_KEYED else state_key(nxt)
                    j = ids_of.get(k)
                    if j is None:
                        j = ids_of[k] = len(states)
                        states.append(nxt)
                    cost.append(g)
                    succ.append(j)
                    controls.append(u)
                r = made[key] = first_row + len(stops)
                stops.append(first_move + len(cost))
            out.append(r)
        if made:
            table.cost.extend(cost)
            table.succ.extend(succ)
            table.controls += controls
            table.start.extend(stops)
            rows.update(made)
            self.tabled += len(made)
        return np.array(out, dtype=np.int64)

    def _backward(self, layers: list, fresh: int) -> None:
        """Evaluate the collected layers from depth 0 up, each merged into its
        level once its values are in."""
        nodes, table, levels = self.nodes, self.table, self.nodes.levels
        for col in (nodes.value, nodes.move, nodes.next):
            col.extend(np.empty(fresh, dtype=col.data.dtype))
        value, move, nxt = nodes.value.data, nodes.move.data, nodes.next.data
        for d, ids, slot, rows in reversed(layers):
            new = slice(slot, slot + len(ids))
            move[new] = -1
            if d == 0:
                terminal, states = self.sset.terminal_cost, table.states
                value[new] = [terminal(states[i]) for i in ids.tolist()]
            else:
                idx, owner, first, lens = table.moves(rows)
                have, slots = levels.get(d - 1, _NO_LEVEL)  # none if no row has a move
                tail_slot = slots[np.searchsorted(have, table.succ.data[idx])]
                tail = value[tail_slot]
                v = table.cost.data[idx] + tail
                has = lens > 0
                # per node with moves, the first of its moves in (v, tail, order)
                w = np.lexsort((tail, v, owner))[first[has]]
                value[new] = INF
                value[new][has], move[new][has], nxt[new][has] = v[w], idx[w], tail_slot[w]
            level = levels.get(d)
            slots = np.arange(new.start, new.stop)
            if level is not None:
                ids, slots = np.concatenate((level[0], ids)), np.concatenate((level[1], slots))
                order = np.argsort(ids, kind="stable")
                ids, slots = ids[order], slots[order]
            levels[d] = (ids, slots)

    def _plan(self, state, slot) -> tuple:
        """best's result for the plan the chosen moves make from a root
        node. The walk's costs are Python floats, as stage_cost gives them."""
        nodes, table = self.nodes, self.table
        move, nxt = nodes.move.data, nodes.next.data
        value = float(nodes.value.data[slot])
        moves = []
        m = move[slot]
        while m >= 0:
            moves.append(m)
            slot = nxt[slot]
            m = move[slot]
        if nodes.value.data[slot] == INF:
            return value, None, None
        states = [state] + [table.states[j] for j in table.succ.data[moves].tolist()]
        plan = Walk([table.controls[m] for m in moves], states, table.cost.data[moves].tolist())
        return value, plan, self.sset.sample_id(states[-1])


def solve_discrete(problem: ProblemDef, sset, x, cfg: SolverConfig,
                   memo: dict | None = None) -> LookaheadSolution:
    """Exact l-step lookahead by layered value iteration; memo may be shared
    by solves of the same problem and set. One pass evaluates x at every
    depth, so per_stage_values come with the plan; diagnostics count the
    nodes evaluated and the move rows tabled by this solve."""
    search = _Search(problem, sset, cfg.ell, lambda s, k: problem.control_set(s), memo)
    slots = search._evaluate(x, range(cfg.ell + 1))
    value, plan, sid = search._plan(x, slots[-1])
    return LookaheadSolution(
        value=value,
        walk=plan,
        terminal_sample_id=sid,
        per_stage_values=tuple(search.nodes.value.data[slots].tolist()),
        diagnostics={"nodes": search.evaluated, "rows": search.tabled},
    )


def solve_restricted(problem: ProblemDef, sset, x, restricted_controls: Callable,
                     cfg: SolverConfig, policy: Policy | None = None) -> LookaheadSolution:
    """Lookahead over a restricted control set Ubar(x) <= U(x).

    When the base policy is supplied, every member state visited by the
    search must keep its base action inside Ubar; a violation raises, since
    the improvement guarantee depends on it.
    """

    def controls_at(state, step):
        spec = restricted_controls(state)
        if policy is not None and sset.contains(state):
            u = policy.action(state)
            if not spec.contains(u):
                raise AssumptionViolationError(
                    f"restricted control set at member state {state!r} omits base action {u!r}")
        return spec

    value, plan, sid = _Search(problem, sset, cfg.ell, controls_at).best(x, cfg.ell)
    return LookaheadSolution(value=value, walk=plan, terminal_sample_id=sid)


def solve(problem: ProblemDef, sset, x, cfg: SolverConfig, seeds: Sequence = (),
          memo: dict | None = None) -> LookaheadSolution:
    """Shooting for piecewise-linear problems, exact enumeration otherwise;
    only shooting reads seeds, the plans its value may not exceed (a
    rollout's engine._seeds). memo, when given, must only ever be passed
    with this problem, sset and cfg (see the module doc)."""
    if problem.pl is None:
        return solve_discrete(problem, sset, x, cfg, memo=memo)
    from .shooting import solve_continuous

    return solve_continuous(problem, sset, x, cfg, seeds=seeds, memo=memo)
