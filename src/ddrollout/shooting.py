"""Continuous lookahead: shooting with terminal sample targets.

lookahead.solve sends every problem with piecewise-linear structure here.
For such dynamics with quadratic stage costs the l-step problem decomposes
into independent subproblems, one per (mode sequence, terminal target)
pair. Every mode sequence that starts in the current state's mode is
enumerated (hybrid MPC's mode-sequence enumeration); more than
SolverConfig.mode_cap of them raises SearchSpaceError. The plan is
condensed along all of them at once, step by step, as arrays stacked over
the sequences' distinct prefixes. Where there is more than one mode, a
sequence goes at the first step k < l where no control-box point keeps x_k
on its mode's region rows to EPS_STATE or in the state box to 2 EPS_STATE,
the allowance the path test gives; per row, the least value over the box
is the support function of the zonotope the box reaches. No plan along
such a sequence could pass its path test, so it is never condensed further,
solved or screened; its pairs with a target valued below the seeds' bound
count as dropped by the rule "sequence". Every (sequence, pinned target)
pair left is tested for reachability in one broadcast: each coordinate of
its target must lie within the control box's reach. Each subproblem is a
box-constrained quadratic program solved exactly. A set hands over its
targets as one sample_sets.Targets record: T targets pinned to sampled
states, or one free target. A pinned target adds d equality rows that put
the terminal state on it; its box-free optimum is affine in the target and
in x0 with maps that depend on the mode sequence alone, so they are solved
once per sequence, by the first solve that keeps it, and kept in the
caller's memo under the sequence (a rollout passes one memo to all of its
steps). The free target adds its own quadratic cost and no rows. The maps,
the free target's box-free optimum and every box QP face are stacked KKT
solves by boxqp._face_solve. One more broadcast
screens every pair's box-free optimum: its objective (a lower bound on the
subproblem), whether it lies strictly inside the control box (for a pinned
pair also on the rows and in the energy ball), whether its predicted path
stays on its mode sequence, and, for a pinned pair with a planar state,
whether some box point meets its rows at all (an exact test against the
zonotope the box reaches).
Budget-augmented problems add an exact ball constraint on the control
energy: the exact trust-region step on the rows solves it when that step
lies in the box, and bisection on its multiplier otherwise. A pinned pair
whose rows' least-norm solution g+ (t - phi_l) already lies outside its
ball has no plan and is dropped with the unreachable ones. Subproblems are
taken cheapest tail first against a running bound, and one whose box-free
optimum cannot beat the bound stops there. An interior optimum is its
subproblem's solution, so it goes straight to the replay. A pinned
optimum that leaves the box by e_i in coordinate i lifts its bound by the
least cost of moving back, 0.5 e_i^2 / M_ii with M the inverse of the
Hessian reduced to the rows' null space (kept in each sequence's memo
entry with g+, made for all of a solve's sequences once one needs it);
under a finite running bound, a pair whose lifted bound cannot beat it
stops there too. So does a pair whose rows no box point meets. The jobs
left, box-active optima, need the active-set solve of the box QP
(boxqp._box_qp), which runs over stacks of subproblems: when the loop
first reaches such a job, every later job of its target (they are
consecutive) that passes the same tests against the running bound joins
it, and the group is solved _CHUNK at a time. The bound only falls along the loop, so the group holds every job the loop goes
on to solve; each is finished in job order, on its ball if it has one, as
if solved alone (a problem's result has the same bits in any stack). A
solved plan is replayed only if its predicted path meets its target, it
lies in its energy ball, its path stays within model.EPS_STATE of its mode
sequence's regions and of the state box (where the condensed prediction is
exact) and its predicted value beats the bound. That replay with the set's own
terminal_cost (_priced) is the one price of every plan, solved or seeded,
so a plan earns a recorded value only by ending in the set. The solve
holds one incumbent, the first priced plan of least value, whose value is
the running bound; it wins, and its replayed final state is the solution's
terminal state. Dropped candidates are only counted, per rule (_RULES), in
the solution's diagnostics ("pruned_by"). With no finite plan, a solve
whose every candidate was an unconverged box QP raises SolverFailureError.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .boxqp import (_ball_box_qp, _box_qp, _face_solve, _kkt, _lift, _meets, _mv, _qp_obj,
                    _row_factors)
from .budget import base_view
from .costs import INF
from .errors import SearchSpaceError, SolverFailureError
from .lookahead import LookaheadSolution, SolverConfig, base_plan, replay
from .model import EPS_STATE, BoxControls, Policy, ProblemDef


@dataclass(slots=True)
class _Condensed:
    """Plans condensed along many mode sequences at once; axis 0 runs over
    the sequences."""

    sigmas: np.ndarray  # S x ell mode indices
    phis: np.ndarray    # state offset per step, S x (ell + 1) x d
    gammas: np.ndarray  # state response to the stacked controls, S x (ell + 1) x d x width
    h0: np.ndarray      # running-cost Hessian (terminal excluded)
    b0: np.ndarray      # running-cost gradient at z = 0: b_x x0 + b_c
    c0: np.ndarray      # constant part of the running cost
    b_x: np.ndarray     # d columns: b0's response to x0
    b_c: np.ndarray     # b0 at x0 = 0
    x0: np.ndarray
    reach: np.ndarray   # componentwise bound on |x_l - phi_l|, S x d


_CHUNK = 64  # sequences per stacked product or box QP solve, capping their temporaries


def _assemble(pl, x0: np.ndarray, sigmas: np.ndarray, h_r, lo_full, hi_full) -> _Condensed:
    """Condense the plan along every mode sequence in sigmas (S x ell) at
    once; h_r is the control-cost Hessian, which does not depend on sigma.
    Neighbouring sequences that share their first k modes share x_k's maps,
    so each step is computed once per such prefix (sigmas in lexicographic
    order, as enumerated, share the most) and then copied out to the
    sequences. Where the enumeration branches (more than one mode), a
    prefix is dropped with its sequences at the first step k in 1 .. ell - 1
    where no box point keeps x_k on its path (_box_keeps), and is not
    condensed further; the result holds only the sequences left. The
    running-cost products go _CHUNK sequences at a time. Every product is
    computed per prefix or per sequence, so sharing, chunking or dropping
    changes no bit."""
    ell = sigmas.shape[1]
    d = x0.size
    m = pl.modes[0].b.shape[1]
    a, b, c = (np.stack([getattr(mode, f) for mode in pl.modes]) for f in "abc")
    branches = len(pl.modes) > 1
    if branches:
        rows = _path_rows(pl)
        centre, half = 0.5 * (hi_full + lo_full), 0.5 * (hi_full - lo_full)
        starts = np.zeros(len(sigmas), dtype=bool)  # where a run of one prefix starts
        starts[0] = True
    # columns of each prefix's state map: the offset at x0, the response to
    # x0, the offset at x0 = 0 (phis, and b0 split as b_x x0 + b_c)
    cols = np.zeros((1, d, d + 2))
    cols[0, :, 0], cols[0, :, 1:d + 1] = x0, np.eye(d)
    gam = np.zeros((1, d, ell * m))
    node = np.zeros(len(sigmas), dtype=np.intp)  # each sequence's prefix, numbered per step
    parent, modes = slice(None), np.zeros(1, dtype=np.intp)  # with one mode, one prefix
    nodes, maps = [node], [(cols, gam)]
    for k in range(ell):
        if branches:
            starts[1:] |= sigmas[1:, k] != sigmas[:-1, k]
            first = np.flatnonzero(starts)
            parent, modes = node[first], sigmas[first, k]
            if k > 0:
                kept = _box_keeps(rows, modes, cols[parent, :, 0], gam[parent, :, :k * m],
                                  centre[:k * m], half[:k * m])
                if not kept.all():
                    alive = kept[np.cumsum(starts) - 1]
                    sigmas, starts = sigmas[alive], starts[alive]
                    nodes = [n[alive] for n in nodes]
                    parent, modes = parent[kept], modes[kept]
            node = np.cumsum(starts) - 1
        cols_k = a[modes] @ cols[parent]
        cols_k[:, :, 0] += c[modes]
        cols_k[:, :, -1] += c[modes]
        # only the first k control blocks reach x_k
        gam_k = np.zeros((len(modes), d, ell * m))
        gam_k[:, :, :k * m] = a[modes] @ gam[parent, :, :k * m]
        gam_k[:, :, k * m:(k + 1) * m] = b[modes]
        cols, gam = cols_k, gam_k
        nodes.append(node)
        maps.append((cols, gam))
    # every sequence's maps at every step, gathered from its prefixes'
    if branches:
        at = np.stack(nodes, axis=1) + np.cumsum([0] + [len(p) for p, _ in maps[:-1]])
        cols, gammas = (np.concatenate(step_maps)[at] for step_maps in zip(*maps))
    else:  # one prefix per step
        cols, gammas = (np.stack(step_maps, axis=1)[node] for step_maps in zip(*maps))
    n_seq = len(sigmas)
    phis = cols[..., 0].copy()  # a copy, so cols can go when _assemble returns
    # running cost sum_k x_k' q x_k over k < ell, as stacked products
    run_g = gammas[:, :ell].reshape(n_seq, ell * d, ell * m).transpose(0, 2, 1)
    h0 = np.empty((n_seq, ell * m, ell * m))
    lin = np.empty((n_seq, ell * m, d + 2))
    c0 = np.empty(n_seq)
    for lo in range(0, n_seq, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        q_cols = pl.q @ cols[part, :ell]  # row k is q @ cols_k
        np.matmul(run_g[part], (pl.q @ gammas[part, :ell]).reshape(-1, ell * d, ell * m),
                  out=h0[part])
        lin[part] = 2.0 * run_g[part] @ q_cols.reshape(-1, ell * d, d + 2)
        c0[part] = np.einsum("skd,skd->s", phis[part, :ell], q_cols[..., 0])
    h0 *= 2.0  # in place: the S stacked Hessians are the largest arrays here
    h0 += h_r
    u_abs = np.maximum(np.abs(lo_full), np.abs(hi_full))
    reach = np.abs(gammas[:, ell]) @ u_abs
    return _Condensed(sigmas, phis, gammas, h0, lin[..., 0], c0, lin[..., 1:d + 1],
                      lin[..., -1], x0, reach)


def _path_rows(pl):
    """pl.path_rows for _box_keeps: (f, |f|, g, modes) with the rows of all
    modes stacked mode-major, f rows x d and g a column widened by its
    rounding."""
    f, g = pl.path_rows
    f, g = f.reshape(-1, f.shape[2]), g.reshape(-1, 1)
    return f, np.abs(f), g + 1e-12 * np.abs(g), len(pl.modes)


def _box_keeps(rows, modes, phi, gamma, centre, half):
    """Which sequences some box point z (centre +- half) may keep on their
    path rows (_path_rows) at one step, where x = phi + gamma z (phi S x d,
    gamma S x d x width, modes the S modes of the step). Over the box, f x
    falls no lower than f phi + f gamma c - sum_j |f gamma|_j half_j (the
    support function of the zonotope the box reaches), so a sequence whose
    least value exceeds some row's g has no point on that row. Every mode's
    rows are taken along every sequence in a few flat products, and each
    sequence reads its own mode's. Rounding in the products is allowed for."""
    f, f_abs, g, n_modes = rows
    n_seq, d, width = gamma.shape
    g_t = gamma.transpose(1, 2, 0)  # d x width x S: every product runs along the sequences
    spread = half @ np.abs((f @ g_t.reshape(d, -1)).reshape(len(f), width, n_seq))
    least = f @ (phi.T + centre @ g_t) - spread
    least -= 1e-12 * (f_abs @ (np.abs(phi.T) + (np.abs(centre) + half) @ np.abs(g_t)))
    worst = (least - g).reshape(n_modes, len(f) // n_modes, n_seq).max(axis=1)
    return worst[modes, np.arange(n_seq)] <= 0.0


def _job_order(keep, tails):
    """The (target, sequence) indices of the kept pairs, cheapest tail
    first so the running bound can retire the rest early; ties go by
    target, then sequence."""
    s, t = np.nonzero(keep)
    order = np.lexsort((s, t, tails[t]))
    return t[order].tolist(), s[order].tolist()


@dataclass(slots=True)
class _SequenceMaps:
    """One mode sequence's data of its terminal rows, kept in a rollout's
    memo under the sequence (a tuple of modes). The maps are solved when the
    entry is made, the row factors on their first need; _sequence_maps hands
    over many sequences' entries stacked along a new axis 0."""

    maps: np.ndarray                     # width x (2d + 1): [q_s | Q_s | P_s]
    pinv: np.ndarray | None = None       # width x d: _row_factors' g+ of the rows
    give: np.ndarray | None = None       # width: the room the rows' tolerance leaves
    curvature: np.ndarray | None = None  # width: 1 / M_ii


def _sequence_maps(memo, cond: _Condensed, factored=False) -> _SequenceMaps:
    """The memo's entries for cond's sequences, stacked, each made on first
    use: sequence s's pinned optimum P_s (t - phi_l) + Q_s x0 + q_s is affine
    in the target t and in x0, with maps that depend on s alone, from one
    KKT solve with 2d + 1 right-hand sides. The sequences missing from the
    memo are solved in stacked _face_solve calls of _CHUNK. factored: with
    every sequence's pinv, give and curvature too."""
    n_seq, d, width = len(cond.sigmas), cond.x0.size, cond.h0.shape[1]
    keys = list(map(tuple, cond.sigmas.tolist()))
    missing = [s for s, key in enumerate(keys) if key not in memo]
    for lo in range(0, len(missing), _CHUNK):
        part = missing[lo:lo + _CHUNK]
        rhs = np.zeros((len(part), width + d, 2 * d + 1))
        rhs[:, :width, 0], rhs[:, :width, 1:d + 1] = -cond.b_c[part], -cond.b_x[part]
        rhs[:, width:, d + 1:] = np.eye(d)
        maps = _face_solve(_kkt(cond.h0[part], cond.gammas[part, -1]),
                           np.ones((len(part), width), dtype=bool), rhs)[0]
        for s, maps_s in zip(part, maps):
            memo[keys[s]] = _SequenceMaps(maps_s.copy())  # a copy: the solve's stack goes
    entries = [memo[key] for key in keys]
    for s, seq in enumerate(entries):
        if factored and seq.pinv is None:
            seq.pinv, seq.give, seq.curvature = _row_factors(cond.h0[s], cond.gammas[s, -1])
    fields = ("maps", "pinv", "give", "curvature")[:4 if factored else 1]
    shapes = ((width, 2 * d + 1), (width, d), (width,), (width,))
    return _SequenceMaps(*(np.array([getattr(e, f) for e in entries]).reshape(n_seq, *shape)
                           for f, shape in zip(fields, shapes)))


def _beyond_ball(seqs: _SequenceMaps, rhs, radii):
    """Which (sequence, target) pairs have no point on their rows g z = rhs
    (S x T x d) within EPS_STATE and inside the ball ||z|| <= radius (T,
    inf for none). The least-norm solution g+ rhs is the shortest point on
    the rows, and one that meets them only to EPS_STATE lies within give_i
    of one on them in each coordinate i, so it is shorter by at most
    sum_i give_i. Sequences with zero g+ (rank-deficient rows) are never
    beyond."""
    least = rhs @ seqs.pinv.transpose(0, 2, 1)
    least = np.sqrt(np.einsum("stw,stw->st", least, least))
    return least > radii * (1.0 + 1e-12) + seqs.give.sum(axis=1)[:, None]


@dataclass(slots=True)
class _Screen:
    """Every (sequence s, target t) pair's box-free optimum and its tests;
    the tests every job reads are flat lists indexed by s * T + t."""

    z: np.ndarray          # S x T x width optima
    lb: list               # objective of z: no box point does better
    interior: list         # z strictly inside the box (and on the rows and in the ball)
    on_path: list          # z's predicted path within EPS_STATE of the regions and the state box
    reachable: np.ndarray  # S x T: some box point may meet the rows to EPS_STATE (_planar_reach)


def _planar_reach(gammas_l, rhs, lo, hi):
    """Which pairs' rows g z = rhs (g S x 2 x width, rhs S x T x 2) some box
    point meets to EPS_STATE in the infinity norm: exactly those whose
    v = rhs - g c (c the box centre) lies in the zonotope g (box - c)
    widened by the square of half-width EPS_STATE. That sum is a polygon,
    so testing |w . v| against its support along each edge normal w decides
    it: the normal (-g_1j, g_0j) of each generator column j, and the two
    axes. Rounding in the products is allowed for."""
    n_seq, _, width = gammas_l.shape
    normals = np.zeros((n_seq, 2, width + 2))
    normals[:, 0, :width], normals[:, 1, :width] = -gammas_l[:, 1], gammas_l[:, 0]
    normals[:, 0, width] = normals[:, 1, width + 1] = 1.0
    v = rhs - _mv(gammas_l, 0.5 * (hi + lo))[:, None]
    support = np.abs(normals.transpose(0, 2, 1) @ gammas_l) @ (0.5 * (hi - lo))
    room = support + EPS_STATE * np.abs(normals).sum(axis=1)
    rounding = 1e-12 * (np.abs(v) @ np.abs(normals) + support[:, None])
    return np.all(np.abs(v @ normals) <= room[:, None] + rounding, axis=2)


def _screen(pl, cond: _Condensed, targets, memo, lo_full, hi_full) -> _Screen:
    """Screen every (sequence, target) pair in one broadcast. A pinned
    pair's optimum comes from its sequence's maps in memo (_sequence_maps);
    the free target's from one stacked _face_solve with no rows (its KKT
    matrix is h itself), and it has no rows to meet or miss."""
    n_seq, ell = cond.sigmas.shape
    d, width = cond.x0.size, cond.h0.shape[1]
    if targets.states is None:
        h, b, _, const = _subproblems(cond, targets, 0, slice(None))
        z = _face_solve(h, np.ones((n_seq, width), dtype=bool), -b[..., None])[0][..., 0]
        lb = (0.5 * np.einsum("sw,sw->s", _mv(h, z), z) + np.einsum("sw,sw->s", b, z)
              + cond.c0 + const)[:, None]
        z = z[:, None]
    else:
        maps = _sequence_maps(memo, cond).maps
        rhs = targets.states - cond.phis[:, None, ell]  # the rows' right-hand sides, S x T x d
        # one matrix-vector product per pair, so each optimum has the bits of its own P_s @ r
        z = (maps[:, None, :, d + 1:] @ rhs[..., None])[..., 0]
        z += (maps[:, :, 1:d + 1] @ cond.x0)[:, None]
        z += maps[:, None, :, 0]
        lb = (0.5 * np.einsum("stw,stw->st", z @ cond.h0, z)
              + np.einsum("stw,sw->st", z, cond.b0) + cond.c0[:, None] + targets.values)
    n_targets = z.shape[1]
    # a width-major copy: reductions over the width then run along whole rows
    zw = np.ascontiguousarray(np.moveaxis(z, 2, 0))
    margin = 1e-12 * (1.0 + np.abs(zw).max(axis=0, initial=0.0))
    interior = np.all((zw > lo_full[:, None, None] + margin)
                      & (zw < hi_full[:, None, None] - margin), axis=0)
    reachable = np.ones_like(interior)
    zt = z.transpose(0, 2, 1)
    if targets.states is not None:
        miss = np.abs(cond.gammas[:, ell] @ zt - rhs.transpose(0, 2, 1)).max(axis=1, initial=0.0)
        interior &= miss <= EPS_STATE
        if d == 2:  # a pair whose z is inside the box and on the rows is reachable
            active = np.flatnonzero(~interior.all(axis=1))
            for lo in range(0, active.size, _CHUNK):
                part = active[lo:lo + _CHUNK]
                reachable[part] = _planar_reach(cond.gammas[part, ell], rhs[part], lo_full,
                                                hi_full)
        if targets.radii is not None and np.isfinite(targets.radii).any():
            interior &= np.sqrt((zw * zw).sum(axis=0)) <= targets.radii
    # predicted x_1 .. x_{ell-1}, as an S x T x (ell - 1) x d view
    path = cond.gammas[:, 1:ell].reshape(n_seq, (ell - 1) * d, width) @ zt
    path = (path.reshape(n_seq, ell - 1, d, n_targets)
            + cond.phis[:, 1:ell, :, None]).transpose(0, 3, 1, 2)
    on_path = pl.path_excess(cond.sigmas[:, None, 1:], path) <= EPS_STATE
    return _Screen(z, lb.ravel().tolist(), interior.ravel().tolist(), on_path.ravel().tolist(),
                   reachable)


# ---------------------------------------------------------------------------
# Exact evaluation of a concrete control plan


def _mismatch(terminal, pinned) -> float | None:
    """Infinity-norm distance from a plan's terminal state to the nearest
    pinned target state, or None when no target state is pinned."""
    if pinned is None or not len(pinned):
        return None
    return float(np.abs(pinned - base_view(terminal)).max(axis=-1).min())


# ---------------------------------------------------------------------------
# Main entry


def solve_continuous(problem: ProblemDef, sset, x, cfg: SolverConfig,
                     seeds=(), base_policy: Policy | None = None,
                     memo: dict | None = None) -> LookaheadSolution:
    """Solve the l-step lookahead by shooting over every mode sequence.

    seeds are concrete control plans (tuples of control vectors) evaluated
    exactly; the first of least value is the first incumbent. The recorded
    base policy, when given, contributes its own rollout plan. These anchors
    keep the returned value at or below every supplied plan, which is what
    the stepwise-descent guarantee needs from an approximate solver. memo keeps
    each mode sequence's pinned-optimum maps for later solves of the same
    problem and config; without it they last for this solve only.
    """
    pl = problem.pl
    if pl is None:
        raise ValueError("shooting needs piecewise-linear problem structure")
    memo = {} if memo is None else memo
    base_x = np.asarray(base_view(x), dtype=float)
    ell = cfg.ell

    box = problem.control_set(x)
    if not isinstance(box, BoxControls):
        raise ValueError("shooting needs box control sets")
    m = box.lo.size
    lo_full = np.tile(box.lo, ell)
    hi_full = np.tile(box.hi, ell)
    h_r = 2.0 * np.kron(np.eye(ell), pl.r)

    # every mode sequence that starts in x's own mode
    n_modes = len(pl.modes)
    n_sequences = n_modes ** (ell - 1)
    if n_sequences > cfg.mode_cap:
        raise SearchSpaceError(f"{n_sequences} mode sequences of length {ell} "
                               f"exceed mode_cap={cfg.mode_cap}")
    first = pl.mode_of(base_x)
    sigmas = np.array([(first,) + rest
                       for rest in itertools.product(range(n_modes), repeat=ell - 1)])
    cond = _assemble(pl, base_x, sigmas, h_r, lo_full, hi_full)

    targets = sset.shooting_targets(x)
    values, states, radii = targets.values, targets.states, targets.radii

    seed_plans = [tuple(s) for s in seeds if len(tuple(s)) == ell]
    if base_policy is not None:
        plan = base_plan(problem, base_policy, x, ell)
        if plan is not None:
            seed_plans.append(tuple(np.asarray(u, dtype=float) for u in plan))

    # the incumbent: the first plan of least value; the running bound is its value
    incumbent = min((_priced(problem, sset, x, plan, states, converged=True, seed=True)
                     for plan in seed_plans), key=lambda c: c[0], default=None)
    bound = INF if incumbent is None else incumbent[0]
    # stage costs are nonnegative, so a target valued at the bound cannot
    # win; along the sequences _assemble dropped, every other pair is dropped
    below = values < bound
    pruned_by = dict.fromkeys(_RULES, 0)
    pruned_by["sequence"] = (n_sequences - len(cond.sigmas)) * int(np.count_nonzero(below))
    candidates, unconverged = len(seed_plans) + pruned_by["sequence"], 0

    # every (sequence, target) pair left at once
    keep = np.tile(below, (len(cond.sigmas), 1))
    # cond's stacked memo entries with their row factors, made on first need
    row_factored = functools.cache(lambda: _sequence_maps(memo, cond, factored=True))
    if states is not None:
        rhs = states - cond.phis[:, None, ell]  # S x targets x d
        keep &= ~np.any(np.abs(rhs) > cond.reach[:, None] + EPS_STATE + 1e-12, axis=2)
        if radii is not None and np.isfinite(radii).any():
            # drop pairs whose rows have no point in the ball (g+ is one of the lift's factors)
            keep &= ~_beyond_ball(row_factored(), rhs, radii)
    screen = _screen(pl, cond, targets, memo, lo_full, hi_full)
    lifts = {}  # pair -> its lifted bound

    def gate(t, s):
        """Job (t, s)'s tests against the running bound before the active-set
        solve: "skip" (a target valued at the bound, not a candidate), the
        rule that drops it, "interior" (a screened optimum to replay as is),
        or None when it needs the solve."""
        if values[t] >= bound:
            return "skip"
        i, slack = s * len(values) + t, 1e-7 * (1.0 + abs(bound))
        if not screen.lb[i] < bound + slack:
            return "bound"
        if screen.interior[i]:
            return "interior" if screen.on_path[i] else "path"
        if bound < INF and states is not None:
            # a box-active pinned optimum: every box point on the rows costs more
            if i not in lifts:
                seqs = row_factored()
                lifts[i] = screen.lb[i] + _lift(seqs.give[s], seqs.curvature[s], screen.z[s, t],
                                                lo_full, hi_full)
            if not lifts[i] < bound + slack:
                return "lift"
        return None if screen.reachable[s, t] else "rows"

    jobs = list(zip(*_job_order(keep, values)))
    boxed = {}  # the current group's box optima, by job
    for j, (t, s) in enumerate(jobs):
        out = gate(t, s)
        if out == "skip":  # every later tail is as high: they skip too
            break
        candidates += 1
        if out == "interior":  # what _box_qp returns: z itself, in one iteration
            plan = tuple(screen.z[s, t].reshape(-1, m).copy())
            out = _priced(problem, sset, x, plan, None if states is None else states[t],
                          iterations=1, converged=True)
        elif out is None:
            if (t, s) not in boxed:  # a target's jobs are consecutive: solve the rest that qualify
                group = [s2 for t2, s2 in itertools.takewhile(lambda job: job[0] == t,
                                                              itertools.islice(jobs, j, None))
                         if gate(t2, s2) is None]
                boxed = dict(zip(((t, s2) for s2 in group),
                                 _solve_group(cond, targets, t, group, screen.z[:, t], lo_full,
                                              hi_full)))
            out, converged = _solve_candidate(problem, sset, x, cond, s, targets, t,
                                              boxed.pop((t, s)), lo_full, hi_full, m, bound)
            unconverged += not converged
        if isinstance(out, str):  # the rule that dropped the job
            pruned_by[out] += 1
        elif incumbent is None or out[0] < bound:
            incumbent, bound = out, out[0]

    counts = {"candidates": candidates, "pruned_by": pruned_by}
    if bound == INF:  # no finite plan
        if candidates and unconverged == candidates:
            raise SolverFailureError("no shooting subproblem converged", incumbent=incumbent)
        return LookaheadSolution(controls=(), terminal_state=None, value=INF, diagnostics=counts)
    value, controls, diag, terminal = incumbent
    return LookaheadSolution(controls=controls, terminal_state=terminal, value=value,
                             terminal_sample_id=sset.sample_id(terminal),
                             diagnostics={**diag, **counts})


def _subproblems(cond: _Condensed, targets, t: int, s):
    """Target t's subproblem along sequence s, or stacked along an index
    array or slice s: (h, b, rows, const), for the objective
    0.5 z'h z + b'z + c0 + const. A pinned target adds d rows that put x_l
    on it; the free target's quad adds its own cost of x_l."""
    g_l, phi_l = cond.gammas[s, -1], cond.phis[s, -1]
    h, b, const = cond.h0[s], cond.b0[s], targets.values[t]
    if targets.states is not None:
        return h, b, (g_l, targets.states[t] - phi_l), const
    if targets.quad is not None:
        w = 2.0 * (np.swapaxes(g_l, -1, -2) @ targets.quad)
        h, b = h + w @ g_l, b + _mv(w, phi_l)
        const = const + np.einsum("...i,ij,...j->...", phi_l, targets.quad, phi_l)
    return h, b, None, const


def _solve_group(cond: _Condensed, targets, t: int, seqs, z, lo_full, hi_full) -> list:
    """The box QP optima (z, converged, iterations) of target t's subproblems
    along the sequences seqs, in one stacked _box_qp call per _CHUNK of them;
    z holds each sequence's box-free optimum."""
    out = []
    for lo in range(0, len(seqs), _CHUNK):
        part = np.array(seqs[lo:lo + _CHUNK])
        h, b, rows, _ = _subproblems(cond, targets, t, part)
        out += [(zk, bool(ck), int(ik))
                for zk, ck, ik in zip(*_box_qp(h, b, lo_full, hi_full, rows, z[part]))]
    return out


def _solve_candidate(problem, sset, x, cond: _Condensed, s: int, targets, t: int, boxed,
                     lo_full, hi_full, m, bound=INF):
    """Finish target t's subproblem along sequence s from its box QP optimum
    boxed = (z, converged, iterations), on the target's energy ball if it
    has one, and price its plan by replay, unless the plan provably cannot
    win: its predicted terminal misses a pinned target, it lies outside the
    target's energy ball (so its terminal budget falls short of the
    target's tail), its predicted path leaves the mode sequence or the
    state box by more than EPS_STATE (so the prediction would not hold), or
    its predicted value does not beat bound. Returns the priced plan, or the
    rule that dropped it, with the box QP's converged flag."""
    sigma, phis, gammas = cond.sigmas[s], cond.phis[s], cond.gammas[s]
    h, b, rows, const = _subproblems(cond, targets, t, s)
    radius = None if targets.radii is None else float(targets.radii[t])
    slack = 1e-7 * (1.0 + abs(bound))
    z, converged, it = _ball_box_qp(h, b, lo_full, hi_full, radius, rows, boxed)
    path = phis[1:] + gammas[1:] @ z  # predicted x_1 .. x_ell
    if not _meets(z, rows):
        return "rows", converged
    if not (radius is None or float(np.linalg.norm(z)) <= radius):
        return "ball", converged
    if not problem.pl.path_excess(sigma[1:], path[:-1]) <= EPS_STATE:
        return "path", converged
    if not _qp_obj(h, b, z) + cond.c0[s] + const < bound + slack:
        return "bound", converged
    return _priced(problem, sset, x, tuple(z.reshape(-1, m).copy()),
                   None if rows is None else targets.states[t], iterations=it,
                   converged=converged), converged


def _priced(problem, sset, x, controls, pinned, **diag):
    """A candidate: the plan priced by its exact replay with the set's
    terminal_cost, as (value, controls, diagnostics, terminal state); the
    diagnostics add the terminal's mismatch to the pinned target states."""
    value, states, _ = replay(problem, x, controls, sset.terminal_cost)
    return value, controls, {"mismatch": _mismatch(states[-1], pinned), **diag}, states[-1]


_RULES = ("sequence", "bound", "lift", "path", "rows", "ball")  # the rules that drop a candidate
