"""Continuous lookahead: shooting with terminal sample targets.

lookahead.solve sends every problem with piecewise-linear structure here.
For such dynamics with quadratic stage costs the l-step problem decomposes
into independent subproblems, one per (mode sequence, terminal target)
pair. Every mode sequence that starts in the current state's mode is
enumerated (hybrid MPC's mode-sequence enumeration); more than
SolverConfig.mode_cap of them raises SearchSpaceError. Each subproblem is a
box-constrained quadratic program solved exactly: by one least-squares
solve when its optimum is interior, otherwise by a primal active-set
method. The terminal term is one quadratic: a free target's own cost, or,
for a target pinned to a sampled state, a mismatch penalty driven below the
problem's state tolerance eps_state by continuation. Budget-augmented
problems add an exact ball constraint on the control energy, handled by
bisection on its multiplier. Subproblems are solved cheapest tail first
against a running bound. A solved plan is replayed only if its predicted
states stay within eps_state of its mode sequence's regions and of the
state box (where the condensed prediction is exact) and its predicted
value beats the bound. That replay with the set's own terminal_cost is
the one price of every plan, solved or seeded, so a plan earns a recorded
value only by ending in the set. The first candidate of least value wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budget import base_view
from .costs import INF
from .errors import SearchSpaceError, SolverFailureError
from .lookahead import LookaheadSolution, SolverConfig, base_plan, replay
from .model import BoxControls, Policy, ProblemDef
from .sample_sets import Target

# terminal-mismatch penalty continuation: start, growth factor, ceiling; the
# start is high enough that one solve usually lands within eps_state
PENALTY_INIT = 1e8
PENALTY_GROWTH = 10.0
PENALTY_MAX = 1e12


# ---------------------------------------------------------------------------
# Quadratic subproblem machinery


def _qp_obj(h, b, z) -> float:
    return 0.5 * float(z @ h @ z) + float(b @ z)


def _box_qp(h, b, lo, hi):
    """Minimize 0.5 z'hz + b'z over the box lo <= z <= hi.

    The objective is a convex least squares (b lies in the range of h on
    every face), so each face has a minimizer. An interior unconstrained
    optimum is returned as is. Otherwise a primal active-set method (Nocedal
    & Wright, Numerical Optimization, sec. 16.5) starts from the clipped
    optimum: it minimizes on the free face, steps to the first bound that
    blocks and holds it, and at a face minimizer frees the held bound with
    the most negative multiplier, until none is negative. Returns
    (z, converged, iterations); converged is False only when the loop hits
    its bound of 4 (n + 1) face solves.
    """
    try:
        z = np.linalg.lstsq(h, -b, rcond=None)[0]
    except np.linalg.LinAlgError:
        return np.clip(np.zeros_like(b), lo, hi), False, 0
    margin = 1e-12 * (1.0 + float(np.abs(z).max(initial=0.0)))
    if np.all(z > lo + margin) and np.all(z < hi - margin):
        return z, True, 1
    z = np.clip(z, lo, hi)
    at_lo, at_hi = z <= lo, z >= hi  # the working set of held bounds
    for it in range(1, 4 * (z.size + 1) + 1):
        free = ~(at_lo | at_hi)
        step = np.zeros_like(z)
        if free.any():
            g = h @ z + b
            step[free] = np.linalg.lstsq(h[np.ix_(free, free)], -g[free], rcond=None)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step < 0, (lo - z) / step,
                            np.where(step > 0, (hi - z) / step, np.inf))
        k = int(np.argmin(room))
        if room[k] < 1.0:  # blocked: move to the bound and hold it
            z = np.clip(z + room[k] * step, lo, hi)
            if step[k] < 0:
                z[k], at_lo[k] = lo[k], True
            else:
                z[k], at_hi[k] = hi[k], True
            continue
        z = np.clip(z + step, lo, hi)
        g = h @ z + b
        # multipliers of the held bounds, forgiving rounding in the gradient
        tol = 1e-11 * (np.abs(h) @ np.abs(z) + np.abs(b))
        mult = np.where(at_lo, g + tol, np.where(at_hi, tol - g, np.inf))
        k = int(np.argmin(mult))
        if mult[k] >= 0.0:
            return z, True, it
        at_lo[k] = at_hi[k] = False
    return z, False, it


def _ball_box_qp(h, b, lo, hi, radius):
    """Minimize over box AND ||z|| <= radius.

    The ball multiplier is found by bisection: z(lam) solves the box QP for
    h + 2*lam*I, and ||z(lam)|| decreases in lam. Returns the feasible-side
    solution, so the ball constraint holds at the result.
    """
    z, conv, iters = _box_qp(h, b, lo, hi)
    if float(np.linalg.norm(z)) <= radius:
        return z, conv, iters
    if radius <= 0.0:
        return np.clip(np.zeros_like(z), lo, hi), True, iters
    eye = np.eye(h.shape[0])
    lam_hi = 1.0
    while lam_hi < 1e16:
        z, conv, it = _box_qp(h + 2.0 * lam_hi * eye, b, lo, hi)
        iters += it
        if float(np.linalg.norm(z)) <= radius:
            break
        lam_hi *= 8.0
    lam_lo = 0.0
    best = z
    for _ in range(64):
        if lam_hi - lam_lo <= 1e-13 * lam_hi:
            break
        lam = 0.5 * (lam_lo + lam_hi)
        z, conv, it = _box_qp(h + 2.0 * lam * eye, b, lo, hi)
        iters += it
        norm = float(np.linalg.norm(z))
        if norm <= radius:
            lam_hi, best = lam, z
            if norm >= radius * (1.0 - 1e-12):
                break  # multiplier tight: the ball is active to spec
        else:
            lam_lo = lam
    return best, conv, iters


@dataclass
class _Assembled:
    sigma: tuple     # the mode sequence
    phis: np.ndarray    # state offset per step, (ell + 1) x d
    gammas: np.ndarray  # state response to the stacked controls, (ell + 1) x d x width
    h0: np.ndarray   # running-cost Hessian (terminal excluded)
    b0: np.ndarray
    c0: float        # constant part of the running cost
    reach: np.ndarray  # componentwise bound on |x_l - phi_l|
    row_norms: np.ndarray  # 2-norms of the terminal response rows


def _assemble(pl, x0: np.ndarray, sigma, h_r, lo_full, hi_full) -> _Assembled:
    """Condense the plan along mode sequence sigma; h_r is the control-cost
    Hessian, which does not depend on sigma."""
    ell = len(sigma)
    d = x0.size
    m = pl.modes[0].b.shape[1]
    width = ell * m
    phi = x0.astype(float)
    gam = np.zeros((d, width))
    phis, gammas = [phi], [gam]
    for k in range(ell):
        mode = pl.modes[sigma[k]]
        nxt = mode.a @ gammas[-1]
        nxt[:, k * m:(k + 1) * m] += mode.b
        gammas.append(nxt)
        phi = mode.a @ phi + mode.c
        phis.append(phi)
    h0 = h_r.copy()
    b0 = np.zeros(width)
    c0 = 0.0
    for k in range(ell):
        gq = gammas[k].T @ pl.q
        h0 += 2.0 * gq @ gammas[k]
        b0 += 2.0 * gq @ phis[k]
        c0 += float(phis[k] @ pl.q @ phis[k])
    u_abs = np.maximum(np.abs(lo_full), np.abs(hi_full))
    reach = np.abs(gammas[ell]) @ u_abs
    row_norms = np.linalg.norm(gammas[ell], axis=1)
    return _Assembled(tuple(sigma), np.array(phis), np.array(gammas), h0, b0, c0,
                      reach, row_norms)


# ---------------------------------------------------------------------------
# Exact evaluation of a concrete control plan


def _mismatch(terminal, pinned) -> float | None:
    """Infinity-norm distance from a plan's terminal state to the nearest
    pinned target state, or None when no target state is pinned."""
    if pinned is None:
        return None
    return float(np.abs(pinned - base_view(terminal)).max(axis=-1).min())


# ---------------------------------------------------------------------------
# Main entry


def solve_continuous(problem: ProblemDef, sset, x, cfg: SolverConfig,
                     seeds=(), base_policy: Policy | None = None) -> LookaheadSolution:
    """Solve the l-step lookahead by shooting over every mode sequence.

    seeds are concrete control plans (tuples of control vectors) evaluated
    exactly and entered into the candidate pool; the recorded base policy,
    when given, contributes its own rollout plan. These anchors keep the
    returned value at or below every supplied plan, which is what the
    stepwise-descent guarantee needs from an approximate solver.
    """
    pl = problem.pl
    if pl is None:
        raise ValueError("shooting needs piecewise-linear problem structure")
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
    sequences = [(first,) + rest
                 for rest in itertools.product(range(n_modes), repeat=ell - 1)]

    targets = sset.shooting_targets(x)
    pinned = [t.state for t in targets if t.state is not None]
    pinned = np.array(pinned) if pinned else None

    seed_plans = [tuple(s) for s in seeds if len(tuple(s)) == ell]
    if base_policy is not None:
        plan = base_plan(problem, base_policy, x, ell)
        if plan is not None:
            seed_plans.append(tuple(np.asarray(u, dtype=float) for u in plan))

    candidates = [_evaluate_seed(problem, sset, x, plan, pinned) for plan in seed_plans]
    bound = min((c[0] for c in candidates), default=INF)

    jobs = []
    for sig_pos, sig in enumerate(sequences):
        asm = _assemble(pl, base_x, sig, h_r, lo_full, hi_full)
        for t_idx, target in enumerate(targets):
            if target.state is not None:
                if target.value >= bound:
                    continue  # stage costs are nonnegative: cannot win
                gap = np.abs(target.state - asm.phis[ell])
                reach = asm.reach
                if target.ball_radius is not None:
                    # Cauchy-Schwarz: a depleted energy ball shrinks the
                    # reachable tube far below the control-box bound
                    reach = np.minimum(reach, asm.row_norms * target.ball_radius)
                if np.any(gap > reach + problem.eps_state + 1e-12):
                    continue  # provably unreachable under box and energy ball
            jobs.append((target.value, t_idx, sig_pos, asm))
    # cheap tails first so the running bound can retire the rest early
    jobs.sort(key=lambda j: j[:3])

    for _, t_idx, _, asm in jobs:
        target = targets[t_idx]
        if target.state is not None and target.value >= bound:
            continue
        out = _solve_candidate(problem, sset, x, asm, target, lo_full, hi_full, m,
                               bound=bound)
        candidates.append(out)
        bound = min(bound, out[0])

    # the first candidate of least value
    best = min(candidates, key=lambda c: c[0]) if candidates else None
    if best is None or best[0] == INF:
        if candidates and not any(c[2].get("converged", True) for c in candidates):
            raise SolverFailureError("no shooting subproblem converged",
                                     incumbent=best)
        return LookaheadSolution(controls=(), terminal_state=None, value=INF,
                                 diagnostics={"candidates": len(candidates)})

    value, controls, diag = best
    terminal = x
    for u in controls:
        terminal = problem.dynamics(terminal, u)
    diag = dict(diag)
    diag["candidates"] = len(candidates)
    return LookaheadSolution(
        controls=tuple(controls),
        terminal_state=terminal,
        value=value,
        terminal_sample_id=sset.sample_id(terminal),
        diagnostics=diag,
    )


def _solve_candidate(problem, sset, x, asm: _Assembled, target: Target,
                     lo_full, hi_full, m, bound=INF):
    """Solve one subproblem and price its plan by replay, unless the plan
    provably cannot win: its relaxed objective already exceeds bound, its
    predicted path leaves the mode sequence or the state box (so the
    prediction would not hold), or its predicted value does not beat bound.
    Those candidates come back as +inf with an empty plan."""
    ell = len(asm.sigma)
    g_l = asm.gammas[ell]
    phi_l = asm.phis[ell]
    is_pinned = target.state is not None
    offset = phi_l - target.state if is_pinned else phi_l
    pen_offset = float(np.dot(offset, offset))
    slack = 1e-7 * (1.0 + abs(bound))
    iters_total = 0

    # the terminal term is one quadratic in the stacked controls: a free
    # target's own cost, or a pinned target's mismatch penalty, which
    # continuation raises until the terminal lands within eps_state
    penalty = PENALTY_INIT if is_pinned else 0.0
    pruned = False
    while True:
        h, b = asm.h0, asm.b0
        if is_pinned:
            w = 2.0 * penalty * g_l.T
        else:
            w = None if target.quad is None else 2.0 * (g_l.T @ target.quad)
        if w is not None:
            h, b = h + w @ g_l, b + w @ offset
        if target.ball_radius is not None:
            z, converged, it = _ball_box_qp(h, b, lo_full, hi_full, target.ball_radius)
        else:
            z, converged, it = _box_qp(h, b, lo_full, hi_full)
        iters_total += it
        if not is_pinned:
            mismatch_pred = 0.0
            break
        mismatch_pred = float(np.max(np.abs(phi_l + g_l @ z - target.state),
                                     initial=0.0))
        if mismatch_pred <= 0.9 * problem.eps_state or penalty >= PENALTY_MAX:
            break
        # the relaxed objective under-estimates the running cost of every
        # plan that follows sigma to the target, and no other plan is priced
        relaxed = _qp_obj(h, b, z) + asm.c0 + penalty * pen_offset
        if converged and relaxed + target.value >= bound + slack:
            pruned = True
            break
        jump = penalty * mismatch_pred / max(0.45 * problem.eps_state, 1e-300)
        penalty = min(PENALTY_MAX, max(penalty * PENALTY_GROWTH, jump))

    diag = {"mismatch": None, "predicted_mismatch": mismatch_pred,
            "penalty": penalty, "iterations": iters_total, "converged": converged}
    path = asm.phis[1:] + asm.gammas[1:] @ z  # predicted x_1 .. x_ell
    # a pinned target's recorded value, or a free target's cost (zero value)
    tail = target.value if target.quad is None else float(path[-1] @ target.quad @ path[-1])
    if (pruned or problem.pl.path_excess(asm.sigma[1:], path[:-1]) > problem.eps_state
            or _qp_obj(asm.h0, asm.b0, z) + asm.c0 + tail >= bound + slack):
        diag["pruned"] = True
        return INF, (), diag

    controls = tuple(z[k * m:(k + 1) * m].copy() for k in range(ell))
    value, states, _ = replay(problem, x, controls, sset.terminal_cost)
    diag["mismatch"] = _mismatch(states[-1], target.state)
    return value, controls, diag


def _evaluate_seed(problem, sset, x, plan, pinned):
    """Price a concrete plan exactly with the set's terminal cost."""
    value, states, _ = replay(problem, x, plan, sset.terminal_cost)
    return value, plan, {"mismatch": _mismatch(states[-1], pinned), "converged": True,
                         "seed": True}
