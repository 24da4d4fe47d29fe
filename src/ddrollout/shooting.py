"""Continuous lookahead: shooting with terminal sample targets.

lookahead.solve sends every problem with piecewise-linear structure here.
For such dynamics with quadratic stage costs the l-step problem decomposes
into independent subproblems, one per (mode sequence, terminal target)
pair. Every mode sequence that starts in the current state's mode is
enumerated (hybrid MPC's mode-sequence enumeration); more than
SolverConfig.mode_cap of them raises SearchSpaceError. Each subproblem is a
box-constrained quadratic program solved exactly. A target pinned to a
sampled state adds d equality rows that put the terminal state on it; a
free target adds its own quadratic cost. Budget-augmented problems add an
exact ball constraint on the control energy, handled by bisection on its
multiplier. Subproblems are solved cheapest tail first against a running
bound, and one whose box-free optimum cannot beat the bound stops there. A
solved plan is replayed only if its predicted path meets its target and
stays within model.EPS_STATE of its mode sequence's regions and of the
state box (where the condensed prediction is exact) and its predicted value
beats the bound. That replay with the set's own terminal_cost is the one price of
every plan, solved or seeded, so a plan earns a recorded value only by
ending in the set. The first candidate of least value wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budget import base_view
from .costs import INF
from .errors import SearchSpaceError, SolverFailureError
from .lookahead import LookaheadSolution, SolverConfig, base_plan, replay
from .model import EPS_STATE, BoxControls, Policy, ProblemDef
from .sample_sets import Target


# ---------------------------------------------------------------------------
# Quadratic subproblem machinery


def _qp_obj(h, b, z) -> float:
    return 0.5 * float(z @ h @ z) + float(b @ z)


def _kkt_solve(h, g, top, bottom):
    """Least-squares solution (z, lam) of [h g'; g 0] [z; lam] = [top; bottom]."""
    n = h.shape[0]
    kkt = np.zeros((n + g.shape[0],) * 2)
    kkt[:n, :n], kkt[:n, n:], kkt[n:, :n] = h, g.T, g
    sol = np.linalg.lstsq(kkt, np.concatenate([top, bottom]), rcond=None)[0]
    return sol[:n], sol[n:]


def _meets(z, rows) -> bool:
    """Whether z meets rows = (g, r), g z = r to EPS_STATE in the infinity norm."""
    return rows is None or float(np.abs(rows[0] @ z - rows[1]).max(initial=0.0)) <= EPS_STATE


def _box_qp(h, b, lo, hi, rows=None, z=None):
    """Minimize 0.5 z'hz + b'z over the box lo <= z <= hi and the rows
    g z = r of rows = (g, r), if given.

    The objective is a convex least squares (b lies in the range of h on
    every face), so each face has a minimizer. The box-free optimum z (one
    KKT solve, unless the caller has it) is returned when it is interior.
    Otherwise a primal active-set method (Nocedal & Wright, Numerical
    Optimization, sec. 16.5) starts from the box point nearest the rows, or
    the clipped optimum: it minimizes on the free face under the rows, steps
    to the first bound that blocks and holds it, and at a face minimizer
    frees the held bound with the most negative multiplier, until none is
    negative. A start that misses the rows by more than EPS_STATE, proving
    that no box point meets them, is returned as is. Returns (z, converged,
    iterations); converged is False only if a loop hits 4 (n + 1) face solves.
    """
    g, r = rows or (np.zeros((0, b.size)), np.zeros(0))
    if z is None:
        try:
            z = _kkt_solve(h, g, -b, r)[0]
        except np.linalg.LinAlgError:
            return np.clip(np.zeros_like(b), lo, hi), False, 0
    margin = 1e-12 * (1.0 + float(np.abs(z).max(initial=0.0)))
    if np.all(z > lo + margin) and np.all(z < hi - margin) and _meets(z, rows):
        return z, True, 1
    z, converged, iters = (_box_qp(g.T @ g, -g.T @ r, lo, hi) if r.size
                           else (np.clip(z, lo, hi), True, 0))
    if not _meets(z, rows):
        return z, converged, iters
    at_lo, at_hi = z <= lo, z >= hi  # the working set of held bounds
    for it in range(1, 4 * (z.size + 1) + 1):
        free = ~(at_lo | at_hi)
        step, lam = np.zeros_like(z), np.zeros_like(r)
        if free.any():
            step[free], lam = _kkt_solve(h[np.ix_(free, free)], g[:, free],
                                         -(h @ z + b)[free], np.zeros_like(r))
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
        grad = h @ z + b + g.T @ lam
        # multipliers of the held bounds, forgiving rounding in the gradient
        tol = 1e-11 * (np.abs(h) @ np.abs(z) + np.abs(b) + np.abs(g.T) @ np.abs(lam))
        mult = np.where(at_lo, grad + tol, np.where(at_hi, tol - grad, np.inf))
        k = int(np.argmin(mult))
        if mult[k] >= 0.0:
            return z, True, iters + it
        at_lo[k] = at_hi[k] = False
    return z, False, iters + it


def _ball_box_qp(h, b, lo, hi, radius, rows=None, z=None):
    """Minimize over the box and the rows AND ||z|| <= radius (no ball if None).

    The ball multiplier is found by bisection: z(lam) solves the box QP for
    h + 2*lam*I, and ||z(lam)|| decreases in lam. Returns the feasible-side
    solution, so the ball constraint holds at the result, unless the
    least-norm point of box and rows already lies outside the ball: then no
    point meets all three, and that point is returned without a search.
    """
    z, conv, iters = _box_qp(h, b, lo, hi, rows, z)
    if radius is None or float(np.linalg.norm(z)) <= radius or not _meets(z, rows):
        return z, conv, iters
    least, least_conv, _ = _box_qp(np.eye(b.size), np.zeros(b.size), lo, hi, rows)
    if float(np.linalg.norm(least)) >= radius:
        return least, least_conv, iters

    def shifted(lam):  # h + 2 lam I, scaled by 1 / (1 + 2 lam) so the rows stay well posed
        s = 1.0 / (1.0 + 2.0 * lam)
        return _box_qp(s * h + (1.0 - s) * np.eye(b.size), s * b, lo, hi, rows)

    lam_hi = 1.0
    while lam_hi < 1e16:
        z, conv, it = shifted(lam_hi)
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
        z, conv, it = shifted(lam)
        iters += it
        norm = float(np.linalg.norm(z))
        if norm <= radius:
            lam_hi, best = lam, z
            if norm >= radius * (1.0 - 1e-12):
                break  # multiplier tight: the ball is active to spec
        else:
            lam_lo = lam
    return best, conv, iters


@dataclass(slots=True)
class _Assembled:
    sigma: tuple     # the mode sequence
    phis: np.ndarray    # state offset per step, (ell + 1) x d
    gammas: np.ndarray  # state response to the stacked controls, (ell + 1) x d x width
    h0: np.ndarray   # running-cost Hessian (terminal excluded)
    b0: np.ndarray
    c0: float        # constant part of the running cost
    reach: np.ndarray  # componentwise bound on |x_l - phi_l|
    row_norms: np.ndarray  # 2-norms of the terminal response rows
    affine: np.ndarray | None = None  # [q | p] of pinned_optimum, solved on first use

    def pinned_optimum(self, r) -> np.ndarray:
        """The box-free optimum p r + q of the running cost under the rows
        gammas[ell] z = r: affine in r, so one KKT solve serves every target."""
        if self.affine is None:
            top = np.zeros((self.b0.size, r.size + 1))
            top[:, 0] = -self.b0
            self.affine = _kkt_solve(self.h0, self.gammas[-1], top,
                                     np.eye(r.size, r.size + 1, 1))[0]
        return self.affine[:, 1:] @ r + self.affine[:, 0]


def _assemble(pl, x0: np.ndarray, sigma, h_r, lo_full, hi_full) -> _Assembled:
    """Condense the plan along mode sequence sigma; h_r is the control-cost
    Hessian, which does not depend on sigma."""
    ell = len(sigma)
    d = x0.size
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
    # running cost sum_k x_k' q x_k over k < ell, as stacked products
    run_g = gammas[:ell].reshape(ell * d, width)
    q_phi = phis[:ell] @ pl.q.T  # row k is q @ phi_k
    h0 = h_r + 2.0 * run_g.T @ (pl.q @ gammas[:ell]).reshape(ell * d, width)
    b0 = 2.0 * run_g.T @ q_phi.ravel()
    c0 = float(np.vdot(phis[:ell], q_phi))
    u_abs = np.maximum(np.abs(lo_full), np.abs(hi_full))
    reach = np.abs(gammas[ell]) @ u_abs
    row_norms = np.linalg.norm(gammas[ell], axis=1)
    return _Assembled(tuple(sigma), phis, gammas, h0, b0, c0, reach, row_norms)


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
                if np.any(gap > reach + EPS_STATE + 1e-12):
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
    provably cannot win: its box-free optimum already fails to beat bound,
    its predicted terminal misses a pinned target or its predicted path
    leaves the mode sequence or the state box by more than EPS_STATE (so the
    prediction would not hold), or its predicted value does not beat bound.
    Those candidates come back as +inf with an empty plan."""
    ell = len(asm.sigma)
    g_l, phi_l = asm.gammas[ell], asm.phis[ell]
    h, b, rows, const = asm.h0, asm.b0, None, target.value
    if target.state is not None:  # d exact rows pin x_l to the target
        rows = (g_l, target.state - phi_l)
        z = asm.pinned_optimum(rows[1])
    else:  # the free target's own quadratic cost of x_l
        if target.quad is not None:
            w = 2.0 * (g_l.T @ target.quad)
            h, b = h + w @ g_l, b + w @ phi_l
            const += float(phi_l @ target.quad @ phi_l)
        z = np.linalg.lstsq(h, -b, rcond=None)[0]
    slack = 1e-7 * (1.0 + abs(bound))
    diag = {"mismatch": None, "iterations": 0, "converged": True}
    # the box-free optimum bounds every box point's objective from below
    if _qp_obj(h, b, z) + asm.c0 + const < bound + slack:
        z, converged, it = _ball_box_qp(h, b, lo_full, hi_full, target.ball_radius, rows, z)
        diag.update(iterations=it, converged=converged)
        path = asm.phis[1:] + asm.gammas[1:] @ z  # predicted x_1 .. x_ell
        if (_meets(z, rows)
                and problem.pl.path_excess(asm.sigma[1:], path[:-1]) <= EPS_STATE
                and _qp_obj(h, b, z) + asm.c0 + const < bound + slack):
            controls = tuple(z[k * m:(k + 1) * m].copy() for k in range(ell))
            value, states, _ = replay(problem, x, controls, sset.terminal_cost)
            diag["mismatch"] = _mismatch(states[-1], target.state)
            return value, controls, diag
    diag["pruned"] = True
    return INF, (), diag


def _evaluate_seed(problem, sset, x, plan, pinned):
    """Price a concrete plan exactly with the set's terminal cost."""
    value, states, _ = replay(problem, x, plan, sset.terminal_cost)
    return value, plan, {"mismatch": _mismatch(states[-1], pinned), "converged": True,
                         "seed": True}
