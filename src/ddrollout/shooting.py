"""Continuous lookahead: shooting with terminal sample targets.

lookahead.solve sends every problem with piecewise-linear structure here.
For such dynamics with quadratic stage costs the l-step problem decomposes
into independent subproblems, one per (mode sequence, terminal target)
pair. Every mode sequence that starts in the current state's mode is
enumerated (hybrid MPC's mode-sequence enumeration); more than
SolverConfig.mode_cap of them raises SearchSpaceError. The plan is condensed
along all of them at once, as arrays stacked over the sequences, and every
(sequence, target) pair is tested for reachability in one broadcast. Each
subproblem is a box-constrained quadratic program solved exactly. A target
pinned to a sampled state adds d equality rows that put the terminal state
on it; its box-free optimum is affine in the target and in x0 with maps
that depend on the mode sequence alone, so they are solved once and kept
in the caller's memo (a rollout passes one memo to all of its steps). A
free target adds its own quadratic cost. Budget-augmented problems add an
exact ball constraint on the control energy, handled by bisection on its
multiplier. Subproblems are solved cheapest tail first against a running
bound, and one whose box-free optimum cannot beat the bound stops there. A
solved plan is replayed only if its predicted path meets its target, it
lies in its energy ball, its path stays within model.EPS_STATE of its mode
sequence's regions and of the state box (where the condensed prediction is
exact) and its predicted value beats the bound. That replay with the set's
own terminal_cost is the one price of every plan, solved or seeded, so a
plan earns a recorded value only by ending in the set. The first candidate
of least value wins.
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
    """One mode sequence's condensed plan: row i of a _Condensed."""

    sigma: tuple        # the mode sequence
    phis: np.ndarray    # state offset per step, (ell + 1) x d
    gammas: np.ndarray  # state response to the stacked controls, (ell + 1) x d x width
    h0: np.ndarray      # running-cost Hessian (terminal excluded)
    b0: np.ndarray      # running-cost gradient at z = 0, b_x x0 + b_c
    c0: float           # constant part of the running cost
    b_x: np.ndarray     # d columns: b0's response to x0
    b_c: np.ndarray     # b0 at x0 = 0
    x0: np.ndarray
    memo: dict          # sigma -> [q_c | Q_x | P], kept across the solves that share it

    def pinned_optimum(self, r) -> np.ndarray:
        """The box-free optimum P r + Q_x x0 + q_c of the running cost under
        the rows gammas[ell] z = r. It is affine in r and in x0, and its
        maps depend on sigma alone, so one KKT solve with 2d + 1 right-hand
        sides serves every target from every state."""
        d = r.size
        affine = self.memo.get(self.sigma)
        if affine is None:
            top = np.zeros((self.b0.size, 2 * d + 1))
            top[:, 0], top[:, 1:d + 1] = -self.b_c, -self.b_x
            affine = self.memo[self.sigma] = _kkt_solve(
                self.h0, self.gammas[-1], top, np.eye(d, 2 * d + 1, d + 1))[0]
        return affine[:, d + 1:] @ r + affine[:, 1:d + 1] @ self.x0 + affine[:, 0]


@dataclass(slots=True)
class _Condensed:
    """Plans condensed along many mode sequences at once; axis 0 runs over
    the sequences, and the fields are _Assembled's."""

    sigmas: np.ndarray  # S x ell mode indices
    phis: np.ndarray
    gammas: np.ndarray
    h0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    b_x: np.ndarray
    b_c: np.ndarray
    x0: np.ndarray
    reach: np.ndarray      # componentwise bound on |x_l - phi_l|, S x d
    row_norms: np.ndarray  # 2-norms of the terminal response rows, S x d

    def at(self, i: int, memo: dict) -> _Assembled:
        return _Assembled(tuple(self.sigmas[i].tolist()), self.phis[i], self.gammas[i],
                          self.h0[i], self.b0[i], float(self.c0[i]), self.b_x[i],
                          self.b_c[i], self.x0, memo)


def _assemble(pl, x0: np.ndarray, sigmas: np.ndarray, h_r, lo_full, hi_full) -> _Condensed:
    """Condense the plan along every mode sequence in sigmas (S x ell) at
    once; h_r is the control-cost Hessian, which does not depend on sigma."""
    n_seq, ell = sigmas.shape
    d = x0.size
    m = pl.modes[0].b.shape[1]
    a, b, c = (np.stack([getattr(mode, f) for mode in pl.modes]) for f in "abc")
    # columns of each step's state map: the offset at x0, the response to
    # x0, the offset at x0 = 0 (phis, and b0 split as b_x x0 + b_c)
    cols = np.zeros((n_seq, ell + 1, d, d + 2))
    cols[:, 0, :, 0], cols[:, 0, :, 1:d + 1] = x0, np.eye(d)
    gammas = np.zeros((n_seq, ell + 1, d, ell * m))
    for k, modes in enumerate(sigmas.T):
        cols[:, k + 1] = a[modes] @ cols[:, k]
        cols[:, k + 1, :, 0] += c[modes]
        cols[:, k + 1, :, -1] += c[modes]
        # only the first k control blocks reach x_k
        gammas[:, k + 1, :, :k * m] = a[modes] @ gammas[:, k, :, :k * m]
        gammas[:, k + 1, :, k * m:(k + 1) * m] = b[modes]
    phis = cols[..., 0]
    # running cost sum_k x_k' q x_k over k < ell, as stacked products
    run_g = gammas[:, :ell].reshape(n_seq, ell * d, -1).transpose(0, 2, 1)
    q_cols = pl.q @ cols[:, :ell]  # row k is q @ cols_k
    h0 = run_g @ (pl.q @ gammas[:, :ell]).reshape(n_seq, ell * d, -1)
    h0 *= 2.0  # in place: the S stacked Hessians are the largest arrays here
    h0 += h_r
    lin = 2.0 * run_g @ q_cols.reshape(n_seq, ell * d, d + 2)
    c0 = np.einsum("skd,skd->s", phis[:, :ell], q_cols[..., 0])
    u_abs = np.maximum(np.abs(lo_full), np.abs(hi_full))
    reach = np.abs(gammas[:, ell]) @ u_abs
    row_norms = np.linalg.norm(gammas[:, ell], axis=2)
    return _Condensed(sigmas, phis, gammas, h0, lin[..., 0], c0, lin[..., 1:d + 1],
                      lin[..., -1], x0, reach, row_norms)


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
                     seeds=(), base_policy: Policy | None = None,
                     memo: dict | None = None) -> LookaheadSolution:
    """Solve the l-step lookahead by shooting over every mode sequence.

    seeds are concrete control plans (tuples of control vectors) evaluated
    exactly and entered into the candidate pool; the recorded base policy,
    when given, contributes its own rollout plan. These anchors keep the
    returned value at or below every supplied plan, which is what the
    stepwise-descent guarantee needs from an approximate solver. memo keeps
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
    pinned_at = [i for i, t in enumerate(targets) if t.state is not None]
    pinned = np.array([targets[i].state for i in pinned_at]) if pinned_at else None

    seed_plans = [tuple(s) for s in seeds if len(tuple(s)) == ell]
    if base_policy is not None:
        plan = base_plan(problem, base_policy, x, ell)
        if plan is not None:
            seed_plans.append(tuple(np.asarray(u, dtype=float) for u in plan))

    candidates = [_evaluate_seed(problem, sset, x, plan, pinned) for plan in seed_plans]
    bound = min((c[0] for c in candidates), default=INF)

    # every (sequence, target) pair at once; free targets are always kept
    keep = np.ones((len(sigmas), len(targets)), dtype=bool)
    if pinned_at:
        values = np.array([targets[i].value for i in pinned_at])
        radii = [targets[i].ball_radius for i in pinned_at]
        reach = cond.reach[:, None]  # S x 1 x d, against S x targets x d gaps
        if any(r is not None for r in radii):
            # Cauchy-Schwarz: a depleted energy ball shrinks the reachable
            # tube far below the control-box bound
            ball = np.array([r is not None for r in radii])[:, None]
            shrunk = cond.row_norms[:, None] * np.array([r or 0.0 for r in radii])[:, None]
            reach = np.where(ball, np.minimum(reach, shrunk), reach)
        gap = np.abs(pinned - cond.phis[:, None, ell])
        # stage costs are nonnegative, so a target valued at the bound cannot win
        keep[:, pinned_at] = (values < bound) & ~np.any(gap > reach + EPS_STATE + 1e-12, axis=2)
    # cheap tails first so the running bound can retire the rest early
    jobs = sorted((targets[t].value, int(t), int(s)) for s, t in zip(*np.nonzero(keep)))

    views = {}
    for _, t_idx, s in jobs:
        target = targets[t_idx]
        if target.state is not None and target.value >= bound:
            continue
        if s not in views:
            views[s] = cond.at(s, memo)
        out = _solve_candidate(problem, sset, x, views[s], target, lo_full, hi_full, m,
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
    its predicted terminal misses a pinned target, it lies outside the
    target's energy ball (so its terminal budget falls short of the
    target's tail), its predicted path leaves the mode sequence or the state
    box by more than EPS_STATE (so the prediction would not hold), or its
    predicted value does not beat bound. Those candidates come back as +inf
    with an empty plan."""
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
                and (target.ball_radius is None
                     or float(np.linalg.norm(z)) <= target.ball_radius)
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
