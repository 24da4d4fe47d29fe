"""Continuous lookahead: shooting with terminal sample targets.

lookahead.solve sends every problem with piecewise-linear structure here.
For such dynamics with quadratic stage costs the l-step problem decomposes
into independent subproblems, one per (mode sequence, terminal target)
pair. Every mode sequence that starts in the current state's mode is
enumerated (hybrid MPC's mode-sequence enumeration); more than
SolverConfig.mode_cap of them raises SearchSpaceError. The plan is condensed
along all of them at once, as arrays stacked over the sequences, and every
(sequence, target) pair is tested for reachability in one broadcast: each
coordinate of its target must lie within the control box's reach. Each
subproblem is a box-constrained quadratic program solved exactly. A target
pinned to a sampled state adds d equality rows that put the terminal state
on it; its box-free optimum is affine in the target and in x0 with maps
that depend on the mode sequence alone, so they are solved once and kept
in the caller's memo (a rollout passes one memo to all of its steps). One
more broadcast screens every pinned pair's box-free optimum: its objective
(a lower bound on the subproblem), whether it lies strictly inside the
control box, on the rows and in the energy ball, and whether its predicted
path stays on its mode sequence. A free target adds its own quadratic
cost. Budget-augmented problems add an exact ball constraint on the
control energy: the exact trust-region step on the rows solves it when
that step lies in the box, and bisection on its multiplier otherwise. A
pinned pair whose rows' least-norm solution g+ (t - phi_l) already lies
outside its ball has no plan and is dropped with the unreachable ones.
Subproblems are taken cheapest tail first against a running bound, and one
whose box-free optimum cannot beat the bound stops there. An interior
pinned optimum is its subproblem's solution, so it goes straight to the
replay. A pinned optimum that leaves the box by e_i in coordinate i lifts
its bound by the least cost of moving back, 0.5 e_i^2 / M_ii with M the
inverse of the Hessian reduced to the rows' null space (per sequence, kept
in the memo with g+); under a finite running bound, a pair whose lifted
bound cannot beat it stops there too. Only free targets and the remaining
box- or ball-active pinned optima reach the per-candidate box QP. A solved
plan is replayed only if its predicted path meets its target, it lies in
its energy ball, its path stays within model.EPS_STATE of its mode
sequence's regions and of the state box (where the condensed prediction
is exact) and its predicted value beats the bound.
That replay with the set's own terminal_cost (_priced) is the one price of
every plan, solved or seeded, so a plan earns a recorded value only by
ending in the set. The first candidate of least value wins, and its
replayed final state is the solution's terminal state. Every dropped candidate
records the rule that dropped it (_RULES), and the solution's diagnostics
count them by rule ("pruned_by").
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


def _svd_rank(g):
    """Full SVD of g and its numerical rank."""
    u, sv, vt = np.linalg.svd(g)
    return u, sv, vt, int(np.sum(sv > sv.max(initial=0.0) * max(g.shape) * np.finfo(float).eps))


def _row_factors(h, g):
    """The pseudoinverse g+ of terminal rows g (d x width), how far a point
    that meets the rows only to EPS_STATE may lie from one on them in each
    coordinate (EPS_STATE sum_j |g+_ij|), and, for a quadratic objective
    with Hessian h, its least curvature along each coordinate on the rows.

    With N an orthonormal basis of null(g), every z on the rows differs from
    their optimum z* by N y, and moving coordinate i by e costs at least
    e^2 / (2 M_ii), M = N (N'hN)^-1 N'. The curvature is 1 / M_ii, shrunk by
    1e-6 against rounding, and +inf where the rows fix z_i (M_ii = 0). It is
    zero, so it lifts nothing, when N'hN is not safely positive definite;
    all three are zero when g is rank deficient (z* may then miss the rows)."""
    width, d = h.shape[0], g.shape[0]
    u, sv, vt, rank = _svd_rank(g)
    if rank < d:
        return np.zeros((width, d)), np.zeros(width), np.zeros(width)
    pinv = vt[:rank].T @ (u.T / sv[:, None])
    give = EPS_STATE * np.abs(pinv).sum(axis=1)
    basis = vt[rank:].T
    e, v = np.linalg.eigh(basis.T @ h @ basis)
    if e.size and e[0] <= 1e-10 * max(1.0, float(np.abs(e).max())):
        return pinv, give, np.zeros(width)
    m_diag = ((basis @ v) ** 2 / e).sum(axis=1)
    curvature = np.full(width, np.inf)
    np.divide(1.0 - 1e-6, m_diag, out=curvature, where=m_diag > 0.0)
    return pinv, give, curvature


def _lift(give, curvature, z, lo, hi) -> float:
    """How far every box point on the rows lies above the rows' optimum z
    in objective: 0.5 max_i e_i^2 / M_ii over the coordinates z leaves the
    box by e_i > 0 (the others add nothing, whatever their curvature). A
    point that meets the rows only to EPS_STATE lies within give_i of one
    on them in coordinate i, so each e_i is that much smaller."""
    e = np.maximum(lo - z, z - hi)
    e -= give
    out = e > 0.0
    e = e[out]
    return 0.5 * float((e * e * curvature[out]).max(initial=0.0))


def _ball_step(h, b, lo, hi, radius, rows=None):
    """The exact trust-region step (More & Sorensen 1983; Nocedal & Wright,
    sec. 4.3) on the rows and the ball, aimed 5e-13 inside its sphere; None
    when it leaves the box, when the ball does not bind on the rows, or when
    N'hN is not safely positive definite (the hard case). With z_r the
    least-norm solution of the rows and N an orthonormal basis of their null
    space, z = z_r + N y meets the rows and ||z||^2 = ||z_r||^2 + ||y||^2, so
    in y the ball is a trust region of radius delta. With N'hN = V e V',
    ||y(lam)|| is closed form, and Newton on 1/||y(lam)|| = 1/delta climbs to
    its root from lam = 0. A box point optimal without the box is optimal
    with it."""
    basis, z_r = np.eye(b.size), np.zeros(b.size)
    if rows is not None:
        u, sv, vt, rank = _svd_rank(rows[0])
        basis, z_r = vt[rank:].T, vt[:rank].T @ ((u[:, :rank].T @ rows[1]) / sv[:rank])
    # aimed inside the bisection's band [radius (1 - 1e-12), radius]: a plan on
    # the sphere to rounding can replay with less energy than its tail uses
    delta2 = (radius * (1.0 - 5e-13)) ** 2 - float(z_r @ z_r)
    e, v = np.linalg.eigh(basis.T @ h @ basis)
    if delta2 <= 0.0 or e.size == 0 or e[0] <= 1e-10 * max(1.0, float(np.abs(e).max())):
        return None
    a, lam, delta = v.T @ (basis.T @ (h @ z_r + b)), 0.0, float(np.sqrt(delta2))
    for _ in range(32):  # a ball that does not bind holds lam at 0 until the loop ends
        y = a / (e + lam)  # V'y up to its sign
        norm = float(np.linalg.norm(y))
        if abs(norm - delta) <= 1e-13 * delta:
            z = z_r - basis @ (v @ y)
            return z if np.all(z >= lo) and np.all(z <= hi) and np.linalg.norm(z) <= radius else None
        lam = max(0.0, lam + (norm / delta - 1.0) * norm ** 2 / float(y @ (y / (e + lam))))
    return None


def _ball_box_qp(h, b, lo, hi, radius, rows=None, z=None):
    """Minimize over the box and the rows AND ||z|| <= radius (no ball if None).

    A box QP optimum outside the ball goes to the exact trust-region step,
    and a step inside the box is the answer, at one more face solve. When
    the step declines, the ball multiplier is found by bisection: z(lam)
    solves the box QP for h + 2*lam*I, ||z(lam)|| decreases in lam, and the
    feasible-side solution comes back with its own convergence flag, so the
    ball holds at the result, unless the least-norm point of box and rows
    already lies outside the ball: then no point meets all three, and that
    point is returned without a search.
    """
    z, conv, iters = _box_qp(h, b, lo, hi, rows, z)
    if radius is None or float(np.linalg.norm(z)) <= radius or not _meets(z, rows):
        return z, conv, iters
    step = _ball_step(h, b, lo, hi, radius, rows)
    if step is not None:
        return step, True, iters + 1
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
    best = z, conv
    for _ in range(64):
        if lam_hi - lam_lo <= 1e-13 * lam_hi:
            break
        lam = 0.5 * (lam_lo + lam_hi)
        z, conv, it = shifted(lam)
        iters += it
        norm = float(np.linalg.norm(z))
        if norm <= radius:
            lam_hi, best = lam, (z, conv)
            if norm >= radius * (1.0 - 1e-12):
                break  # multiplier tight: the ball is active to spec
        else:
            lam_lo = lam
    return (*best, iters)


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


_CHUNK = 64  # sequences per stacked product in _assemble, capping its temporaries


def _assemble(pl, x0: np.ndarray, sigmas: np.ndarray, h_r, lo_full, hi_full) -> _Condensed:
    """Condense the plan along every mode sequence in sigmas (S x ell) at
    once; h_r is the control-cost Hessian, which does not depend on sigma.
    The running-cost products go _CHUNK sequences at a time: each stacked
    product is computed per sequence, so chunking changes no bit."""
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
    phis = cols[..., 0].copy()  # a copy, so cols can go when _assemble returns
    # running cost sum_k x_k' q x_k over k < ell, as stacked products
    run_g = gammas[:, :ell].reshape(n_seq, ell * d, -1).transpose(0, 2, 1)
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


def _job_order(keep, tails):
    """The (target, sequence) indices of the kept pairs, cheapest tail
    first so the running bound can retire the rest early; ties go by
    target, then sequence."""
    s, t = np.nonzero(keep)
    order = np.lexsort((s, t, tails[t]))
    return t[order].tolist(), s[order].tolist()


@dataclass(slots=True)
class _SequenceMaps:
    """Per-sequence data of the terminal rows for the S sequences that start
    in one mode (axis 0), kept in a rollout's memo under that mode; each part
    is filled for a sequence on its first need."""

    maps: np.ndarray       # S x width x (2d + 1): [q_s | Q_s | P_s], the pinned optimum's maps
    solved: np.ndarray     # S flags: maps filled
    pinv: np.ndarray       # S x width x d: the rows' pseudoinverse, zero if rank deficient
    give: np.ndarray       # S x width: _row_factors' room the rows' tolerance leaves
    curvature: np.ndarray  # S x width: _row_factors' 1 / M_ii
    factored: np.ndarray   # S flags: pinv, give and curvature filled


def _sequence_maps(memo, cond: _Condensed) -> _SequenceMaps:
    """The memo's entry for cond's sequences, made empty on first use."""
    first = int(cond.sigmas[0, 0])
    if first not in memo:
        (n_seq, width), d = cond.b0.shape, cond.x0.size
        memo[first] = _SequenceMaps(np.zeros((n_seq, width, 2 * d + 1)),
                                    np.zeros(n_seq, dtype=bool), np.zeros((n_seq, width, d)),
                                    np.zeros((n_seq, width)), np.zeros((n_seq, width)),
                                    np.zeros(n_seq, dtype=bool))
    return memo[first]


def _factor(seqs: _SequenceMaps, cond: _Condensed, need):
    """Fill pinv, give and curvature for every sequence index in need."""
    for s in need:
        if not seqs.factored[s]:
            seqs.pinv[s], seqs.give[s], seqs.curvature[s] = _row_factors(cond.h0[s],
                                                                         cond.gammas[s, -1])
            seqs.factored[s] = True


def _beyond_ball(seqs: _SequenceMaps, rhs, radii):
    """Which (sequence, target) pairs have no point on their rows g z = rhs
    (S x T x d) within EPS_STATE and inside the ball ||z|| <= radius (T,
    inf for none). The least-norm solution g+ rhs is the shortest point on
    the rows, and one that meets them only to EPS_STATE lies within give_i
    of one on them in each coordinate i, so it is shorter by at most
    sum_i give_i. Sequences with zero g+ (rank-deficient rows, or never
    factored) are never beyond."""
    least = rhs @ seqs.pinv.transpose(0, 2, 1)
    least = np.sqrt(np.einsum("stw,stw->st", least, least))
    return least > radii * (1.0 + 1e-12) + seqs.give.sum(axis=1)[:, None]


@dataclass(slots=True)
class _Screen:
    """Every pinned (sequence s, target t) pair's box-free optimum and its
    tests; the tests are flat lists indexed by s * T + t, read once per job."""

    z: np.ndarray   # S x T x width optima
    lb: list        # objective of z: no box point does better
    interior: list  # z strictly inside the box, on the rows and in the ball
    on_path: list   # z's predicted path within EPS_STATE of the regions and the state box


def _screen(pl, cond: _Condensed, states, values, radii, need, memo,
            lo_full, hi_full) -> _Screen:
    """Screen every (sequence, target) pair for the T pinned target states
    (T x d, with values and ball radii, inf for none) in one broadcast.

    Under the rows that pin x_l to target t, sequence s's box-free optimum
    P_s (t - phi_l) + Q_s x0 + q_s is affine in t and in x0, with maps that
    depend on s alone: one KKT solve with 2d + 1 right-hand sides per
    sequence in need, kept in memo's _SequenceMaps. Sequences never in need
    keep zero maps; their pairs are never read."""
    n_seq, ell = cond.sigmas.shape
    d, width, n_targets = cond.x0.size, cond.h0.shape[1], len(states)
    seqs = _sequence_maps(memo, cond)
    maps, solved = seqs.maps, seqs.solved
    for s in np.flatnonzero(need & ~solved).tolist():
        top = np.zeros((width, 2 * d + 1))
        top[:, 0], top[:, 1:d + 1] = -cond.b_c[s], -cond.b_x[s]
        maps[s] = _kkt_solve(cond.h0[s], cond.gammas[s, ell], top,
                             np.eye(d, 2 * d + 1, d + 1))[0]
        solved[s] = True
    rhs = states - cond.phis[:, None, ell]  # the rows' right-hand sides, S x T x d
    # one matrix-vector product per pair, so each optimum has the bits of its own P_s @ r
    z = (maps[:, None, :, d + 1:] @ rhs[..., None])[..., 0]
    z += (maps[:, :, 1:d + 1] @ cond.x0)[:, None]
    z += maps[:, None, :, 0]
    lb = (0.5 * np.einsum("stw,stw->st", z @ cond.h0, z) + np.einsum("stw,sw->st", z, cond.b0)
          + cond.c0[:, None] + values)
    # a width-major copy: reductions over the width then run along whole rows
    zw = np.ascontiguousarray(np.moveaxis(z, 2, 0))
    margin = 1e-12 * (1.0 + np.abs(zw).max(axis=0, initial=0.0))
    interior = np.all((zw > lo_full[:, None, None] + margin)
                      & (zw < hi_full[:, None, None] - margin), axis=0)
    zt = z.transpose(0, 2, 1)
    miss = np.abs(cond.gammas[:, ell] @ zt - rhs.transpose(0, 2, 1)).max(axis=1, initial=0.0)
    interior &= miss <= EPS_STATE
    if np.isfinite(radii).any():
        interior &= np.sqrt((zw * zw).sum(axis=0)) <= radii
    # predicted x_1 .. x_{ell-1}, as an S x T x (ell - 1) x d view
    path = cond.gammas[:, 1:ell].reshape(n_seq, -1, width) @ zt
    path = (path.reshape(n_seq, ell - 1, d, n_targets)
            + cond.phis[:, 1:ell, :, None]).transpose(0, 3, 1, 2)
    on_path = pl.path_excess(cond.sigmas[:, None, 1:], path) <= EPS_STATE
    return _Screen(z, lb.ravel().tolist(), interior.ravel().tolist(), on_path.ravel().tolist())


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

    candidates = [_priced(problem, sset, x, plan, pinned, converged=True, seed=True)
                  for plan in seed_plans]
    bound = min((c[0] for c in candidates), default=INF)

    # every (sequence, target) pair at once; free targets are always kept
    tails = np.array([t.value for t in targets])
    keep = np.ones((len(sigmas), len(targets)), dtype=bool)
    screen = seqs = None
    if pinned_at:
        seqs = _sequence_maps(memo, cond)
        values = tails[pinned_at]
        radii = np.array([np.inf if targets[i].ball_radius is None else targets[i].ball_radius
                          for i in pinned_at])
        rhs = pinned - cond.phis[:, None, ell]  # S x targets x d
        # stage costs are nonnegative, so a target valued at the bound cannot win
        kept = (values < bound) & ~np.any(np.abs(rhs) > cond.reach[:, None] + EPS_STATE + 1e-12,
                                          axis=2)
        if np.isfinite(radii).any():
            # drop pairs whose rows have no point in the ball (g+ is one of the lift's factors)
            _factor(seqs, cond, np.flatnonzero((kept & np.isfinite(radii)).any(axis=1)).tolist())
            kept &= ~_beyond_ball(seqs, rhs, radii)
        keep[:, pinned_at] = kept
        screen = _screen(pl, cond, pinned, values, radii, kept.any(axis=1), memo,
                         lo_full, hi_full)
    column = dict(zip(pinned_at, range(len(pinned_at))))  # target -> screen column

    for t, s in zip(*_job_order(keep, tails)):
        target, p = targets[t], column.get(t)
        if p is not None:
            if target.value >= bound:
                continue
            i, slack = s * len(pinned_at) + p, 1e-7 * (1.0 + abs(bound))
            if not screen.lb[i] < bound + slack:
                candidates.append(_pruned("bound", 0))
                continue
            if screen.interior[i] and not screen.on_path[i]:
                candidates.append(_pruned("path", 1))
                continue
            if screen.interior[i]:  # what _box_qp returns: z itself, in one iteration
                plan = tuple(screen.z[s, p].reshape(-1, m).copy())
                candidates.append(_priced(problem, sset, x, plan, target.state, iterations=1,
                                          converged=True))
                bound = min(bound, candidates[-1][0])
                continue
            # a box-active optimum: every box point on the rows costs more
            if bound < INF:
                _factor(seqs, cond, (s,))
                lift = _lift(seqs.give[s], seqs.curvature[s], screen.z[s, p], lo_full, hi_full)
                if not screen.lb[i] + lift < bound + slack:
                    candidates.append(_pruned("lift", 0))
                    continue
        out = _solve_candidate(problem, sset, x, cond, s, target, lo_full, hi_full, m,
                               bound=bound, z=None if p is None else screen.z[s, p])
        candidates.append(out)
        bound = min(bound, out[0])

    # the first candidate of least value
    best = min(candidates, key=lambda c: c[0]) if candidates else None
    if best is None or best[0] == INF:
        if candidates and not any(c[2].get("converged", True) for c in candidates):
            raise SolverFailureError("no shooting subproblem converged",
                                     incumbent=best)
        return LookaheadSolution(controls=(), terminal_state=None, value=INF,
                                 diagnostics={"candidates": len(candidates),
                                              "pruned_by": _pruned_by(candidates)})

    value, controls, diag, terminal = best
    return LookaheadSolution(
        controls=controls,
        terminal_state=terminal,
        value=value,
        terminal_sample_id=sset.sample_id(terminal),
        diagnostics={**diag, "candidates": len(candidates), "pruned_by": _pruned_by(candidates)},
    )


def _solve_candidate(problem, sset, x, cond: _Condensed, s: int, target: Target,
                     lo_full, hi_full, m, bound=INF, z=None):
    """Solve sequence s's subproblem on its box (and ball) and price its plan by
    replay, unless the plan provably cannot win: its predicted terminal
    misses a pinned target, it lies outside the target's energy ball (so its
    terminal budget falls short of the target's tail), its predicted path
    leaves the mode sequence or the state box by more than EPS_STATE (so the
    prediction would not hold), or its predicted value does not beat bound.
    Those candidates come back as +inf with an empty plan. z is a pinned
    target's box-free optimum, which _screen has found able to beat bound;
    a free target (z None) solves for its own and stops there when it
    cannot."""
    sigma, phis, gammas = cond.sigmas[s], cond.phis[s], cond.gammas[s]
    g_l, phi_l = gammas[-1], phis[-1]
    h, b, rows, const = cond.h0[s], cond.b0[s], None, target.value
    slack = 1e-7 * (1.0 + abs(bound))
    if target.state is not None:  # d exact rows pin x_l to the target
        rows = (g_l, target.state - phi_l)
    else:  # the free target's own quadratic cost of x_l
        if target.quad is not None:
            w = 2.0 * (g_l.T @ target.quad)
            h, b = h + w @ g_l, b + w @ phi_l
            const += float(phi_l @ target.quad @ phi_l)
        z = np.linalg.lstsq(h, -b, rcond=None)[0]
        # the box-free optimum bounds every box point's objective from below
        if not _qp_obj(h, b, z) + cond.c0[s] + const < bound + slack:
            return _pruned("bound", 0)
    z, converged, it = _ball_box_qp(h, b, lo_full, hi_full, target.ball_radius, rows, z)
    path = phis[1:] + gammas[1:] @ z  # predicted x_1 .. x_ell
    if not _meets(z, rows):
        return _pruned("rows", it, converged)
    if not (target.ball_radius is None or float(np.linalg.norm(z)) <= target.ball_radius):
        return _pruned("ball", it, converged)
    if not problem.pl.path_excess(sigma[1:], path[:-1]) <= EPS_STATE:
        return _pruned("path", it, converged)
    if not _qp_obj(h, b, z) + cond.c0[s] + const < bound + slack:
        return _pruned("bound", it, converged)
    return _priced(problem, sset, x, tuple(z.reshape(-1, m).copy()), target.state,
                   iterations=it, converged=converged)


def _priced(problem, sset, x, controls, pinned, **diag):
    """A candidate: the plan priced by its exact replay with the set's
    terminal_cost, as (value, controls, diagnostics, terminal state); the
    diagnostics add the terminal's mismatch to the pinned target states."""
    value, states, _ = replay(problem, x, controls, sset.terminal_cost)
    return value, controls, {"mismatch": _mismatch(states[-1], pinned), **diag}, states[-1]


_RULES = ("bound", "lift", "path", "rows", "ball")


def _pruned(rule, iterations, converged=True):
    """A candidate dropped unpriced, with the rule (one of _RULES) that dropped it."""
    return INF, (), {"mismatch": None, "iterations": iterations, "converged": converged,
                     "pruned": rule}, None


def _pruned_by(candidates) -> dict:
    """How many candidates each rule dropped."""
    rules = [c[2].get("pruned") for c in candidates]
    return {rule: rules.count(rule) for rule in _RULES}
