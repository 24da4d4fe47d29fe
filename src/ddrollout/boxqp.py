"""Box-constrained quadratic programs: the subproblems of shooting.

Each minimizes 0.5 z'h z + b'z over a box lo <= z <= hi, optionally under
equality rows g z = r and an energy ball ||z|| <= radius. _box_qp solves
stacks of such problems that share the width, the row count and the box,
by one primal active-set method run per problem with one batched face
solve per round; a single problem is a stack of one. _face_solve (LU, or
the min-norm least-squares solution where a system is singular) solves
stacks of KKT systems with any number of right-hand sides, shooting's maps
and free optima too, each with the same bits in any stack. _ball_box_qp
adds the ball by the exact trust-region step or, failing that, by bisection
on its multiplier. _row_factors and _lift bound how far every box point on
the rows lies above the rows' optimum.
"""

from __future__ import annotations

import numpy as np

from .model import EPS_STATE


def _qp_obj(h, b, z) -> float:
    return 0.5 * float(z @ h @ z) + float(b @ z)


def _mv(a, v):
    """a @ v for stacked matrices a (... x p x q) and vectors v (... x q)."""
    return (a @ v[..., None])[..., 0]


def _meets(z, rows):
    """Whether z meets rows = (g, r), g z = r to EPS_STATE in the infinity
    norm; one flag per problem for stacked z, g and r."""
    if rows is None:
        return True
    return np.abs(_mv(rows[0], z) - rows[1]).max(axis=-1, initial=0.0) <= EPS_STATE


# A face system whose infinity-norm condition number is at most this is
# solved by LU. lstsq treats a system as singular once its 2-norm condition
# number passes 1 / (N eps); the infinity-norm one then passes
# 1 / (N^2 eps) ~ 1.7e13 for N <= 16, so such a system never gets LU.
_COND_LIMIT = 1e12


def _kkt(h, g):
    """The stacked KKT matrices [h g'; g 0] of S problems."""
    n, d = h.shape[-1], g.shape[1]
    kkt = np.zeros((len(h), n + d, n + d))
    kkt[:, :n, :n], kkt[:, n:, :n] = h, g
    kkt[:, :n, n:] = g.transpose(0, 2, 1)
    return kkt


def _face_solve(kkt, free, rhs):
    """Solutions (z, lam) of the S stacked KKT systems kkt [z; lam] = rhs
    (kkt from _kkt, rhs S x N x k) restricted to the faces free (S x n
    masks): a held coordinate's row and column become the identity's and its
    right-hand sides 0, so its z is exactly 0. A system with an LU-safe
    condition number (_COND_LIMIT) is solved by LU; any other, such as one
    with fewer free coordinates than rows, gets the least-squares min-norm
    solution that numpy.linalg.lstsq gives (SVD, singular values below N eps
    of the largest count as zero). Each system's solution has the same bits
    in any stack (but a column of a k-column solve need not have the bits of
    that column solved alone)."""
    (n_prob, n), (size, k) = free.shape, rhs.shape[1:]
    kept = np.ones((n_prob, size), dtype=bool)
    kept[:, :n] = free
    kkt = np.where(kept[:, :, None] & kept[:, None, :], kkt, 0.0)
    diag = np.arange(n)
    kkt[:, diag, diag] += ~free
    # one LU per system gives its solution and its inverse, for the condition number
    rhs = np.where(kept[:, :, None], rhs, 0.0)
    both = np.zeros((n_prob, size, k + size))
    both[:, :, :k], both[:, :, k:] = rhs, np.eye(size)
    both = _lu_solve(kkt, both)
    sol = both[..., :k]
    cond = np.abs(kkt).sum(axis=2).max(axis=1) * np.abs(both[..., k:]).sum(axis=2).max(axis=1)
    rest = ~(cond <= _COND_LIMIT)  # NaN for an exactly singular system
    if rest.any():
        u, sv, vt = np.linalg.svd(kkt[rest])
        scaled = np.zeros((len(sv), size, k))
        np.divide(u.transpose(0, 2, 1) @ rhs[rest], sv[:, :, None], out=scaled,
                  where=(sv > sv[:, :1] * (size * np.finfo(float).eps))[:, :, None])
        sol[rest] = vt.transpose(0, 2, 1) @ scaled
    z = sol[:, :n]
    z[~free] = 0.0
    return z, sol[:, n:]


def _lu_solve(a, rhs):
    """numpy.linalg.solve over stacked systems, NaN for an exactly singular
    one (the LU factorization behind slogdet finds its zero pivot)."""
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        regular = np.linalg.slogdet(a)[0] != 0.0
        out[regular] = np.linalg.solve(a[regular], rhs[regular])
        return out


def _box_qp(h, b, lo, hi, rows=None, z=None):
    """Minimize 0.5 z'h z + b'z over the box lo <= z <= hi and the rows
    g z = r of rows = (g, r), if given, for S problems at once: h is
    S x n x n, b and z are S x n, g is S x d x n and r is S x d, and all
    share the box. One problem (h n x n) is solved as a stack of one.

    The objective is a convex least squares (b lies in the range of h on
    every face), so each face has a minimizer. The box-free optimum z (one
    KKT solve, unless the caller has it) is returned when it is interior.
    Otherwise a primal active-set method (Nocedal & Wright, Numerical
    Optimization, sec. 16.5) starts from the box point nearest the rows (a
    stacked box QP on g'g), or the clipped optimum: it minimizes on the free
    face under the rows, steps to the first bound that blocks and holds it,
    and at a face minimizer frees the held bound with the most negative
    multiplier, until none is negative. Each problem keeps its own working
    set, and each round makes one stacked face solve (_face_solve) for the
    problems still running. A start that misses the rows by more than
    EPS_STATE, proving that no box point meets them, is returned as is.
    Returns (z, converged, iterations), one entry per problem; converged is
    False only if a loop hits 4 (n + 1) face solves. A problem's result has
    the same bits in any stack.
    """
    if h.ndim == 2:
        z, converged, iters = _box_qp(h[None], b[None], lo, hi,
                                      rows and (rows[0][None], rows[1][None]),
                                      None if z is None else z[None])
        return z[0], bool(converged[0]), int(iters[0])
    n_prob, n = b.shape
    g, r = rows or (np.zeros((n_prob, 0, n)), np.zeros((n_prob, 0)))
    if z is None:
        z = _face_solve(_kkt(h, g), np.ones((n_prob, n), dtype=bool),
                        np.concatenate([-b, r], axis=1)[..., None])[0][..., 0]
    out = z.copy(), np.ones(n_prob, dtype=bool), np.ones(n_prob, dtype=int)
    margin = (1e-12 * (1.0 + np.abs(z).max(axis=1, initial=0.0)))[:, None]
    active = np.flatnonzero(~(((z > lo + margin) & (z < hi - margin)).all(axis=1)
                              & _meets(z, (g, r))))
    if not active.size:
        return out
    h, b, g, r = h[active], b[active], g[active], r[active]
    if r.shape[1]:
        gt = g.transpose(0, 2, 1)
        z, converged, iters = _box_qp(gt @ g, -_mv(gt, r), lo, hi)
    else:
        z, converged, iters = (np.clip(z[active], lo, hi), np.ones(active.size, dtype=bool),
                               np.zeros(active.size, dtype=int))
    out[0][active], out[1][active], out[2][active] = z, converged, iters
    run = np.flatnonzero(_meets(z, (g, r)))  # a start off the rows is returned as is
    if not run.size:
        return out
    active, h, b, g, z, iters = (a[run] for a in (active, h, b, g, z, iters))
    out[1][active] = True
    kkt, gt, zeros = _kkt(h, g), g.transpose(0, 2, 1), np.zeros((len(active), g.shape[1]))
    abs_h, abs_b, abs_gt = np.abs(h), np.abs(b), np.abs(gt)
    at_lo, at_hi = z <= lo, z >= hi  # the working sets of held bounds
    each, cap = np.arange(len(active)), 4 * (n + 1)
    for it in range(1, cap + 1):
        step, lam = (a[..., 0] for a in _face_solve(
            kkt, ~(at_lo | at_hi), np.concatenate([-(_mv(h, z) + b), zeros], axis=1)[..., None]))
        # how far along its step each coordinate may go before its bound
        bound = np.where(step < 0, lo, hi)
        room = np.full_like(step, np.inf)
        np.divide(bound - z, step, out=room, where=(step < 0) | (step > 0))
        k = np.argmin(room, axis=1)
        frac = room[each, k]
        blocked = frac < 1.0  # blocked: move to the bound and hold it
        z = np.clip(z + np.where(blocked, frac, 1.0)[:, None] * step, lo, hi)
        if blocked.any():
            i, kb = each[blocked], k[blocked]
            z[i, kb] = bound[i, kb]
            at_lo[i, kb] = step[i, kb] < 0
            at_hi[i, kb] = ~at_lo[i, kb]
            if blocked.all():
                continue
        grad = _mv(h, z) + b + _mv(gt, lam)
        # multipliers of the held bounds, forgiving rounding in the gradient
        tol = 1e-11 * (_mv(abs_h, np.abs(z)) + abs_b + _mv(abs_gt, np.abs(lam)))
        mult = np.where(at_lo, grad + tol, np.where(at_hi, tol - grad, np.inf))
        k = np.argmin(mult, axis=1)
        done = ~blocked & (mult[each, k] >= 0.0)
        i = each[~blocked & ~done]
        at_lo[i, k[i]] = at_hi[i, k[i]] = False
        if done.any():
            out[0][active[done]], out[2][active[done]] = z[done], iters[done] + it
            if done.all():
                return out
            active, h, b, kkt, gt, abs_h, abs_b, abs_gt, zeros, z, iters, at_lo, at_hi = (
                a[~done] for a in (active, h, b, kkt, gt, abs_h, abs_b, abs_gt, zeros, z,
                                   iters, at_lo, at_hi))
            each = each[:active.size]
    out[0][active], out[1][active], out[2][active] = z, False, iters + cap
    return out


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


def _ball_box_qp(h, b, lo, hi, radius, rows=None, boxed=None):
    """Minimize over the box and the rows AND ||z|| <= radius (no ball if None).

    boxed is the box QP's result (z, converged, iterations) when the caller
    has it. A box QP optimum outside the ball goes to the exact trust-region
    step, and a step inside the box is the answer, at one more face solve. When
    the step declines, the ball multiplier is found by bisection: z(lam)
    solves the box QP for h + 2*lam*I, ||z(lam)|| decreases in lam, and the
    feasible-side solution comes back with its own convergence flag, so the
    ball holds at the result, unless the least-norm point of box and rows
    already lies outside the ball: then no point meets all three, and that
    point is returned without a search. A least-norm point outside by
    rounding only (at most 1e-12 relative) is scaled to 5e-13 inside the
    sphere, as the step is, and returned if it still meets box and rows.
    """
    z, conv, iters = _box_qp(h, b, lo, hi, rows) if boxed is None else boxed
    if radius is None or float(np.linalg.norm(z)) <= radius or not _meets(z, rows):
        return z, conv, iters
    step = _ball_step(h, b, lo, hi, radius, rows)
    if step is not None:
        return step, True, iters + 1
    least, least_conv, _ = _box_qp(np.eye(b.size), np.zeros(b.size), lo, hi, rows)
    norm = float(np.linalg.norm(least))
    if norm >= radius:
        if 0.0 < norm <= radius * (1.0 + 1e-12):  # outside by rounding only
            pulled = least * (radius * (1.0 - 5e-13) / norm)
            if np.all(pulled >= lo) and np.all(pulled <= hi) and _meets(pulled, rows):
                return pulled, least_conv, iters
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
