"""Core model: states, controls, problems, policies, trajectories, and checks.

A problem is a deterministic discrete-time system x' = f(x, u) with a
nonnegative extended-real stage cost g(x, u); g = +inf encodes constraint
violations. An optional stopping predicate marks a cost-free, forward
invariant set where trajectories terminate. States are either opaque
hashable tokens (discrete problems), 1-D float vectors (continuous
problems), or resource-augmented pairs built by the budget module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Union

import numpy as np

from .costs import INF, ensure_cost, tails_from
from .errors import ConstraintViolationError, InfeasibleTrajectoryError

#: The one state tolerance (infinity norm): vector-state equality, sample
#: membership, the state box and mode regions, and control-set membership.
EPS_STATE = 1e-9
#: Certificate tolerances: a fixed-point residual relative to max(1, |v(x)|),
#: and the rounding an upper bound may fall short by, relative likewise.
EPS_RESIDUAL = 1e-8
EPS_SLACK = 1e-12

State = Union[Hashable, np.ndarray]
Control = Union[Hashable, np.ndarray]


# ---------------------------------------------------------------------------
# Control set descriptions


@dataclass(frozen=True)
class FiniteControls:
    """A finite enumeration of admissible controls."""

    controls: tuple

    def contains(self, u) -> bool:
        return any(states_equal(u, c) for c in self.controls)


@dataclass(frozen=True)
class BoxControls:
    """A per-coordinate box [lo, hi] of admissible control vectors."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError("control box bounds must share a shape")
        if np.any(self.lo > self.hi):
            raise ValueError("control box has lo > hi")

    def contains(self, u) -> bool:
        v = np.asarray(u, dtype=float)
        if v.shape != self.lo.shape:
            return False
        return bool(np.all(v >= self.lo - EPS_STATE) and np.all(v <= self.hi + EPS_STATE))


ControlSetSpec = Union[FiniteControls, BoxControls]


# ---------------------------------------------------------------------------
# State and control helpers


def is_vector_state(x) -> bool:
    return isinstance(x, np.ndarray)


@dataclass(frozen=True)
class AugmentedState:
    """A base state paired with the remaining resource budget (see budget)."""

    base: object
    info: float

    def __repr__(self):
        return f"AugmentedState({self.base!r}, e={self.info:.6g})"


def states_equal(a, b) -> bool:
    """Equality within EPS_STATE (infinity norm) on vector components.

    Token states compare exactly; the info coordinate of augmented states
    compares exactly as well (resource accounting admits no slack).
    """
    if isinstance(a, AugmentedState) or isinstance(b, AugmentedState):
        return (isinstance(a, AugmentedState) and isinstance(b, AugmentedState)
                and a.info == b.info and states_equal(a.base, b.base))
    if is_vector_state(a) or is_vector_state(b):
        if not (is_vector_state(a) and is_vector_state(b)):
            return False
        if a.shape != b.shape:
            return False
        return bool(np.abs(a - b).max(initial=0.0) <= EPS_STATE)
    return a == b


def state_key(x) -> Hashable:
    """Exact hashable key for memo tables and value maps."""
    if isinstance(x, AugmentedState):
        return ("aug", state_key(x.base), float(x.info))
    if is_vector_state(x):
        return ("vec", np.asarray(x, dtype=float).tobytes())
    return x


# ---------------------------------------------------------------------------
# Piecewise-linear dynamics data used by the shooting solver


@dataclass(frozen=True)
class LinearMode:
    """One affine dynamics mode x' = a @ x + b @ u + c."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))


@dataclass(frozen=True)
class PiecewiseLinearStructure:
    """Smooth problem data the continuous solver needs.

    Mode i is active where region_f[i] @ x <= region_g[i] (modes x rows x d
    and modes x rows); the first such mode wins, and the dynamics must agree
    with mode_of. Without regions the one mode is active everywhere. The
    quadratic stage cost is x' q x + u' r u on the feasible region; the
    optional state box is enforced as a feasibility filter with tolerance
    EPS_STATE (the extended-real stage cost must agree with it).
    """

    modes: tuple
    q: np.ndarray
    r: np.ndarray
    state_box: tuple | None = None
    region_f: np.ndarray | None = None
    region_g: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if self.region_f is None:
            if len(self.modes) > 1:
                raise ValueError("several modes need their regions")
            f, g = np.zeros((1, 0, self.modes[0].a.shape[0])), np.zeros((1, 0))
        else:
            f, g = np.asarray(self.region_f, dtype=float), np.asarray(self.region_g, dtype=float)
            if f.shape[:1] != (len(self.modes),) or g.shape != f.shape[:2]:
                raise ValueError("region_f must be modes x rows x d, region_g modes x rows")
        object.__setattr__(self, "region_f", f)
        object.__setattr__(self, "region_g", g)

    def mode_of(self, x) -> int:
        """The first mode whose region holds x."""
        inside = np.all(self.region_f @ x <= self.region_g, axis=1)
        if not inside.any():
            raise ValueError(f"state {x!r} lies in no mode region")
        return int(np.argmax(inside))

    def path_excess(self, sigma, xs):
        """How far the states xs[..., k, :] lie outside the region of mode
        sigma[..., k] or outside the state box widened by EPS_STATE; <= 0
        inside both. Leading axes broadcast; one path gives a float."""
        xs = np.asarray(xs)
        f = np.take(self.region_f, sigma, axis=0)  # take: far cheaper than fancy indexing
        rows = (f * xs[..., None, :]).sum(axis=-1) - np.take(self.region_g, sigma, axis=0)
        worst = rows.max(axis=(-2, -1), initial=-INF)
        if self.state_box is not None:
            lo, hi = self.state_box
            worst = np.maximum(worst, np.maximum(xs - hi, lo - xs).max(axis=(-2, -1), initial=-INF)
                               - EPS_STATE)
        return float(worst) if np.ndim(worst) == 0 else worst

    @functools.cached_property
    def path_rows(self):
        """The rows f x <= g that path_excess tests, with the allowance it
        gives each, as (f, g) stacked over the modes (modes x rows x d,
        modes x rows): each mode's region rows, g widened by EPS_STATE, then
        the state box's faces, widened by 2 EPS_STATE."""
        f, g = self.region_f, self.region_g + EPS_STATE
        if self.state_box is not None:
            n_modes, _, d = f.shape
            lo, hi = (np.broadcast_to(v, d) for v in self.state_box)
            faces = np.broadcast_to(np.vstack([np.eye(d), -np.eye(d)]), (n_modes, 2 * d, d))
            f = np.concatenate([f, faces], axis=1)
            g = np.concatenate([g, np.tile(np.concatenate([hi, -lo]) + 2.0 * EPS_STATE,
                                           (n_modes, 1))], axis=1)
        return f, g


# ---------------------------------------------------------------------------
# Problem, policy, trajectory


@dataclass(frozen=True)
class ProblemDef:
    """Deterministic control problem with nonnegative extended-real costs."""

    dynamics: Callable[[State, Control], State]
    stage_cost: Callable[[State, Control], float]
    control_set: Callable[[State], ControlSetSpec]
    stopping_predicate: Callable[[State], bool] | None = None
    name: str = "problem"
    pl: PiecewiseLinearStructure | None = None

    def is_stopping(self, x) -> bool:
        return bool(self.stopping_predicate(x)) if self.stopping_predicate else False


@dataclass(frozen=True)
class Policy:
    """A stationary feedback law u = action(x).

    analytic_cost, when given, must equal the policy's infinite-horizon cost
    from every state the policy will actually visit; it lets trajectories
    that never terminate carry exact tail costs.
    """

    action: Callable[[State], Control]
    id: str
    analytic_cost: Callable[[State], float] | None = None


@dataclass(frozen=True)
class Trajectory:
    """A recorded closed-loop trajectory.

    states has one more element than controls/stage_costs. tail_costs, when
    present, aligns with states and satisfies
    tail_costs[k] = stage_costs[k] + tail_costs[k+1].
    """

    states: tuple
    controls: tuple
    stage_costs: tuple
    policy_id: str
    terminated_in_stopping_set: bool
    tail_costs: tuple | None = None

    def __post_init__(self):
        n = len(self.controls)
        if len(self.states) != n + 1 or len(self.stage_costs) != n:
            raise ValueError("trajectory arrays are inconsistently sized")
        if self.tail_costs is not None and len(self.tail_costs) != n + 1:
            raise ValueError("tail_costs must align with states")

    def __len__(self) -> int:
        return len(self.controls)


# ---------------------------------------------------------------------------
# Operations


def _check_admissible(problem: ProblemDef, x, u, step: int) -> None:
    spec = problem.control_set(x)
    if not spec.contains(u):
        raise ConstraintViolationError(f"control {u!r} not admissible at state {x!r} (step {step})")


def simulate_policy(problem: ProblemDef, policy: Policy, x0, max_steps: int = 10_000) -> Trajectory:
    """Roll the policy forward until the stopping set or the step cap.

    Tail costs are filled in only when they are exact: by backward
    accumulation from zero when the run terminates in the stopping set, or
    from the policy's analytic cost when one is provided.
    """
    states = [x0]
    controls = []
    stage_costs = []
    x = x0
    terminated = problem.is_stopping(x)
    step = 0
    while not terminated and step < max_steps:
        u = policy.action(x)
        _check_admissible(problem, x, u, step)
        g = ensure_cost(problem.stage_cost(x, u))
        if g == INF:
            raise InfeasibleTrajectoryError(
                f"infinite stage cost at state {x!r}, control {u!r} (step {step})")
        controls.append(u)
        stage_costs.append(g)
        x = problem.dynamics(x, u)
        states.append(x)
        terminated = problem.is_stopping(x)
        step += 1

    tail = None
    if terminated:
        tail = tails_from(stage_costs)
    elif policy.analytic_cost is not None:
        tail = [ensure_cost(policy.analytic_cost(s)) for s in states]

    return Trajectory(
        states=tuple(states),
        controls=tuple(controls),
        stage_costs=tuple(stage_costs),
        policy_id=policy.id,
        terminated_in_stopping_set=terminated,
        tail_costs=tuple(tail) if tail is not None else None,
    )


def trajectory_cost(traj: Trajectory) -> float:
    """Total cost of the trajectory.

    With tail costs present this is tail_costs[0], which includes the exact
    cost of the unrecorded continuation; otherwise it is the accurate sum
    (math.fsum) of the recorded stage costs, +inf if any is.
    """
    if traj.tail_costs is not None:
        return traj.tail_costs[0]
    return math.fsum(traj.stage_costs)


@dataclass(frozen=True)
class ResidualRow:
    state: object
    value: float
    backed_up: float
    residual: float
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    rows: tuple
    passed: bool

    @property
    def failures(self):
        return [r for r in self.rows if not r.ok]


def _backed_up(problem: ProblemDef, policy: Policy, value_fn, x) -> float:
    u = policy.action(x)
    g = ensure_cost(problem.stage_cost(x, u))
    nxt = problem.dynamics(x, u)
    return g + value_fn(nxt) if g != INF else INF


def check_fixed_point(problem: ProblemDef, policy: Policy, value_fn: Callable[[State], float],
                      states: Iterable) -> CheckReport:
    """Check v(x) = g(x, policy(x)) + v(f(x, policy(x))) on the given states.

    The residual is relative to max(1, |v(x)|) and passes up to EPS_RESIDUAL.
    Two infinities agree; one infinity against a finite value fails.
    """
    rows = []
    for x in states:
        v = value_fn(x)
        b = _backed_up(problem, policy, value_fn, x)
        if v == INF or b == INF:
            resid = 0.0 if v == b else INF
        else:
            resid = abs(v - b) / max(1.0, abs(v))
        rows.append(ResidualRow(x, v, b, resid, resid <= EPS_RESIDUAL))
    return CheckReport(tuple(rows), all(r.ok for r in rows))


def check_upper_bound(problem: ProblemDef, policy: Policy, value_fn: Callable[[State], float],
                      states: Iterable) -> CheckReport:
    """Check g(x, policy(x)) + c(f(x, policy(x))) <= c(x) on the given states.

    Passing certifies the candidate c as an upper bound on the policy's cost
    from those states. Equality passes; EPS_SLACK only absorbs floating-point
    rounding.
    """
    rows = []
    for x in states:
        v = value_fn(x)
        b = _backed_up(problem, policy, value_fn, x)
        if v == INF:
            ok, resid = True, 0.0
        elif b == INF:
            ok, resid = False, INF
        else:
            slack = v - b
            ok = slack >= -EPS_SLACK * max(1.0, abs(v))
            resid = max(0.0, -slack)
        rows.append(ResidualRow(x, v, b, resid, ok))
    return CheckReport(tuple(rows), all(r.ok for r in rows))
