"""Trajectory-constraint handling by state augmentation.

A cumulative resource constraint sum_k usage(x_k, u_k) <= e_max becomes an
ordinary state constraint after the state is extended with the remaining
budget e, which evolves as e' = e - usage(x, u). A recorded trajectory that
respects the budget then seeds an infinite sample set in the augmented
space: every (x_k, e) with e at least the trajectory's remaining usage from
step k is a member, valued at the trajectory's remaining cost from step k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import INF, ensure_cost, tails_from
from .errors import (
    InfeasibleSeedError,
    SampleSetIntegrityError,
    UnusableTrajectoryError,
)
from .model import (
    AugmentedState,
    ProblemDef,
    Trajectory,
    states_equal,
)
from .sample_sets import GridIndex, Targets, build_from_trajectory


@dataclass(frozen=True)
class BudgetConstraintSpec:
    """A nonnegative per-step usage charged against a total budget e_max.

    usage_quad, when given, is the matrix U with usage(x, u) = u' U u; the
    shooting solver needs it to treat the budget as a ball constraint.
    """

    per_step_usage: Callable[[object, object], float]
    e_max: float
    usage_quad: np.ndarray | None = None

    def __post_init__(self):
        if self.e_max < 0:
            raise ValueError("budget must be nonnegative")
        if self.usage_quad is not None:
            object.__setattr__(self, "usage_quad", np.asarray(self.usage_quad, dtype=float))


def base_view(state):
    """Strip budget augmentation from a state.

    Base policies are feedback laws on the original state space and never see
    the remaining budget; engines unwrap through this before calling them.
    """
    return state.base if isinstance(state, AugmentedState) else state


def augment_problem(problem: ProblemDef, spec: BudgetConstraintSpec) -> ProblemDef:
    """Lift a problem to the budget-augmented state space.

    Controls are unchanged. A step whose usage exceeds the remaining budget
    costs +inf, so budget feasibility is exactly stage-cost feasibility.
    """

    def dynamics(s: AugmentedState, u):
        return AugmentedState(problem.dynamics(s.base, u),
                              s.info - ensure_cost(spec.per_step_usage(s.base, u)))

    def stage_cost(s: AugmentedState, u):
        if ensure_cost(spec.per_step_usage(s.base, u)) > s.info:
            return INF
        return problem.stage_cost(s.base, u)

    stopping = None
    if problem.stopping_predicate is not None:
        stopping = lambda s: problem.stopping_predicate(s.base)

    return ProblemDef(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_set=lambda s: problem.control_set(s.base),
        stopping_predicate=stopping,
        name=f"{problem.name}+budget",
        pl=problem.pl,
    )


class BudgetSampleSet:
    """Augmented sample set seeded by one budget-feasible trajectory.

    Membership of (x, e): x matches some recorded x_k within EPS_STATE and
    e >= tail_usage_k, the remaining usage of the recording from step k.
    The budget inequality is exact: resource accounting admits no
    tolerance. The value at a member is the recording's remaining cost
    tail_costs[k].
    """

    def __init__(self, seed: Trajectory, spec: BudgetConstraintSpec, *,
                 usages, tail_usages, label: str, anchor_usage: float = 0.0):
        self.seed = seed
        self.spec = spec
        self.usages = tuple(usages)
        self.tail_usages = tuple(tail_usages)
        self.label = label
        self.anchor_usage = anchor_usage
        self._policy_id = seed.policy_id
        self._targets = None  # shooting_targets' arrays that do not depend on the state
        self._grid = GridIndex()
        for k, xk in enumerate(seed.states):
            self._grid.add(xk, k)

    @property
    def policy_ids(self) -> tuple:
        return (self._policy_id,)

    def __len__(self) -> int:
        return len(self.seed.states)

    def match_index(self, s: AugmentedState) -> int | None:
        """The earliest seed step this augmented state certifies, else None."""
        if not isinstance(s, AugmentedState):
            return None
        return min((k for k in self._grid.near(s.base)
                    if s.info >= self.tail_usages[k]
                    and states_equal(s.base, self.seed.states[k])),
                   default=None)

    def contains(self, s) -> bool:
        return self.match_index(s) is not None

    def terminal_cost(self, s) -> float:
        k = self.match_index(s)
        return self.seed.tail_costs[k] if k is not None else INF

    def sample_id(self, s):
        return self.match_index(s)

    def shooting_targets(self, s) -> Targets:
        """Every seed step whose tail usage fits the remaining budget, with
        the control-energy ball the rest of that budget allows."""
        if not isinstance(s, AugmentedState):
            raise ValueError("budget sample set requires an augmented state")
        if self._targets is None:  # built on first use
            self._targets = (np.array(self.seed.tail_costs, dtype=float),
                             np.array(self.seed.states, dtype=float),
                             np.array(self.tail_usages, dtype=float), _usage_scale(self.spec))
        values, states, tail_usages, scale = self._targets
        head = float(s.info) - tail_usages
        fits = head >= 0.0  # the other steps need more budget than is left
        return Targets(values[fits], states[fits], np.sqrt(head[fits] / scale))

    def reverify(self) -> None:
        """Membership is reconstructed from the seed: recompute the usage
        ledger and demand exact agreement with the stored one."""
        try:
            usages, tails = _ledger(self.seed, self.spec, self.anchor_usage)
        except ValueError as exc:  # a stored usage matrix that prices a step below zero
            raise SampleSetIntegrityError(f"usage ledger: {exc}") from exc
        for what, stored, measured in (("usage", self.usages, usages),
                                       ("tail usage", self.tail_usages, tails)):
            if len(stored) != len(measured):
                raise SampleSetIntegrityError(f"{len(stored)} stored {what} entries, "
                                              f"the seed has {len(measured)}")
            k = next((k for k, (a, b) in enumerate(zip(stored, measured)) if a != b), None)
            if k is not None:
                raise SampleSetIntegrityError(
                    f"stored {what} at step {k} is {stored[k]!r}, recomputed {measured[k]!r}")
        if tails[0] > self.spec.e_max:
            raise SampleSetIntegrityError(
                f"seed needs {tails[0]!r} of resource, budget is {self.spec.e_max!r}")

    def verify(self, problem: ProblemDef, policies, rng, samples: int):
        """Exact usage accounting, then the seed's checks as an explicit set
        (invariance and fixed point): its recorded states and tail costs are
        what every member's terminal_cost returns."""
        try:
            self.reverify()
        except SampleSetIntegrityError as exc:
            yield False, None, [f"usage accounting violation: {exc}"]
            return
        yield True, f"usage accounting: PASS ({len(self)} members)", []
        yield from build_from_trajectory(self.seed).verify(problem, policies, rng, samples)


def _usage_scale(spec: BudgetConstraintSpec) -> float:
    """c for a usage matrix c*I (1 without one); shooting needs a round ball."""
    if spec.usage_quad is None:
        return 1.0
    uq = spec.usage_quad
    scale = float(uq[0, 0])
    if not np.allclose(uq, scale * np.eye(uq.shape[0])):
        raise ValueError("shooting supports usage matrices c*I only")
    return scale


def _ledger(seed: Trajectory, spec: BudgetConstraintSpec, anchor: float):
    """The seed's per-step usages and its remaining usage from each state:
    tail_k = usage_k + tail_{k+1}, ending at anchor."""
    usages = [ensure_cost(spec.per_step_usage(x, u)) for x, u in zip(seed.states, seed.controls)]
    return usages, tails_from(usages, anchor)


def augment_sample_set(traj: Trajectory, spec: BudgetConstraintSpec, *,
                       label: str | None = None,
                       tail_usage_anchor: Callable[[object], float] | None = None
                       ) -> BudgetSampleSet:
    """Build the augmented sample set certified by one recorded trajectory.

    The seed must carry tail costs and must itself respect the budget; its
    measured usage is reported otherwise. For a recording that does not end
    in the stopping set, tail_usage_anchor supplies the exact usage of the
    unrecorded continuation from the final state (default zero, correct for
    stopped runs).
    """
    if traj.tail_costs is None:
        raise UnusableTrajectoryError("seed trajectory has no tail costs")
    if traj.terminated_in_stopping_set or tail_usage_anchor is None:
        anchor = 0.0
    else:
        anchor = ensure_cost(tail_usage_anchor(traj.states[-1]))
    usages, tail_usages = _ledger(traj, spec, anchor)
    if tail_usages[0] > spec.e_max:
        raise InfeasibleSeedError(f"seed trajectory uses {tail_usages[0]:.6g} of resource, "
                                  f"budget is {spec.e_max:.6g}")
    return BudgetSampleSet(
        traj, spec, usages=usages, tail_usages=tail_usages,
        label=label or f"budget[{traj.policy_id}]", anchor_usage=anchor,
    )
