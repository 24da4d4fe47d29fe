"""Exception types shared across the package."""

from __future__ import annotations


class RolloutError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolationError(RolloutError):
    """A policy returned a control outside the admissible control set."""

    def __init__(self, step, state, control):
        self.step = step
        self.state = state
        self.control = control
        super().__init__(f"control {control!r} not admissible at state {state!r} (step {step})")


class InfeasibleTrajectoryError(RolloutError):
    """A simulated transition incurred an infinite stage cost."""

    def __init__(self, step, state, control):
        self.step = step
        self.state = state
        self.control = control
        super().__init__(f"infinite stage cost at state {state!r}, control {control!r} (step {step})")


class UnusableTrajectoryError(RolloutError):
    """A trajectory lacks the data required by an operation (e.g. tail costs)."""


class InitialInfeasibilityError(RolloutError):
    """The lookahead problem at the initial state has no feasible solution."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"no feasible lookahead solution from initial state {state!r}")


class InfeasibleStepError(RolloutError):
    """A mid-run lookahead subproblem became infeasible without a disturbance."""

    def __init__(self, step, state):
        self.step = step
        self.state = state
        super().__init__(f"lookahead infeasible at step {step}, state {state!r}")


class SolverFailureError(RolloutError):
    """An iterative solver failed to converge; carries the best incumbent."""

    def __init__(self, message, incumbent=None):
        self.incumbent = incumbent
        super().__init__(message)


class SearchSpaceError(RolloutError):
    """An exhaustive enumeration would exceed the configured node cap."""


class AssumptionViolationError(RolloutError):
    """A restricted control set omits the base-policy action on a member state."""

    def __init__(self, state, control):
        self.state = state
        self.control = control
        super().__init__(
            f"restricted control set at member state {state!r} omits base action {control!r}"
        )


class SampleSetIntegrityError(RolloutError):
    """A stored sample set fails re-verification on load."""

    def __init__(self, message, state=None):
        self.state = state
        super().__init__(message)


class InfeasibleSeedError(RolloutError):
    """A seed trajectory violates the resource budget it is meant to certify."""

    def __init__(self, measured, budget):
        self.measured = measured
        self.budget = budget
        super().__init__(f"seed trajectory uses {measured:.6g} of resource, budget is {budget:.6g}")
