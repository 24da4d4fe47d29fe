"""Exception types shared across the package."""


class RolloutError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolationError(RolloutError):
    """A policy returned a control outside the admissible control set."""


class InfeasibleTrajectoryError(RolloutError):
    """A simulated transition incurred an infinite stage cost."""


class UnusableTrajectoryError(RolloutError):
    """A trajectory lacks the data required by an operation (e.g. tail costs)."""


class InitialInfeasibilityError(RolloutError):
    """The lookahead problem at the initial state has no feasible solution."""


class InfeasibleStepError(RolloutError):
    """A mid-run lookahead subproblem became infeasible without a disturbance."""


class SolverFailureError(RolloutError):
    """An iterative solver failed to converge."""


class SearchSpaceError(RolloutError):
    """An exhaustive enumeration would exceed the configured node cap."""


class AssumptionViolationError(RolloutError):
    """A restricted control set omits the base-policy action on a member state."""


class SampleSetIntegrityError(RolloutError):
    """A stored sample set fails re-verification on load."""


class InfeasibleSeedError(RolloutError):
    """A seed trajectory violates the resource budget it is meant to certify."""
