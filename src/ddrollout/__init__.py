"""Data-driven rollout for deterministic infinite-horizon control.

Sample sets recorded from base-policy runs certify a region of the state
space with known costs-to-go; an l-step lookahead constrained to end inside
a set inherits those certificates, and the resulting rollout policy never
does worse than the policy that produced the data. The package provides
the sample-set machinery, discrete and continuous lookahead solvers, the
rollout driving loops with their variants (multi-policy merging, resource
budgets via state augmentation, agent-by-agent simplified optimization,
classical MPC baselines), and four built-in instances exercising all of it.
"""

from .budget import (
    AugmentedState,
    BudgetConstraintSpec,
    BudgetSampleSet,
    augment_problem,
    augment_sample_set,
    base_view,
)
from .catalog import (
    ALIASES,
    INSTANCES,
    InstanceBundle,
    make_instance,
    resolve_instance_name,
)
from .costs import INF, ensure_cost
from .engine import (
    AgentPartition,
    RolloutRun,
    run_classical_mpc,
    run_multiagent,
    run_rollout,
)
from .errors import (
    AssumptionViolationError,
    ConstraintViolationError,
    InfeasibleSeedError,
    InfeasibleStepError,
    InfeasibleTrajectoryError,
    InitialInfeasibilityError,
    RolloutError,
    SampleSetIntegrityError,
    SearchSpaceError,
    SolverFailureError,
    UnusableTrajectoryError,
)
from .lookahead import (
    LookaheadSolution,
    SolverConfig,
    solve,
    solve_discrete,
    solve_restricted,
)
from .model import (
    BoxControls,
    FiniteControls,
    LinearMode,
    PiecewiseLinearStructure,
    Policy,
    ProblemDef,
    Trajectory,
    check_fixed_point,
    check_upper_bound,
    simulate_policy,
    trajectory_cost,
)
from .sample_sets import (
    AnalyticSampleSet,
    ExplicitSampleSet,
    FreeTerminal,
    SampleEntry,
    build_from_trajectory,
    merge,
    verify_invariance,
)
from .shooting import solve_continuous

__version__ = "0.1.0"

__all__ = [
    "AgentPartition",
    "ALIASES",
    "AnalyticSampleSet",
    "AssumptionViolationError",
    "AugmentedState",
    "BoxControls",
    "BudgetConstraintSpec",
    "BudgetSampleSet",
    "ConstraintViolationError",
    "ExplicitSampleSet",
    "FiniteControls",
    "FreeTerminal",
    "INF",
    "INSTANCES",
    "InfeasibleSeedError",
    "InfeasibleStepError",
    "InfeasibleTrajectoryError",
    "InitialInfeasibilityError",
    "InstanceBundle",
    "LinearMode",
    "LookaheadSolution",
    "PiecewiseLinearStructure",
    "Policy",
    "ProblemDef",
    "RolloutError",
    "RolloutRun",
    "SampleEntry",
    "SampleSetIntegrityError",
    "SearchSpaceError",
    "SolverConfig",
    "SolverFailureError",
    "Trajectory",
    "UnusableTrajectoryError",
    "augment_problem",
    "augment_sample_set",
    "base_view",
    "build_from_trajectory",
    "check_fixed_point",
    "check_upper_bound",
    "ensure_cost",
    "make_instance",
    "merge",
    "resolve_instance_name",
    "run_classical_mpc",
    "run_multiagent",
    "run_rollout",
    "simulate_policy",
    "solve",
    "solve_continuous",
    "solve_discrete",
    "solve_restricted",
    "trajectory_cost",
    "verify_invariance",
]
