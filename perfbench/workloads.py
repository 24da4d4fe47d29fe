"""The benchmark's workloads: fixed lists of closed-loop rollout jobs.

Every job does what `ddrollout run` does for one experiment, through the
library's public API, and uses the bundle's solver defaults except for the
lookahead depth, mode cap and horizon named here. Engine entry points are
looked up on the module at call time so a traced pass sees its wrappers.
Exactly one job per workload carries the `ddrollout run` arguments that
repeat it, for the CLI parity check.

A smoke size (tiny horizons, ell <= 4) keeps the same jobs and finishes in a
few seconds; the benchmark's own tests use it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ddrollout import engine
from ddrollout.budget import AugmentedState


@dataclass(frozen=True)
class Job:
    name: str
    instance: str
    solve: Callable            # bundles -> RolloutRun
    cli: tuple | None = None   # `ddrollout run` arguments for the same job


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    jobs: tuple
    probes: Callable | None = None   # (bundles, rng) -> seeded extra jobs, checked untimed

    @property
    def cli_job(self) -> Job:
        return next(j for j in self.jobs if j.cli is not None)


def _policy(bundle):
    return next(iter(bundle.base_policies.values()))


def _cfg(bundle, **overrides):
    return dataclasses.replace(bundle.solver_defaults, **overrides)


def _rollout(name, instance, set_name, start, horizon, ell, cli=None):
    def solve(bundles):
        b = bundles[instance]
        x0 = b.start_states[start] if isinstance(start, int) else start
        return engine.run_rollout(b.problem, b.sample_sets[set_name], x0,
                                  _cfg(b, ell=ell), horizon, base_policy=_policy(b))
    return Job(name, instance, solve, cli)


def spiral_sampled(horizon=40, ell=5):
    jobs = (
        _rollout("trajectory-0@(1,1)", "hybrid-spiral", "trajectory-0", 0, horizon, ell),
        _rollout("disk@(1,1)", "hybrid-spiral", "disk", 0, horizon, ell),
        _rollout("disk@(8,-9)", "hybrid-spiral", "disk", 1, horizon, ell,
                 cli=("run", "--instance", "hybrid-spiral", "--set", "disk",
                      "--start-index", "1", "--horizon", str(horizon), "--ell", str(ell))),
    )

    # Extra disk starts drawn from the seed are checked but not timed: the
    # lookahead value grows with |x0|^2, so summing it over uniform disk
    # draws would spread far wider across seeds than any usable bound.
    def probes(bundles, rng):
        disk = bundles["hybrid-spiral"].sample_sets["disk"]
        starts = [disk.sample_member(rng) for _ in range(int(rng.integers(1, 3)))]
        return tuple(
            _rollout("disk@(" + ",".join(f"{c:.3f}" for c in x0) + ")",
                     "hybrid-spiral", "disk", x0, horizon, ell)
            for x0 in starts)

    return Workload("spiral-sampled", ("hybrid-spiral",), jobs, probes)


def spiral_mpc(horizon=40, ell=10):
    def solve(bundles):
        b = bundles["hybrid-spiral"]
        return engine.run_classical_mpc(
            b.problem, b.start_states[0], _cfg(b, ell=ell, mode_cap=512), horizon,
            terminal="origin", terminal_quadratic=b.mpc_quadratic,
            base_policy=_policy(b))
    cli = ("run", "--instance", "hybrid-spiral", "--variant", "classical-mpc",
           "--horizon", str(horizon), "--mpc-horizon", str(ell))
    job = Job(f"classical-mpc@(1,1) ell={ell}", "hybrid-spiral", solve, cli)
    return Workload("spiral-mpc", ("hybrid-spiral",), (job,))


def integrator_budget(horizon=40, ell=4):
    def augmented(bundles):
        b = bundles["double-integrator"]
        x0 = AugmentedState(np.asarray(b.start_states[0], dtype=float),
                            float(b.budget_spec.e_max))
        return engine.run_rollout(b.augmented_problem, b.augmented_sets["budget"], x0,
                                  _cfg(b, ell=ell), horizon, base_policy=_policy(b),
                                  variant="augmented")
    jobs = (
        Job("augmented cap=0.5", "double-integrator", augmented),
        _rollout("trajectory", "double-integrator", "trajectory", 0, horizon, ell,
                 cli=("run", "--instance", "double-integrator", "--set", "trajectory",
                      "--horizon", str(horizon), "--ell", str(ell))),
    )
    return Workload("integrator-budget", ("double-integrator",), jobs)


def grid_discrete(horizon=40, joint_ells=(6, 8), agent_ell=8):
    def agent_by_agent(bundles):
        b = bundles["two-vehicle-grid"]
        return engine.run_multiagent(b.problem, b.sample_sets["trajectory"],
                                     b.start_states[0], _cfg(b, ell=agent_ell),
                                     horizon, b.partition, _policy(b))
    jobs = tuple(_rollout(f"grid joint ell={ell}", "two-vehicle-grid", "trajectory", 0,
                          horizon, ell) for ell in joint_ells)
    jobs += (Job(f"grid agent-by-agent ell={agent_ell}", "two-vehicle-grid",
                 agent_by_agent,
                 cli=("run", "--instance", "two-vehicle-grid", "--variant", "multiagent",
                      "--horizon", str(horizon), "--ell", str(agent_ell))),)
    jobs += tuple(_rollout(f"tour [{s}]", "four-city-tour", s, 0, horizon, 2)
                  for s in ("cdb", "merged", "merged+abd"))
    return Workload("grid-discrete", ("two-vehicle-grid", "four-city-tour"), jobs)


WORKLOADS = {
    "spiral-sampled": (spiral_sampled, dict(horizon=2, ell=2)),
    "spiral-mpc": (spiral_mpc, dict(horizon=3, ell=4)),
    "integrator-budget": (integrator_budget, dict(horizon=3, ell=3)),
    "grid-discrete": (grid_discrete, dict(horizon=3, joint_ells=(3, 4), agent_ell=4)),
}


def get(name: str, smoke: bool = False) -> Workload:
    build, smoke_size = WORKLOADS[name]
    return build(**smoke_size) if smoke else build()
