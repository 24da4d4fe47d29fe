"""What the benchmark under perfbench/ calls in the library.

perfbench/ lies outside the test paths, so a library change that renames a
function the benchmark wraps, or changes an engine entry point's keywords,
would break the benchmark without failing these tests. This checks every
name the benchmark's tracer patches and runs every workload's jobs once at
their smoke size.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from ddrollout import make_instance, shooting  # noqa: E402


def test_every_name_the_tracer_patches_is_defined_where_it_looks():
    for owner, attr, _ in tracing._SETUP_NAMES + tracing._PASS_NAMES + tracing._LEAF_METHODS:
        assert attr in vars(owner), (owner, attr)
    assert "solve_continuous" in vars(shooting)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_runs_at_smoke_size(name):
    wl = workloads.get(name, smoke=True)
    bundles = {instance: make_instance(instance) for instance in wl.instances}
    jobs = wl.jobs + (wl.probes(bundles, np.random.default_rng(0)) if wl.probes else ())
    for job in jobs:
        run = job.solve(bundles)
        assert run.steps >= 1 and run.per_step_values, job.name
