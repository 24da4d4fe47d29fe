import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddrollout.costs import INF, ensure_cost
from ddrollout.model import Trajectory, trajectory_cost


def test_infinity_is_a_valid_cost():
    assert ensure_cost(INF) == INF


def test_negative_and_nan_rejected():
    with pytest.raises(ValueError):
        ensure_cost(-0.5)
    with pytest.raises(ValueError):
        ensure_cost(math.nan)


def _total(costs):
    """trajectory_cost of a trajectory with these stage costs and no tail costs."""
    n = len(costs)
    return trajectory_cost(Trajectory(states=(0,) * (n + 1), controls=(0,) * n,
                                      stage_costs=tuple(costs), policy_id="p",
                                      terminated_in_stopping_set=False))


def test_sum_absorbs_infinity():
    assert _total([1.0, INF, 2.0]) == INF
    assert _total([]) == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=20))
def test_sum_is_fsum_on_finite_lists(costs):
    assert _total(costs) == math.fsum(costs)
