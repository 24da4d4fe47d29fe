import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddrollout.costs import INF, ensure_cost, sum_costs


def test_infinity_is_a_valid_cost():
    assert ensure_cost(INF) == INF


def test_negative_and_nan_rejected():
    with pytest.raises(ValueError):
        ensure_cost(-0.5)
    with pytest.raises(ValueError):
        ensure_cost(math.nan)


def test_sum_absorbs_infinity():
    assert sum_costs([1.0, INF, 2.0]) == INF
    assert sum_costs([]) == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=20))
def test_sum_is_fsum_on_finite_lists(costs):
    assert sum_costs(costs) == math.fsum(costs)
