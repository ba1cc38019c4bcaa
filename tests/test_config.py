"""Run configuration: validation of every numeric field."""

import math

import pytest

from ads_null_flows.config import DEFAULT, RunConfig


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_rejects_non_finite_and_non_positive(value):
    with pytest.raises(ValueError):
        RunConfig(tol_floquet=value)
    with pytest.raises(ValueError):
        DEFAULT.with_overrides(integrator_rel_tol=value)


def test_accepts_int_too_large_for_a_float():
    # math.isfinite(10**400) raises OverflowError; an int is always finite
    assert RunConfig(order_max=10**400).order_max == 10**400
    with pytest.raises(ValueError):
        RunConfig(order_max=0)
