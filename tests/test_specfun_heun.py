"""Local Heun function against an ODE-integration oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ads_null_flows.specfun import (
    HeunEvaluator,
    HeunParams,
    lame_heun_params,
)


def ode_oracle(p: HeunParams, z_targets, z0=1e-9):
    """High-order integration of the Heun equation from near 0, seeded by the
    two-term expansion f = 1 + (q/(a gamma)) z + O(z^2)."""
    ep = p.epsilon

    def rhs(z, y):
        f, fp = y
        fpp = -(p.gamma / z + p.delta / (z - 1) + ep / (z - p.a)) * fp \
            - (p.alpha * p.beta * z - p.q) / (z * (z - 1) * (z - p.a)) * f
        return [fp, fpp]

    c1 = p.q / (p.a * p.gamma)
    out = []
    y = [1.0 + c1 * z0, c1]
    z_prev = z0
    for z in z_targets:
        sol = solve_ivp(rhs, (z_prev, z), y, method="DOP853", rtol=1e-12, atol=1e-14)
        y = [sol.y[0, -1], sol.y[1, -1]]
        z_prev = z
        out.append(y[0])
    return np.array(out)


def test_normalization_at_zero():
    for p in (HeunParams(2.5, 0.3, 0.0, 1.5, 0.5, 0.5),
              HeunParams(1.0 / 0.4, -0.2, 0.5, 2.0, 1.5, 0.5)):
        assert HeunEvaluator(p)(0.0) == 1.0


def test_alpha_zero_q_zero_is_constant():
    p = HeunParams(3.0, 0.0, 0.0, 1.5, 0.5, 0.5)
    for z in (0.0, 0.2, 0.5, 0.9, 0.999):
        assert HeunEvaluator(p)(z) == pytest.approx(1.0, abs=1e-15)


def test_hl1_at_half_vs_ode():
    p1, _ = lame_heun_params(0.4, 0.67)
    val = HeunEvaluator(p1)(0.5)
    oracle = ode_oracle(p1, [0.5])[0]
    assert val == pytest.approx(oracle, abs=1e-8)


def test_pair_on_grid_vs_ode():
    mu, h = 0.4, 0.67
    p1, p2 = lame_heun_params(mu, h)
    zs = np.linspace(0.05, 0.99, 20)
    for p in (p1, p2):
        ev = HeunEvaluator(p)
        vals = np.array([ev(z) for z in zs])
        oracle = ode_oracle(p, zs)
        assert np.abs(vals - oracle).max() <= 1e-8


def test_pair_normalization_and_reality():
    pair = [HeunEvaluator(p) for p in lame_heun_params(0.4, 0.67)]
    assert [ev(0.0) for ev in pair] == [1.0, 1.0]
    pair = [HeunEvaluator(p) for p in lame_heun_params(0.73, 1.1)]
    for z in (0.3, 0.7, 0.95):
        assert all(math.isfinite(ev(z)) for ev in pair)


def test_ode_residual_of_values():
    """Substitute computed values and numerically differentiated neighbors
    into the equation; residual <= 1e-6 on [0.01, 0.95]."""
    p, _ = lame_heun_params(0.4, 0.6674427700743268)
    ev = HeunEvaluator(p)
    e = 1e-4
    ep = p.epsilon
    worst = 0.0
    for z in np.linspace(0.01, 0.95, 24):
        fm2, fm1, f0, fp1, fp2 = (ev(z + k * e) for k in range(-2, 3))
        d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * e)
        d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * e ** 2)
        resid = d2 + (p.gamma / z + p.delta / (z - 1) + ep / (z - p.a)) * d1 \
            + (p.alpha * p.beta * z - p.q) / (z * (z - 1) * (z - p.a)) * f0
        worst = max(worst, abs(resid))
    assert worst <= 1e-6


def test_derivative_consistency():
    p, _ = lame_heun_params(0.55, 0.9)
    ev = HeunEvaluator(p)
    for z in (0.2, 0.6, 0.9):
        _, d = ev.value_and_derivative(z)
        e = 1e-6
        fd = (ev(z + e) - ev(z - e)) / (2 * e)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_value_at_one_is_one_sided_limit():
    p1, p2 = lame_heun_params(0.4, 0.6674427700743268)
    for p in (p1, p2):
        ev = HeunEvaluator(p)
        lim = float(ev.A)          # f(1) = A, the u0 coefficient at z = 1
        near = ev(1.0 - 1e-10)
        assert lim == pytest.approx(near, abs=1e-4)
        assert math.isfinite(lim)


def test_domain_guards():
    p = HeunParams(2.0, 0.1, 0.0, 1.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="evaluation restricted to 0 <= z <= 1"):
        HeunEvaluator(p)(1.2)
    with pytest.raises(ValueError, match="singularity parameter a must exceed 1"):
        HeunParams(0.9, 0.1, 0.0, 1.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="gamma = 0.0 is a non-positive integer"):
        HeunParams(2.0, 0.1, 0.0, 1.5, 0.0, 0.5)


def test_accuracy_deep_in_the_continuation_zone():
    """The re-centering chain keeps full precision right up to 1 - 1e-6."""
    p1, p2 = lame_heun_params(0.4, 0.6674427700743268)
    for p in (p1, p2):
        ev = HeunEvaluator(p)
        z = 1.0 - 1e-6
        assert abs(ev(z) - ode_oracle(p, [z], z0=1e-10)[0]) <= 1e-9
