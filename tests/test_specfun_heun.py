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
from ads_null_flows.specfun import heun


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
        assert HeunEvaluator(p).value_and_derivative(0.0)[0] == 1.0


def test_alpha_zero_q_zero_is_constant():
    p = HeunParams(3.0, 0.0, 0.0, 1.5, 0.5, 0.5)
    for z in (0.0, 0.2, 0.5, 0.9, 0.999):
        assert HeunEvaluator(p).value_and_derivative(z)[0] == pytest.approx(1.0, abs=1e-15)


def test_hl1_at_half_vs_ode():
    p1, _ = lame_heun_params(0.4, 0.67)
    val = HeunEvaluator(p1).value_and_derivative(0.5)[0]
    oracle = ode_oracle(p1, [0.5])[0]
    assert val == pytest.approx(oracle, abs=1e-8)


def test_pair_on_grid_vs_ode():
    mu, h = 0.4, 0.67
    p1, p2 = lame_heun_params(mu, h)
    zs = np.linspace(0.05, 0.99, 20)
    for p in (p1, p2):
        ev = HeunEvaluator(p)
        vals = np.array([ev.value_and_derivative(z)[0] for z in zs])
        oracle = ode_oracle(p, zs)
        assert np.abs(vals - oracle).max() <= 1e-8


def test_pair_normalization_and_reality():
    pair = [HeunEvaluator(p) for p in lame_heun_params(0.4, 0.67)]
    assert [ev.value_and_derivative(0.0)[0] for ev in pair] == [1.0, 1.0]
    pair = [HeunEvaluator(p) for p in lame_heun_params(0.73, 1.1)]
    for z in (0.3, 0.7, 0.95):
        assert all(math.isfinite(ev.value_and_derivative(z)[0]) for ev in pair)


def test_ode_residual_of_values():
    """Substitute computed values and numerically differentiated neighbors
    into the equation; residual <= 1e-6 on [0.01, 0.95]."""
    p, _ = lame_heun_params(0.4, 0.6674427700743268)
    ev = HeunEvaluator(p)
    e = 1e-4
    ep = p.epsilon
    worst = 0.0
    for z in np.linspace(0.01, 0.95, 24):
        fm2, fm1, f0, fp1, fp2 = (ev.value_and_derivative(z + k * e)[0] for k in range(-2, 3))
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
        fd = (ev.value_and_derivative(z + e)[0] - ev.value_and_derivative(z - e)[0]) / (2 * e)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_value_at_one_is_one_sided_limit():
    p1, p2 = lame_heun_params(0.4, 0.6674427700743268)
    for p in (p1, p2):
        ev = HeunEvaluator(p)
        lim = float(ev.A)          # f(1) = A, the u0 coefficient at z = 1
        near = ev.value_and_derivative(1.0 - 1e-10)[0]
        assert lim == pytest.approx(near, abs=1e-4)
        assert math.isfinite(lim)


def test_domain_guards():
    p = HeunParams(2.0, 0.1, 0.0, 1.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="evaluation restricted to 0 <= z <= 1"):
        HeunEvaluator(p).value_and_derivative(1.2)[0]
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
        assert abs(ev.value_and_derivative(z)[0] - ode_oracle(p, [z], z0=1e-10)[0]) <= 1e-9


# The numpy-scalar recurrences and Horner sums that built the panels before
# they ran on floats: the references that _frobenius_coeffs, _taylor_step
# and the scalar _eval_series keep bit for bit.

def _numpy_frobenius_coeffs(a, q, al, be, ga, de, scale):
    ep = al + be - ga - de + 1.0
    c = np.zeros(heun._MAX_TERMS)
    c[0] = 1.0
    c[1] = q * scale / (a * ga)
    for n in range(1, heun._MAX_TERMS - 1):
        Q = n * ((n - 1 + ga) * (1 + a) + a * de + ep) + q
        P = (n - 1 + al) * (n - 1 + be)
        c[n + 1] = (Q * c[n] - P * scale * c[n - 1]) * scale / (a * (n + 1) * (n + ga))
    return c


def _numpy_taylor_step(p, z0, scale, f0, f1):
    a = p.a
    ga, de, ep = p.gamma, p.delta, p.epsilon
    albe = p.alpha * p.beta
    A = [z0 ** 3 - (1 + a) * z0 ** 2 + a * z0, 3 * z0 ** 2 - 2 * (1 + a) * z0 + a,
         3 * z0 - (1 + a), 1.0]
    b2 = ga + de + ep
    b1 = -(ga * (1 + a) + de * a + ep)
    B = [b2 * z0 ** 2 + b1 * z0 + ga * a, 2 * b2 * z0 + b1, b2]
    C = [albe * z0 - p.q, albe]
    As = [A[j] * scale ** j for j in range(4)]
    Bs = [B[j] * scale ** (j + 1) for j in range(3)]
    Cs = [C[j] * scale ** (j + 2) for j in range(2)]
    d = np.zeros(heun._MAX_TERMS)
    d[0], d[1] = f0, f1 * scale
    for n in range(heun._MAX_TERMS - 2):
        s = 0.0
        for j in (1, 2, 3):
            k = n + 2 - j
            if k >= 2:
                s += As[j] * k * (k - 1) * d[k]
        for j in (0, 1, 2):
            k = n + 1 - j
            if k >= 1:
                s += Bs[j] * k * d[k]
        for j in (0, 1):
            k = n - j
            if k >= 0:
                s += Cs[j] * d[k]
        d[n + 2] = -s / (As[0] * (n + 2) * (n + 1))
    return d


def _numpy_eval_series(coeffs, x):
    v = dv = np.zeros(np.shape(x))
    for k in range(coeffs.shape[-1] - 1, 0, -1):
        v = v * x + coeffs[..., k]
        dv = dv * x + k * coeffs[..., k]
    return v * x + coeffs[..., 0], dv


HEUN_CASES = [(mu, h) for mu in (0.05, 0.4, 0.9, 0.99) for h in (0.5 * (1.0 + mu), 2.5, 300.0)]


@pytest.mark.parametrize("mu, h", HEUN_CASES)
def test_float_panel_chain_is_the_numpy_scalar_one(mu, h):
    """Every series of an evaluator's panel chain and pair at z = 1, and the
    Horner sums that carry the chain from panel to panel and match it to the
    pair, equal the numpy-scalar reference bit for bit."""
    for p in lame_heun_params(mu, h):
        ev = HeunEvaluator(p)
        al, be, ga, de, ep = p.alpha, p.beta, p.gamma, p.delta, p.epsilon
        assert np.array_equal(ev._coeffs[0], _numpy_frobenius_coeffs(
            p.a, p.q, al, be, ga, de, ev._scales[0]))
        for i in range(1, len(ev._centers)):
            f0, f1 = _numpy_eval_series(ev._coeffs[i - 1], heun._RAD_FACTOR)
            assert heun._eval_series(ev._coeffs[i - 1], heun._RAD_FACTOR) == (f0, f1)
            assert np.array_equal(ev._coeffs[i], _numpy_taylor_step(
                p, ev._centers[i], ev._scales[i], f0, f1 / ev._scales[i - 1]))
        a1, pq = 1.0 - p.a, al * be - p.q
        assert np.array_equal(ev._u0, _numpy_frobenius_coeffs(a1, pq, al, be, de, ga, ev._rho))
        assert np.array_equal(ev._u1, _numpy_frobenius_coeffs(
            a1, (a1 * ga + ep) * (1.0 - de) + pq, al + 1.0 - de, be + 1.0 - de, 2.0 - de, ga,
            ev._rho))
        for c in (ev._u0, ev._u1, ev._coeffs[-1]):
            for x in (0.0, 0.37, heun._RAD_FACTOR, np.float64(0.9)):
                assert heun._eval_series(c, x) == _numpy_eval_series(c, x)


def _numpy_near_one(ev, r):
    """(f, df/dr) at z = 1 - r^2 by the numpy Horner sums of the pair."""
    u0, du0 = _numpy_eval_series(ev._u0, r * r / ev._rho)
    u1, du1 = _numpy_eval_series(ev._u1, r * r / ev._rho)
    e2 = 2.0 * (1.0 - ev.params.delta)
    dw = 2.0 * r / ev._rho
    u, du = u0, dw * du0
    v, dv = r ** e2 * u1, r ** e2 * dw * du1 + e2 * r ** (e2 - 1.0) * u1
    return ev.A * u + ev.B * v, ev.A * du + ev.B * dv


def _numpy_panel_values(ev, z):
    """(f, df/dz) at z <= z_match by a numpy Horner sum per point on its
    panel's series."""
    i = np.searchsorted(ev._centers, z, side="right") - 1
    v, dv = _numpy_eval_series(ev._coeffs[i], (z - ev._centers[i]) / ev._scales[i])
    return v, dv / ev._scales[i]


@pytest.mark.parametrize("mu, h", HEUN_CASES)
def test_stack_is_the_numpy_horner_bit_for_bit(mu, h):
    """HeunStack over the pairs of two h gives every function's (f, df/dz)
    below z_match and (f, df/dr) above it as the numpy Horner sums do, bit
    for bit, and so does each evaluator's own value_and_derivative."""
    evs = [HeunEvaluator(p) for x in (h, 1.0 + mu + 0.3) for p in lame_heun_params(mu, x)]
    stack = heun.HeunStack(evs)
    z = np.concatenate([np.linspace(0.0, stack.z_match, 301), [stack.z_match]])
    r = np.concatenate([np.linspace(0.0, np.sqrt(1.0 - stack.z_match), 101)[:-1], [1e-9]])
    (f, fz), (g, gr) = stack(z, r)
    for i, ev in enumerate(evs):
        ref_far, ref_near = _numpy_panel_values(ev, z), _numpy_near_one(ev, r)
        assert np.array_equal(np.array([f[i], fz[i]]), ref_far)
        assert np.array_equal(np.array([g[i], gr[i]]), ref_near)
        w = np.sqrt(1.0 - (1.0 - r * r))      # the r value_and_derivative takes
        g_w, gr_w = _numpy_near_one(ev, w)
        with np.errstate(divide="ignore"):
            ref = np.concatenate([ref_far, [g_w, -gr_w / (2.0 * w)]], axis=1)
        assert np.array_equal(np.array(ev.value_and_derivative(
            np.concatenate([z, 1.0 - r * r]))), ref)
        assert ev.value_and_derivative(z[7]) == (f[i, 7], fz[i, 7])
    (f, fz), (g, gr) = stack(z[:0], r[:0])
    assert f.shape == fz.shape == g.shape == gr.shape == (4, 0)


def test_stack_needs_one_singular_point():
    evs = [HeunEvaluator(p) for mu in (0.4, 0.6) for p in lame_heun_params(mu, 2.0)]
    with pytest.raises(ValueError, match="share a and delta"):
        heun.HeunStack(evs)
