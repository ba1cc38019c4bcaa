"""Extended-frame evolution: cross-validation against the rigid stationary
evolution, monodromy preservation, and the three-parameter family pipeline."""

import numpy as np
import pytest

from ads_null_flows.config import NumericFailure, RunConfig
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.nullcurve import (
    bending_oracle,
    classify_monodromies,
    evolve_stationary_path,
    kdv_gate,
    lien_evolve,
)

MU = 0.9
H_PLUS = 0.9300299176777007
H_MINUS = 2.225980871712621
MU_STAR = 0.6150396634356605


class BrokenSampler:
    """Deliberately violates the KdV equation."""

    s_period = 2.0 * np.pi

    def kappa_jet(self, s, t=0.0, order=3):
        return [np.sin(s + t)] + [0.0] * order

    def kappa_t(self, s, t=0.0):
        return np.cos(s + t)


def test_gate_rejects_non_solutions():
    with pytest.raises(NumericFailure, match="violates the KdV residual gate"):
        lien_evolve(BrokenSampler(), np.linspace(0, 1, 5), np.array([0.0, 0.1]))


class ScaledKappaT:
    """A bending whose kappa_t is off by the factor 1 + rel."""

    def __init__(self, sampler, rel):
        self.sampler, self.rel, self.s_period = sampler, rel, sampler.s_period

    def kappa_jet(self, s, t=0.0, order=3):
        return self.sampler.kappa_jet(s, t, order=order)

    def kappa_t(self, s, t=0.0):
        return (1.0 + self.rel) * self.sampler.kappa_t(s, t)


@pytest.mark.parametrize("recipe", ["check", "kksh"])
def test_gate_on_probe_arrays(recipe):
    """On the probes of the check and kksh recipes, one array call of
    kappa_jet and of kappa_t: the exact bendings pass at the rounding, and
    a kappa_t scaled by 1 + 1e-3 (max |kappa_t| is 7.9 and 4e4) fails."""
    sampler, periods, t_end = {"check": (StationaryBending(MU, H_PLUS, H_MINUS), 1, 0.2),
                               "kksh": (kksh(), 2, 1.611855)}[recipe]
    s_probe = np.linspace(0.0, periods * sampler.s_period, 12)
    t_probe = np.linspace(0.0, t_end, 6)
    assert kdv_gate(sampler, s_probe, t_probe, 1e-3)[0] <= 1e-9
    with pytest.raises(NumericFailure, match="violates the KdV residual gate"):
        kdv_gate(ScaledKappaT(sampler, 1e-3), s_probe, t_probe, 1e-3)
    with pytest.raises(NumericFailure, match="gate: nan > 1.0e-03"):
        kdv_gate(ScaledKappaT(sampler, np.nan), s_probe, t_probe, 1e-3)


class ProbeCounter:
    """A bending that records its array calls of kappa_jet of order >= 1 and
    its calls of kappa_t."""

    def __init__(self, sampler):
        self.sampler, self.s_period, self.calls = sampler, sampler.s_period, []

    def kappa_jet(self, s, t=0.0, order=3):
        if order >= 1 and isinstance(s, np.ndarray):
            self.calls.append(f"kappa_jet order {order}")
        return self.sampler.kappa_jet(s, t, order=order)

    def kappa_t(self, s, t=0.0):
        self.calls.append("kappa_t")
        return self.sampler.kappa_t(s, t)


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13])
def test_one_probe_pass_per_lien_evolve(rel_tol):
    """The period test reuses the jets of the KdV gate: one kappa_t call and
    one kappa_jet call of order >= 1 on the probes per lien_evolve, at the
    default tolerance and below the README grid's period gap (1.8e-13),
    where the rounding floor decides the route."""
    sampler = ProbeCounter(kksh())
    lien_evolve(sampler, np.linspace(0.0, 2.0 * sampler.s_period, 257),
                [0.0, 0.537285, 1.07457, 1.611855], RunConfig(integrator_rel_tol=rel_tol))
    assert sampler.calls == ["kappa_jet order 3", "kappa_t"]


def test_cross_validation_with_rigid_evolution():
    """Integrated extended frames equal the closed-form evolution of the
    same initial data (Id at the origin), pointwise to 1e-4: the closed form
    starts at diag(1/sqrt sigma, sqrt sigma), so its frames are multiplied
    on the left by the inverse."""
    sp = StationaryBending(MU, H_PLUS, H_MINUS)
    s_grid = np.linspace(0.0, sp.s_period, 33)
    t_grid = np.linspace(0.0, 0.25, 10)
    ev = lien_evolve(sp, s_grid, t_grid)
    to_id = np.diag([np.sqrt(sp.sigma), 1.0 / np.sqrt(sp.sigma)])
    for j, t in enumerate(t_grid):
        closed = evolve_stationary_path(sp, s_grid, float(t))
        F = to_id @ closed.F
        path = ev.paths[j]
        assert np.abs(path.F - F).max() <= 1e-4
        assert np.abs(path.gamma() - F[0] @ np.linalg.inv(F[1])).max() <= 1e-4


def test_monodromy_preserved_stationary():
    sp = StationaryBending(MU, H_PLUS, H_MINUS)
    rho = sp.s_period
    s_grid = np.linspace(0.0, rho, 17)
    t_grid = np.linspace(0.0, 0.25, 6)
    ev = lien_evolve(sp, s_grid, t_grid)
    assert ev.monodromy_drift(rho) <= 1e-4


def test_bending_recovered_along_evolution():
    sp = StationaryBending(MU, H_PLUS, H_MINUS)
    s_grid = np.linspace(0.0, sp.s_period, 601)
    t_grid = np.array([0.0, 0.11])
    ev = lien_evolve(sp, s_grid, t_grid)
    for path in ev.paths:
        kap = bending_oracle(path.gamma(), s_grid=s_grid)
        sel = ~np.isnan(kap)
        assert np.abs(kap[sel] - path.kappa[sel]).max() <= 1e-3


# ------------------------------------------------------- KKSH family

def kksh():
    return KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0)


def test_kksh_t0_frames_match_printed_monodromy():
    """The t = 0 frames from Id over one period: the + factor is the printed
    hyperbolic element, the - factor a 2 pi/3 rotation conjugate."""
    spec = kksh()
    rho = spec.s_period
    ev = lien_evolve(spec, np.array([0.0, rho]), np.array([0.0]))
    Fp, Fm = ev.paths[0].F[:, -1]
    printed = np.array([[32.13972944617541, 31.723219516279162],
                        [32.5231, 32.1327]])
    assert np.abs((Fp - printed) / printed).max() <= 1e-3
    tr = np.trace(Fp)
    zeta1 = (tr + np.sqrt(tr * tr - 4.0)) / 2.0
    assert zeta1 == pytest.approx(64.26, abs=0.1)
    assert 0.5 * np.trace(Fm) == pytest.approx(np.cos(2 * np.pi / 3), abs=1e-6)
    cls = classify_monodromies(Fp, Fm, rho)
    assert cls.type_pair == "(H,E)"


def test_kksh_monodromy_preserved_in_t():
    spec = kksh()
    rho = spec.s_period
    s_grid = np.linspace(0.0, rho, 9)
    t_grid = np.linspace(0.0, 0.3, 5)
    ev = lien_evolve(spec, s_grid, t_grid)
    assert ev.monodromy_drift(rho) <= 1e-4


def test_kksh_evolution_satisfies_flow_equation():
    """Centered finite differences in t of the evolved family reproduce
    d_t gamma = -2 sqrt2 (kappa T + 2 B) along the whole s-window."""
    import math

    from geometry_ref import cartan_frame

    spec = kksh()
    rho = spec.s_period
    s_grid = np.linspace(0.0, rho, 41)
    e = 2e-6
    ev = lien_evolve(spec, s_grid, np.array([0.0, e, 2 * e, 3 * e, 4 * e]))
    g = [p.gamma() for p in ev.paths]
    dgdt = (g[0] - 8 * g[1] + 8 * g[3] - g[4]) / (12 * e)
    _, T, _, B = cartan_frame(ev.paths[2])
    kap = ev.paths[2].kappa
    target = -2 * math.sqrt(2.0) * (kap[:, None, None] * T + 2.0 * B)
    assert np.abs(dgdt - target).max() <= 1e-4
