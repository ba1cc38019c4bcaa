"""Exact algebra on differential polynomials: operators, Lenard recursion,
conservation densities, LIEN coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ads_null_flows.jetalg import (
    JetPoly,
    NotATotalDivergence,
    InsufficientJet,
    hamiltonian_density,
    kdv_rhs,
    lenard_p,
    lien_coefficients,
)
from ads_null_flows.jetalg.poly import U, U1


def V(i, e=1):
    return JetPoly.var(i, e)


# ---------------------------------------------------------------- operators

def test_total_derivative_basics():
    assert JetPoly.const(1).total_derivative().is_zero()
    assert U.total_derivative() == U1
    assert (U * U).total_derivative() == 2 * U * U1


def test_euler_basics():
    half = Fraction(1, 2)
    assert (half * U * U).euler() == U
    # E(u*u2) = 2*u2 : d/du gives u2, D^2 d/du2 gives another u2
    assert (U * V(2)).euler() == 2 * V(2)


def test_script_D_values():
    one = JetPoly.const(1)
    assert one.script_D() == -2 * U1
    assert U.script_D() == V(3) - 6 * U * U1
    # linearity on a couple of fixed polynomials
    p = 3 * U * V(2) - V(1, 2)
    q = U * U * U + 5 * V(4)
    assert (p + q).script_D() == p.script_D() + q.script_D()


def test_primitive_values():
    assert (2 * U * U1).primitive() == U * U
    assert (V(3) - 6 * U * U1).primitive() == V(2) - 3 * U * U
    # reordered product canonicalizes to the same primitive
    assert (U1 * U * 2).primitive() == U * U


def test_primitive_rejects_non_divergence():
    with pytest.raises(NotATotalDivergence):
        U.primitive()
    with pytest.raises(NotATotalDivergence):
        (U * V(2)).primitive()


# ----------------------------------------------------------- random inputs

_coeff = st.integers(min_value=-4, max_value=4)


def _random_poly(draw, max_index=4, max_terms=4, max_deg=3):
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    p = JetPoly.zero()
    for _ in range(n_terms):
        c = draw(_coeff)
        n_factors = draw(st.integers(min_value=0, max_value=max_deg))
        m = JetPoly.const(c)
        for _ in range(n_factors):
            m = m * JetPoly.var(draw(st.integers(min_value=0, max_value=max_index)))
        p = p + m
    return p


@st.composite
def jet_polys(draw, max_index=4):
    return _random_poly(draw, max_index=max_index)


@settings(max_examples=100, deadline=None)
@given(jet_polys())
def test_euler_annihilates_divergences(p):
    assert p.total_derivative().euler().is_zero()


@settings(max_examples=60, deadline=None)
@given(jet_polys(max_index=3))
def test_u1_times_euler_is_divergence(p):
    # u1 * E(p) is a total divergence
    assert (U1 * p.euler()).euler().is_zero()


@settings(max_examples=60, deadline=None)
@given(jet_polys(max_index=3))
def test_u_times_D_euler_is_divergence(p):
    # u * D(E(p)) is a total divergence
    assert (U * p.euler().total_derivative()).euler().is_zero()


@settings(max_examples=40, deadline=None)
@given(jet_polys(max_index=3), jet_polys(max_index=3))
def test_primitive_roundtrip(p, q):
    div = p.total_derivative()
    if div.is_zero():
        return
    assert div.primitive().total_derivative() == div
    assert (p + q).total_derivative().euler().is_zero()


# Reference operators straight from their definitions (P. J. Olver,
# Applications of Lie Groups to Differential Equations, 4.1 and 5.4):
# D by the chain rule, E as the alternating sum of powers of D.

def _chain_rule_D(p):
    out = JetPoly.zero()
    for i in range(p.order() + 1):
        out = out + p.partial(i) * JetPoly.var(i + 1)
    return out


def _definition_E(p):
    out = JetPoly.zero()
    for i in range(p.order() + 1):
        q = p.partial(i)
        for _ in range(i):
            q = _chain_rule_D(q)
        out = out + q if i % 2 == 0 else out - q
    return out


_rational_coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rational_jet_polys(draw, max_index=4):
    """Random JetPolys with rational, often non-integer, coefficients."""
    p = JetPoly.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        m = JetPoly.const(draw(_rational_coeff))
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            m = m * JetPoly.var(draw(st.integers(min_value=0, max_value=max_index)))
        p = p + m
    return p


@settings(max_examples=100, deadline=None)
@given(rational_jet_polys())
def test_total_derivative_matches_chain_rule(p):
    assert p.total_derivative() == _chain_rule_D(p)


@settings(max_examples=60, deadline=None)
@given(rational_jet_polys())
def test_euler_matches_its_definition(p):
    assert p.euler() == _definition_E(p)


@settings(max_examples=60, deadline=None)
@given(rational_jet_polys())
def test_euler_of_total_derivative_vanishes_over_q(p):
    assert p.total_derivative().euler().is_zero()


# ------------------------------------------------------------ the hierarchy

def test_lenard_first_polynomials():
    assert lenard_p(0) == JetPoly.const(1)
    assert lenard_p(1) == U
    assert lenard_p(2) == V(2) - 3 * U * U
    assert lenard_p(3) == V(4) - 10 * U * V(2) - 5 * V(1, 2) + 10 * U * U * U


def test_lenard_order_growth():
    for n in range(1, 7):
        assert lenard_p(n).order() == 2 * (n - 1)


def test_lenard_recursion_identity():
    for n in range(2, 7):
        assert lenard_p(n).total_derivative() == lenard_p(n - 1).script_D()


def test_kdv_rhs_flows():
    assert kdv_rhs(0) == U1
    assert kdv_rhs(1) == V(3) - 6 * U * U1
    assert kdv_rhs(2) == V(5) - 10 * U * V(3) - 20 * U1 * V(2) + 30 * U * U * U1


def test_hamiltonian_densities():
    half = Fraction(1, 2)
    assert hamiltonian_density(1) == half * U * U
    assert hamiltonian_density(2) == half * U * V(2) - U * U * U
    for n in range(1, 7):
        assert hamiltonian_density(n).euler() == lenard_p(n)


def test_lien_coefficients_low_orders():
    _, _, a0, b0 = lien_coefficients(0)
    assert a0 == JetPoly.const(4) and b0.is_zero()
    _, _, a1, b1 = lien_coefficients(1)
    assert a1 == 4 * U and b1 == JetPoly.const(-8)
    _, _, a2, b2 = lien_coefficients(2)
    assert a2 == 4 * V(2) - 12 * U * U - 32
    assert b2 == 16 * U


# ------------------------------------------------------------- evaluation

def test_evaluate():
    p = V(2) - 3 * U * U
    assert p.evaluate([1.0, 0.0, 2.0]) == pytest.approx(-1.0)
    assert JetPoly.const(1).evaluate([]) == pytest.approx(1.0)
    with pytest.raises(InsufficientJet):
        p.evaluate([1.0, 0.0])


def test_text_and_json():
    p = lenard_p(2)
    assert p.text() == "u2 - 3*u^2"
    js = p.to_json()
    assert {"coeff": "1", "monomial": {"2": 1}} in js["terms"]
    assert {"coeff": "-3", "monomial": {"0": 2}} in js["terms"]
