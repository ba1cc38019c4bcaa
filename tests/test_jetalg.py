"""Exact algebra on differential polynomials: operators, Lenard recursion,
conservation densities, LIEN coefficients."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from jetalg_ref import evaluate

from ads_null_flows.jetalg import (
    JetPoly,
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
    with pytest.raises(ValueError, match=r"residue of order <= 0 left: JetPoly\(u\)"):
        U.primitive()
    with pytest.raises(ValueError, match="u1 does not occur linearly"):
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


# Exact reference for the ring operations: each JetPoly is drawn as a list of
# terms (coefficient, {index: exponent}), and evaluated at a rational jet from
# that list and from its exported terms.

@st.composite
def described_jet_polys(draw):
    terms = draw(st.lists(st.tuples(
        _rational_coeff,
        st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=3)),
        max_size=5))
    p = JetPoly.zero()
    for c, monomial in terms:
        m = JetPoly.const(c)
        for i, e in monomial.items():
            m = m * JetPoly.var(i, e)
        p = p + m
    return p, terms


def _described_value(terms, jet):
    total = Fraction(0)
    for c, monomial in terms:
        total += c * math.prod(jet[i] ** e for i, e in monomial.items())
    return total


def _exact_value(p, jet):
    """p at the jet from its sorted terms, each coefficient read back from
    its printed spelling, as the exports spell it."""
    total = Fraction(0)
    for pairs, c in p.sorted_terms():
        v = Fraction(str(c))
        for i, e in pairs:
            v *= jet[i] ** e
        total += v
    return total


def _exact_order(p):
    return max((i for pairs, _ in p.sorted_terms() for i, _ in pairs), default=-1)


@settings(max_examples=100, deadline=None)
@given(described_jet_polys(), described_jet_polys(),
       st.lists(_rational_coeff, min_size=5, max_size=5))
def test_ring_operations_match_exact_evaluation(pd, qd, jet):
    (p, p_terms), (q, q_terms) = pd, qd
    vp, vq = _described_value(p_terms, jet), _described_value(q_terms, jet)
    assert (_exact_value(p, jet), _exact_value(q, jet)) == (vp, vq)
    assert _exact_value(p * q, jet) == vp * vq
    assert _exact_value(p + q, jet) == vp + vq
    for r in (p, q, p * q, p + q):
        assert r.order() == _exact_order(r)
    # the ring has no zero divisors, so the top variable of a factor survives
    assert (p * q).order() == (max(p.order(), q.order()) if p and q else -1)
    assert (p + q).order() <= max(p.order(), q.order())


# The coefficient normal form: an int where the value is integral, a
# Fraction with denominator > 1 elsewhere, whatever the operation.

def _in_normal_form(p):
    return all(c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
               for c in p.terms.values())


def _eps_value(terms, jet):
    """int_0^1 p|_{eps u} u d eps at the jet, from p's drawn terms: each
    term of degree d gives its value times u / (d + 1)."""
    return sum((c * math.prod(jet[i] ** e for i, e in monomial.items())
                * jet[0] / (sum(monomial.values()) + 1)
                for c, monomial in terms), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(described_jet_polys(), described_jet_polys(),
       st.lists(_rational_coeff, min_size=9, max_size=9))
def test_operations_keep_the_normal_form(pd, qd, jet):
    """Ring operations, D, E, D^-1 and the eps-integral leave every
    coefficient in the normal form, at the values of the exact references
    (E of a term in u4 reaches u8, so the jet runs to index 8)."""
    (p, p_terms), (q, q_terms) = pd, qd
    vp, vq = _described_value(p_terms, jet), _described_value(q_terms, jet)
    d = p.total_derivative()
    results = {
        "p": (p, vp), "p + q": (p + q, vp + vq), "p - q": (p - q, vp - vq),
        "p * q": (p * q, vp * vq), "-p": (-p, -vp), "2 * p": (2 * p, 2 * vp),
        "D p": (d, _exact_value(_chain_rule_D(p), jet)),
        "E p": (p.euler(), _exact_value(_definition_E(p), jet)),
        # D^-1 D p is p less its constant term
        "D^-1 D p": (d.primitive(), vp - p.terms.get((), 0)),
        "eps p": (p.eps_integral_times_u(), _eps_value(p_terms, jet)),
    }
    for name, (r, want) in results.items():
        assert _in_normal_form(r), (name, r.terms)
        assert _exact_value(r, jet) == want, name


def test_normal_form_at_construction():
    """Integral Fractions become ints, either type gives the same
    polynomial, hash and text, and a float coefficient is refused."""
    p = JetPoly({(1,): Fraction(6, 3), (0, 2): Fraction(-1, 2), (): Fraction(0)})
    assert p.terms == {(1,): 2, (0, 2): Fraction(-1, 2)}
    assert type(p.terms[(1,)]) is int
    q = JetPoly({(1,): 2, (0, 2): Fraction(-1, 2)})
    assert p == q and hash(p) == hash(q) and p.text() == q.text() == "-1/2*u1^2 + 2*u"
    assert type((Fraction(1, 2) * 2 * U).terms[(1,)]) is int
    # D^-1 divides an int coefficient exactly: D(u^3 / 3) = u^2 u1 and back
    d = JetPoly({(3,): Fraction(1, 3)}).total_derivative()
    assert d.terms == {(2, 1): 1} and type(d.terms[(2, 1)]) is int
    assert d.primitive().terms == {(3,): Fraction(1, 3)}
    with pytest.raises(TypeError, match="an int or a Fraction"):
        JetPoly({(1,): 0.5})
    # the hierarchy: p_n, a_n, b_n on ints alone, h_n with its fractions
    for n in range(1, 9):
        assert all(type(c) is int for c in lenard_p(n).terms.values())
        assert all(type(c) is int for r in lien_coefficients(n) for c in r.terms.values())
        assert _in_normal_form(hamiltonian_density(n))
    fractions = [c for c in hamiltonian_density(8).terms.values() if type(c) is Fraction]
    assert (len(fractions), len(hamiltonian_density(8).terms)) == (18, 55)


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
    assert evaluate(p, [1.0, 0.0, 2.0]) == pytest.approx(-1.0)
    assert evaluate(JetPoly.const(1), []) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="need jet values up to index 2, got 2"):
        evaluate(p, [1.0, 0.0])


def test_text_and_sorted_terms():
    p = lenard_p(2)
    assert p.text() == "u2 - 3*u^2"
    assert p.sorted_terms() == [([(2, 1)], 1), ([(0, 2)], -3)]
