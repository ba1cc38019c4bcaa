"""Split-signature metric machinery on 2x2 matrices: ads_inner, and the
Cartan basis and time orientation of the tests' reference geometry."""

import numpy as np
import pytest
from geometry_ref import CARTAN_GRAM, P1, P2, P3, P4, DegenerateBivector, future_directed

from ads_null_flows.nullcurve import ads_inner


def test_inner_diagonal_is_minus_det():
    rng = np.random.default_rng(0)
    for _ in range(50):
        X = rng.normal(size=(2, 2))
        assert ads_inner(X, X) == pytest.approx(-np.linalg.det(X), rel=1e-12, abs=1e-12)


def test_cartan_basis_gram():
    F = np.array([P1, P2, P3, P4])
    G = ads_inner(F[:, None], F[None, :])
    assert np.abs(G - CARTAN_GRAM).max() <= 1e-14


def test_invariance_under_spin_action():
    rng = np.random.default_rng(1)
    for _ in range(30):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        A /= np.sqrt(abs(np.linalg.det(A)))
        B /= np.sqrt(abs(np.linalg.det(B)))
        if np.linalg.det(A) < 0 or np.linalg.det(B) < 0:
            continue
        X, Y = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        Bi = np.linalg.inv(B)
        assert ads_inner(A @ X @ Bi, A @ Y @ Bi) \
            == pytest.approx(ads_inner(X, Y), rel=1e-10, abs=1e-10)


def test_future_directed_basis():
    assert future_directed(P1, P2)
    assert not future_directed(P1, -P2)


def test_future_directed_degenerate():
    with pytest.raises(DegenerateBivector):
        future_directed(P1, 2.0 * P1)
