import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq

from curvebif import ConstantForm, Nonlinearity, Segment, Weight
from curvebif.eigen import bif_direction, principal_dirichlet, principal_neumann, rayleigh_identity


def transcendental_lam0(A, B, z):
    def g(lam):
        return math.sqrt(A) * math.tan(math.sqrt(lam * A) * z) - math.sqrt(B) * math.tanh(
            math.sqrt(lam * B) * (1 - z)
        )

    pole = (math.pi / 2) ** 2 / (A * z * z)
    return brentq(g, 1e-9, pole * (1 - 1e-12), xtol=1e-14, rtol=8.9e-16)


def test_neumann_matches_matching_equation(jump_weight):
    pair = principal_neumann(jump_weight)
    oracle = transcendental_lam0(1.0, 2.0, 0.4)
    assert pair.eigenvalue == pytest.approx(oracle, rel=1e-6)
    assert pair.residual <= 1e-6
    assert np.min(pair.phi) > 0
    assert abs(pair.dphi[0]) < 1e-10 and abs(pair.dphi[-1]) < 1e-8


def test_eigenvalue_scaling(jump_weight):
    base = principal_neumann(jump_weight).eigenvalue
    quarter = principal_neumann(jump_weight.scaled(4.0)).eigenvalue
    assert quarter == pytest.approx(base / 4.0, rel=1e-10)


def test_eigenfunction_not_constant(ramp_weight):
    pair = principal_neumann(ramp_weight)
    assert pair.eigenvalue > 0
    assert np.max(pair.phi) - np.min(pair.phi) > 0.1


def test_refinement_invariance(jump_weight):
    # halving the integrator step cap leaves the eigenvalue unchanged far
    # below the stated refinement tolerance
    a = principal_neumann(jump_weight, max_step_frac=1.0 / 16.0).eigenvalue
    b = principal_neumann(jump_weight, max_step_frac=1.0 / 32.0).eigenvalue
    assert abs(a - b) / b < 1e-7


def test_dirichlet_sine_oracle():
    w = Weight(0.4, (Segment(0.0, 0.4, ConstantForm(1.0)), Segment(0.4, 1.0, ConstantForm(-2.0))))
    pair = principal_dirichlet(w, (0.0, 0.4))
    assert pair.eigenvalue == pytest.approx((math.pi / 0.4) ** 2, rel=1e-9)
    half = principal_dirichlet(w, (0.0, 0.2))
    assert half.eigenvalue == pytest.approx(4.0 * (math.pi / 0.4) ** 2, rel=1e-9)


def test_dirichlet_matrix_oracle(jump_weight):
    # dense three-point matrix eigenvalue on (0, z) with the step weight
    z = 0.4
    pair = principal_dirichlet(jump_weight, (0.0, z))
    n = 400
    xs = np.linspace(0.0, z, n + 2)[1:-1]
    h = xs[1] - xs[0]
    main = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    K = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    Bm = np.diag(jump_weight.eval(xs))
    mu = eigh(K, Bm, eigvals_only=True)
    mu1 = np.min(mu[mu > 0])
    assert pair.eigenvalue == pytest.approx(mu1, rel=1e-3)


def test_dirichlet_requires_positive_weight(jump_weight):
    with pytest.raises(ValueError):
        principal_dirichlet(jump_weight, (0.0, 0.9))


def test_rayleigh_identity(jump_weight):
    pair = principal_neumann(jump_weight)
    lhs, rhs = rayleigh_identity(pair)
    assert rhs > 0
    assert abs(lhs - rhs) / rhs < 1e-5


def test_bif_direction_signs(jump_weight):
    pair = principal_neumann(jump_weight)
    f = Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0)
    lam1, lam2 = bif_direction(f, pair)
    assert lam1 == 0.0  # no quadratic term at zero
    assert lam2 is not None and lam2 < 0  # subcritical departure


def test_bif_direction_needs_p_equal_one(jump_weight):
    pair = principal_neumann(jump_weight)
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=1.0)
    with pytest.raises(ValueError):
        bif_direction(f, pair)


def test_bif_direction_needs_full_interval(jump_weight):
    pair = principal_dirichlet(jump_weight, (0.0, 0.4))
    f = Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0)
    with pytest.raises(ValueError):
        bif_direction(f, pair)


@pytest.mark.parametrize("tol", [0.0, 1.0, math.nan, math.inf])
def test_rejects_tolerance_outside_unit_interval(jump_weight, tol):
    with pytest.raises(ValueError):
        principal_neumann(jump_weight, tol=tol)
