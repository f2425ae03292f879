import math

import numpy as np
import pytest

from curvebif import ConstantForm, Nonlinearity, ProblemFamily, Segment, Weight
from curvebif import eigen, two_constant_weight
from curvebif.acceptance import eigen_oracle
from curvebif.continuation import solve_lambda_at_height
from curvebif.eigen import bif_direction, principal_neumann, rayleigh_identity


def test_neumann_matches_matching_equation(jump_weight):
    pair = principal_neumann(jump_weight)
    oracle = eigen_oracle()
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


def test_refinement_invariance(jump_weight, monkeypatch):
    # halving the integrator step cap leaves the eigenvalue unchanged far
    # below the stated refinement tolerance
    a = principal_neumann(jump_weight).eigenvalue
    monkeypatch.setattr(eigen, "_MAX_STEP_FRAC", eigen._MAX_STEP_FRAC / 2.0)
    b = principal_neumann(jump_weight).eigenvalue
    assert abs(a - b) / b < 1e-7


def test_neumann_needs_a_positive_part():
    w = Weight(0.4, (Segment(0.0, 0.4, ConstantForm(0.0)), Segment(0.4, 1.0, ConstantForm(-2.0))))
    with pytest.raises(ValueError, match="positive somewhere"):
        principal_neumann(w)


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


def test_bif_direction_for_a_linear_table_head(jump_weight):
    # a table f with p = 1 is c u below its first node, here c = 1 / 0.5 = 2:
    # the branch leaves the trivial line at lam0 / c with curvature -(lam0 / c)
    # int(phi'^4) / int(phi'^2), which the traced branch's finite differences confirm
    f = Nonlinearity(kind="table", p=1.0, q=0.5, M=1.0, u_nodes=(0.5, 1.0, 2.0), f_nodes=(1.0, 1.5, 1.2))
    assert f.c == 2.0
    pair = principal_neumann(jump_weight)
    lam1, lam2 = bif_direction(f, pair)
    assert lam1 == 0.0
    lam_star = pair.eigenvalue / f.c
    fam = ProblemFamily(jump_weight, f)
    d1, d2 = (2.0 * (solve_lambda_at_height(fam, s, lam_star) - lam_star) / s ** 2 for s in (0.01, 0.02))
    fd = 2.0 * d1 - d2  # removes the next even correction term
    assert fd == pytest.approx(-5.7487, rel=1e-4)
    assert lam2 == pytest.approx(fd, rel=1e-3)


def test_bif_direction_needs_p_equal_one(jump_weight):
    pair = principal_neumann(jump_weight)
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=1.0)
    with pytest.raises(ValueError):
        bif_direction(f, pair)


def test_bracket_halves_down_to_an_eigenvalue_below_half_the_seed():
    # with a = 1 / -0.7 and z = 0.4 the seed pi^2 / sup a+ sits more than twice
    # above lam0, so the bracket's first low end is above lam0 and must halve
    w = Weight(0.4, (Segment(0.0, 0.4, ConstantForm(1.0)), Segment(0.4, 1.0, ConstantForm(-0.7))))
    lam0 = principal_neumann(w).eigenvalue
    assert lam0 < 0.5 * math.pi ** 2
    oracle = eigen_oracle(1.0, 0.7, 0.4)
    assert oracle == pytest.approx(0.35787340417089314, rel=1e-15)
    assert lam0 == pytest.approx(oracle, rel=1e-12)


def _drawn_step_weights(n, seed=20261019):
    # A on [0, z), -B on [z, 1] with B (1 - z) between 1.1 and 10 times A z
    rng = np.random.default_rng(seed)
    for _ in range(n):
        A, z, excess = (float(v) for v in (rng.uniform(0.2, 5.0), rng.uniform(0.1, 0.9), rng.uniform(1.1, 10.0)))
        yield A, A * z / (1.0 - z) * excess, z


@pytest.mark.parametrize("A,B,z", list(_drawn_step_weights(10)), ids=[f"w{i}" for i in range(10)])
def test_neumann_refines_between_exact_ends(A, B, z, monkeypatch):
    # Brent steps between exact phi'(1) values reach the matching-equation
    # root in at most 32 linear shots; bisecting the sign alone took 43-47
    shots = []
    shoot = eigen._shoot_linear

    def counted(*args, **kwargs):
        shots.append(args[1])
        return shoot(*args, **kwargs)

    monkeypatch.setattr(eigen, "_shoot_linear", counted)
    lam0 = principal_neumann(two_constant_weight(A, B, z)).eigenvalue
    assert lam0 == pytest.approx(eigen_oracle(A, B, z), rel=1e-11)
    assert len(shots) <= 32


def test_crossing_inside_an_exact_bracket_falls_back_to_bisection():
    # every shot strictly between the root 1.3 and 1.9 crosses zero, so brentq's
    # first step inside the exact bracket [1, 2] meets a crossing; bisection
    # then narrows the bracket to the relative width with a crossed upper end
    calls = []

    def value(lam):
        calls.append(lam)
        return eigen._CROSSED if 1.3 < lam < 1.9 else math.log(1.3 / lam)

    lam = eigen._bracket_and_refine(value, 1.0, 1e-12)
    assert lam == pytest.approx(1.3, rel=1e-12)
    assert any(1.3 < c < 1.9 for c in calls) and len(calls) < 60


def test_tolerance_below_float_spacing_ends(jump_weight):
    # the refinement stops once its ends are a few floats apart
    fine = principal_neumann(jump_weight, tol=1e-17).eigenvalue
    assert fine == pytest.approx(principal_neumann(jump_weight, tol=1e-12).eigenvalue, rel=1e-12)


@pytest.mark.parametrize("tol", [0.0, 1.0, math.nan, math.inf])
def test_rejects_tolerance_outside_unit_interval(jump_weight, tol):
    with pytest.raises(ValueError):
        principal_neumann(jump_weight, tol=tol)
