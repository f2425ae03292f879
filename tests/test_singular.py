import math

import numpy as np
import pytest

from curvebif import Nonlinearity, ProblemInstance, power_weight
from curvebif.singular import Absent, SingularSolution, Witness, classify, smallness_guard, solve_singular


def test_smallness_guard_arithmetic(jump_weight, bump_f):
    # ||a||_1 = 1.6, ||f|| = 1: the bound lam * 1.6 < 1
    assert smallness_guard(ProblemInstance(0.0, jump_weight, bump_f))
    assert smallness_guard(ProblemInstance(0.5, jump_weight, bump_f))
    assert not smallness_guard(ProblemInstance(10.0, jump_weight, bump_f))


def test_guard_example_p2(jump_weight):
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=1.0)
    pb = ProblemInstance(0.5, jump_weight, f)
    assert pb.f.sup_norm * pb.weight.abs_integral * pb.lam == pytest.approx(0.8)
    assert smallness_guard(pb)


def test_classify_smallness(jump_weight, bump_f):
    v = classify(ProblemInstance(0.5, jump_weight, bump_f))
    assert v.tag == "RegularBySmallness"
    assert v.guard == pytest.approx(0.8)


def test_classify_criterion_divergence(bump_f):
    w = power_weight(1.0, 1.0, 2.0, 1.0, 0.4)
    v = classify(ProblemInstance(50.0, w, bump_f))
    assert v.tag == "RegularByCriterion"
    assert v.i_left.infinite or v.i_right.infinite


def test_classify_inconclusive_without_trace(jump_weight, bump_f):
    v = classify(ProblemInstance(50.0, jump_weight, bump_f))
    assert v.tag == "Inconclusive"
    assert v.witness is None
    assert not v.i_left.infinite and not v.i_right.infinite


def test_classify_lambda_independence(jump_weight, bump_f):
    # above the smallness window the criterion part depends on the weight only
    a = classify(ProblemInstance(10.0, jump_weight, bump_f))
    b = classify(ProblemInstance(500.0, jump_weight, bump_f))
    assert a.tag == b.tag == "Inconclusive"
    assert a.i_left.value == pytest.approx(b.i_left.value)
    assert a.i_right.value == pytest.approx(b.i_right.value)


def test_jump_solution_structure(jump_solution_50):
    pb, sing = jump_solution_50
    assert isinstance(sing, SingularSolution)
    assert sing.jump > 0
    assert abs(sing.flux_left - 1.0) <= 1e-6
    assert abs(sing.flux_right - 1.0) <= 1e-6
    assert sing.residual_left <= 1e-5 and sing.residual_right <= 1e-5
    # monotone decreasing pieces; concave left, convex right
    assert np.all(np.diff(sing.us_left) <= 1e-12)
    assert np.all(np.diff(sing.us_right) <= 1e-12)
    assert np.all(np.diff(sing.dus_left) <= 1e-6)
    assert np.all(np.diff(sing.dus_right) >= -1e-6)
    # node height law for step weights: F(u(z+)) - F(u(1)) = 1/(lam B)
    F = pb.f.potential
    assert F(sing.us_right[0]) - F(sing.us_right[-1]) == pytest.approx(1.0 / (pb.lam * 2.0), rel=1e-6)


def test_jump_certification(jump_solution_50):
    pb, sing = jump_solution_50
    v = classify(pb, sing)
    assert v.tag == "JumpCertified"
    assert isinstance(v.witness, Witness)
    w = v.witness
    assert w.x1 < 0.4 < w.x2
    assert w.integral <= 0.99 * w.drop


def test_classify_needs_both_sides_of_the_node(jump_weight, bump_f):
    from types import SimpleNamespace

    xs = np.linspace(0.0, 0.3, 100)
    with pytest.raises(ValueError):
        classify(ProblemInstance(50.0, jump_weight, bump_f), SimpleNamespace(xs=xs, us=np.ones_like(xs)))


def test_refusals(jump_weight, bump_f):
    small = solve_singular(ProblemInstance(0.5, jump_weight, bump_f))
    assert isinstance(small, Absent) and small.reason == "smallness"
    w = power_weight(1.0, 1.0, 2.0, 1.0, 0.4)
    forbidden = solve_singular(ProblemInstance(50.0, w, bump_f))
    assert isinstance(forbidden, Absent) and forbidden.reason == "regular-by-criterion"


def test_solver_refuses_negative_lambda(jump_weight, bump_f):
    with pytest.raises(ValueError):
        solve_singular(ProblemInstance(-2.0, jump_weight, bump_f))


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_solvers_refuse_nonfinite_lambda(jump_weight, bump_f, lam):
    from curvebif.shoot import find_regular

    pb = ProblemInstance(lam, jump_weight, bump_f)
    with pytest.raises(ValueError):
        solve_singular(pb)
    with pytest.raises(ValueError):
        find_regular(pb)


def test_serialization(jump_solution_50):
    _, sing = jump_solution_50
    d = sing.to_dict()
    assert d["kind"] == "singular"
    assert d["jump"] == pytest.approx(sing.jump)
    assert {"lambda", "mesh", "residual", "flux_left", "flux_right"} <= set(d)


def test_piece_values_scale_with_lambda(jump_weight, bump_f):
    # plateau height of the left piece follows (lam h int_0^z a)^(1/q)
    for lam, want in ((50.0, 400.0), (200.0, 6400.0)):
        sing = solve_singular(ProblemInstance(lam, jump_weight, bump_f))
        assert isinstance(sing, SingularSolution)
        assert sing.us_left[0] == pytest.approx(want, rel=2e-3)


@pytest.mark.parametrize("lead, rel", [(0.0, 1e-9), (6e-10, 1e-4)], ids=["at-node", "right-piece-leads"])
def test_witness_matches_closed_form(jump_weight, bump_f, lead, rel):
    # constant pieces make H linear in the distance d from the node, so the
    # sqrt-graded rule integrates H^(-1/2) exactly; real right pieces may
    # start a hair before z, which the second case mimics
    from curvebif.singular import _find_witness

    lam, z, ul, ur = 50.0, 0.4, 0.9, 0.01
    xl, xr = np.linspace(0.0, z, 200001), np.linspace(z, 1.0, 300001)
    xr[0] -= lead
    sing = SingularSolution(
        lam=lam,
        xs_left=xl,
        us_left=np.full_like(xl, ul),
        dus_left=np.zeros_like(xl),
        xs_right=xr,
        us_right=np.full_like(xr, ur),
        dus_right=np.zeros_like(xr),
        jump=ul - ur,
        flux_left=1.0,
        flux_right=1.0,
        residual_left=0.0,
        residual_right=0.0,
    )
    w = _find_witness(ProblemInstance(lam, jump_weight, bump_f), sing)
    off = 0.1
    assert w is not None
    assert (w.x1, w.x2) == pytest.approx((z - off, z + off), abs=1e-15)
    assert w.drop == pytest.approx(ul - ur, rel=1e-12)
    want = 2.0 * math.sqrt(off / (lam * 1.0 * ul)) + 2.0 * math.sqrt(off / (lam * 2.0 * ur))
    assert want == pytest.approx(0.72673644, rel=1e-8)
    assert w.integral == pytest.approx(want, rel=rel)
