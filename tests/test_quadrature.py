import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebif import ConstantForm, PolynomialForm, PowerForm, Segment, Weight, power_weight, two_constant_weight
from curvebif.quadrature import (
    ExtendedReal,
    QuadratureBudgetError,
    _inner_from_distance,
    criterion_integral,
    criterion_pair,
    integrate,
)


def test_integrate_basics():
    assert integrate(lambda x: 1.0, 0, 1) == pytest.approx(1.0)
    assert integrate(lambda x: x * x, 0, 1) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert integrate(lambda x: math.sin(x), 0, math.pi) == pytest.approx(2.0, abs=1e-9)


def test_integrate_orientation_and_empty():
    assert integrate(lambda x: x, 1, 0) == pytest.approx(-0.5)
    assert integrate(lambda x: x, 0.3, 0.3) == 0.0


def test_integrate_budget_exhaustion():
    with pytest.raises(QuadratureBudgetError):
        integrate(lambda x: abs(x - 0.3) ** -0.95, 0.0, 1.0, tol=1e-12, max_depth=8)


def test_constant_criterion_closed_form(jump_weight):
    left = criterion_integral(jump_weight, "left")
    assert not left.infinite
    assert left.value == pytest.approx(2.0 * math.sqrt(0.4), rel=1e-10)
    right = criterion_integral(jump_weight, "right")
    assert right.value == pytest.approx(2.0 * math.sqrt(0.6 / 2.0), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
def test_power_criterion_matches_adaptive(alpha):
    w = power_weight(1.0, alpha, 2.0, alpha, 0.4) if alpha > 0 else two_constant_weight(1.0, 2.0, 0.4)
    closed = criterion_integral(w, "left", method="closed")
    adaptive = criterion_integral(w, "left", method="adaptive")
    want = math.sqrt(alpha + 1.0) * 2.0 / (1.0 - alpha) * 0.4 ** ((1.0 - alpha) / 2.0)
    assert closed.value == pytest.approx(want, rel=1e-12)
    assert abs(closed.value - adaptive.value) <= 10 * 1e-6 * closed.value


@pytest.mark.parametrize("alpha,expo", [(1.0, 1.0), (1.5, 1.25), (3.0, 2.0)])
def test_divergence_certificates(alpha, expo):
    w = power_weight(1.0, alpha, 2.0, alpha, 0.4)
    got = criterion_integral(w, "left")
    assert got.infinite
    assert got.exponent == pytest.approx(expo)
    assert math.isinf(float(got))


def test_polynomial_adjacent_segment():
    w = Weight(
        0.4,
        (
            Segment(0.0, 0.4, PolynomialForm((1.0, -1.0))),  # 1 - x > 0 at the node
            Segment(0.4, 1.0, ConstantForm(-2.0)),
        ),
    )
    got = criterion_integral(w, "left")
    # inner integral from distance d: 0.6 d + d^2/2; brute force in t = sqrt(d)
    t = np.linspace(0.0, math.sqrt(0.4), 400001)
    brute = np.trapezoid(2.0 / np.sqrt(0.6 + t ** 2 / 2.0), t)
    assert got.value == pytest.approx(brute, rel=1e-7)


def test_vanishing_polynomial_is_divergent():
    w = Weight(
        0.4,
        (
            Segment(0.0, 0.4, PolynomialForm((0.4, -1.0))),  # 0.4 - x vanishes linearly
            Segment(0.4, 1.0, ConstantForm(-2.0)),
        ),
    )
    got = criterion_integral(w, "left")
    assert got.infinite and got.exponent == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.2, 50.0), alpha=st.floats(0.0, 0.8))
def test_amplitude_scaling_law(scale, alpha):
    w = power_weight(1.0, alpha, 2.0, alpha, 0.4) if alpha > 1e-3 else two_constant_weight(1.0, 2.0, 0.4)
    # a polynomial node segment takes the graded quadrature
    wp = Weight(0.4, (Segment(0.0, 0.4, PolynomialForm((1.0, -1.0, alpha))), Segment(0.4, 1.0, ConstantForm(-2.0))))
    for weight in (w, wp):
        base = criterion_integral(weight, "left").value
        scaled = criterion_integral(weight.scaled(scale), "left").value
        assert scaled == pytest.approx(base / math.sqrt(scale), rel=1e-8)


def _form(kind, side, c, e, tilt):
    sign = 1.0 if side == "left" else -1.0
    if kind == "constant":
        return ConstantForm(sign * c)
    if kind == "power":
        return PowerForm(c, e, side)
    # c + 2 outweighs the tilt terms on [0, 1], so a keeps one sign on the segment
    return PolynomialForm((sign * (c + 2.0), tilt, -tilt / 2.0))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("constant", "poly", "power")),
    side=st.sampled_from(("left", "right")),
    c=st.floats(0.1, 5.0),
    e=st.floats(-0.9, 3.0),
    tilt=st.floats(-1.0, 1.0),
    z=st.floats(0.2, 0.8),
    frac=st.floats(0.01, 1.0),
)
def test_node_terms_integrate_to_the_weight(kind, side, c, e, tilt, z, frac):
    # the node expansion's integral over the last d before the node is the
    # exact integral of a there, for every form kind on either side
    other = "right" if side == "left" else "left"
    forms = {side: _form(kind, side, c, e, tilt), other: _form("constant", other, 1.0, 0.0, 0.0)}
    w = Weight(z, (Segment(0.0, z, forms["left"]), Segment(z, 1.0, forms["right"])))
    seg = w.node_segment(side)
    d = frac * (seg.hi - seg.lo)
    exact = abs(w.integral(z - d, z) if side == "left" else w.integral(z, z + d))
    got = _inner_from_distance(seg.form.node_terms(side, z))(d)
    assert got == pytest.approx(exact, rel=1e-12)


def test_scaling_never_flips_certificate():
    w = power_weight(1.0, 1.5, 2.0, 1.5, 0.4)
    assert criterion_integral(w, "left").infinite
    assert criterion_integral(w.scaled(100.0), "left").infinite


def test_requires_sign_split(bump_f):
    w = two_constant_weight(2.0, 1.0, 0.6)  # positive mean
    with pytest.raises(ValueError):
        criterion_integral(w, "left")


def test_pair_helper(ramp_weight):
    left, right = criterion_pair(ramp_weight)
    assert left.infinite and right.infinite


def test_extended_real_serialization():
    assert ExtendedReal.finite(2.0).to_dict() == {"finite": True, "value": 2.0}
    assert ExtendedReal.diverging(1.25).to_dict() == {"finite": False, "exponent": 1.25}
