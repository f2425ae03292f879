import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebif import ConstantForm, PolynomialForm, PowerForm, Segment, Weight, power_weight, two_constant_weight
from curvebif import quadrature
from curvebif.quadrature import ExtendedReal, _inner_from_distance, criterion_integral


def test_constant_criterion_closed_form(jump_weight):
    left = criterion_integral(jump_weight, "left")
    assert not left.infinite
    assert left.value == pytest.approx(2.0 * math.sqrt(0.4), rel=1e-10)
    right = criterion_integral(jump_weight, "right")
    assert right.value == pytest.approx(2.0 * math.sqrt(0.6 / 2.0), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9, -0.5, -0.9])
def test_power_criterion_matches_adaptive(alpha):
    # the QAWS rule against the one-term closed form, also for a weight that
    # blows up at the node (alpha < 0: weight exponent above -1/2)
    w = power_weight(1.0, alpha, 2.0, alpha, 0.4) if alpha != 0 else two_constant_weight(1.0, 2.0, 0.4)
    got = criterion_integral(w, "left")
    want = math.sqrt(alpha + 1.0) * 2.0 / (1.0 - alpha) * 0.4 ** ((1.0 - alpha) / 2.0)
    assert got.value == pytest.approx(want, rel=1e-12)


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
    left, right = (criterion_integral(ramp_weight, side) for side in ("left", "right"))
    assert left.infinite and right.infinite


def _step_weight(z, left, right):
    """Piecewise-constant weight: (width, |a|) pairs outward from the node on each side."""
    segs, x = [], z
    for width, c in left:
        segs.insert(0, Segment(x - width, x, ConstantForm(c)))
        x -= width
    x = z
    for width, c in right:
        segs.append(Segment(x, x + width, ConstantForm(-c)))
        x += width
    return Weight(z, tuple(segs))


def _exact_steps(pieces):
    # on a constant piece the inner integral runs linearly from A to B, so
    # the piece contributes 2 (sqrt(B) - sqrt(A)) / c
    total, inner = 0.0, 0.0
    for width, c in pieces:
        total += 2.0 * (math.sqrt(inner + c * width) - math.sqrt(inner)) / c
        inner += c * width
    return total


@pytest.mark.parametrize(
    "z,left,right",
    [
        (0.5, ((0.15, 1.0), (0.15, 1.5), (0.2, 3.0)), ((0.1, 4.0), (0.2, 0.5), (0.2, 6.0))),
        (0.3, ((0.1, 2.0), (0.05, 0.2), (0.15, 7.0)), ((0.3, 1.0), (0.1, 9.0), (0.2, 0.3), (0.1, 5.0))),
        (0.7, ((0.2, 0.1), (0.3, 2.5), (0.1, 0.4), (0.1, 1.0)), ((0.1, 3.0), (0.1, 0.7), (0.1, 8.0))),
    ],
    ids=["3-3", "3-4", "4-3"],
)
def test_far_segments_match_piecewise_sum(z, left, right):
    w = _step_weight(z, left, right)
    for side, pieces in (("left", left), ("right", right)):
        want = _exact_steps(pieces)
        assert criterion_integral(w, side).value == pytest.approx(want, rel=1e-12)


def test_failed_quadrature_is_an_error(monkeypatch, jump_weight):
    def failing(*args, **kwargs):
        return 0.0, 1.0, {}, "The maximum number of subdivisions (200) has been achieved."

    monkeypatch.setattr(quadrature, "quad", failing)
    with pytest.raises(ValueError, match="right criterion integral failed"):
        criterion_integral(jump_weight, "right")


def test_extended_real_serialization():
    assert ExtendedReal.finite(2.0).to_dict() == {"finite": True, "value": 2.0}
    assert ExtendedReal.diverging(1.25).to_dict() == {"finite": False, "exponent": 1.25}
