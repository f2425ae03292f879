"""The one fused kernel per law that ODE right-hand sides call agrees with the numpy paths.

Each segment form's scalar_and_slope(z) and Nonlinearity.scalar_and_slope
return (value, slope).  Their value halves are compared with form.value and
Nonlinearity.__call__ at scalar arguments: random points plus the places
where a law changes piece, and their 1-ulp neighbours.  The forms, the
middle piece of f and its head at p in {1/2, 1, 2} must agree bit for bit.
The tail h u^(-q), and the head at other p, may differ by a few ulp: the
kernel's power is libm's pow, and numpy's array power rounds differently in
the last ulp at about 5 % of points.  A power form with exponent below 0 is
unbounded at the node and has no kernel: scalar_and_slope(z) refuses.

The slope half is the derivative of the value half: it matches a
fourth-order central difference away from the breakpoints, and at a
breakpoint it is the slope of the side x or u moves into.  f's value half
does not read the rate that picks that side.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebif import ConstantForm, Nonlinearity, PolynomialForm, ProblemInstance, Segment, Weight, shoot
from curvebif.asymptotics import semilinear_positive_solution
from curvebif.eigen import _shoot_linear
from curvebif.model import PowerForm
from curvebif.shoot import integrate_path

_ULPS = 4  # allowed where the two sides take a power by different routines
_EXACT_P = (0.5, 1.0, 2.0)  # numpy's array power takes sqrt(u), u and u*u here


def _with_neighbours(points):
    out = []
    for v in points:
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return out


def _value_half(kernel, *rate):
    """The value half of a fused kernel, as a one-argument function."""
    return lambda v: kernel(v, *rate)[0]


def _ulps(got, want):
    return abs(got - want) / math.ulp(want) if want else abs(got) / math.ulp(0.0)


@st.composite
def _forms(draw):
    z = draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(("constant", "poly", "left", "right")))
    if kind == "constant":
        form = ConstantForm(draw(st.floats(-10.0, 10.0)))
    elif kind == "poly":
        form = PolynomialForm(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5)))
    else:
        exponent = draw(st.floats(0.0, 3.0))
        form = PowerForm(draw(st.floats(0.01, 10.0)), exponent, kind)
    return form, z


@settings(max_examples=150, deadline=None)
@given(fz=_forms(), xs=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
def test_form_kernels_match_value_bit_for_bit(fz, xs):
    form, z = fz
    a = _value_half(form.scalar_and_slope(z))
    for x in _with_neighbours([0.0, 1.0, z, *xs]):
        assert a(x) == form.value(x, z), (form, z, x)


@settings(max_examples=40, deadline=None)
@given(
    amplitude=st.floats(0.01, 10.0),
    exponent=st.floats(-1.0, -1e-12, exclude_min=True),
    side=st.sampled_from(("left", "right")),
    z=st.floats(0.05, 0.95),
)
def test_an_unbounded_power_form_refuses_its_kernel(amplitude, exponent, side, z):
    # a is infinite at the node, so no shot can cross it: the kernel that
    # every shot compiles refuses, naming the exponent
    with pytest.raises(ValueError, match=re.escape(f"exponent {exponent:g} < 0")):
        PowerForm(amplitude, exponent, side).scalar_and_slope(z)


@st.composite
def _nonlinearities(draw, p=st.one_of(st.sampled_from(_EXACT_P), st.floats(0.2, 3.0))):
    kind = draw(st.sampled_from(("prototype", "smoothed", "table")))
    p = draw(p)
    q = draw(st.floats(0.05, 0.95))
    M = draw(st.floats(0.01, 10.0))
    if kind == "prototype":
        return Nonlinearity(kind, p, q, M)
    if kind == "smoothed":
        return Nonlinearity(kind, p, q, M, delta=M * draw(st.floats(0.05, 0.95)))
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=2, max_size=8))
    u_nodes = [draw(st.floats(0.01, 2.0))]
    for g in gaps:
        u_nodes.append(u_nodes[-1] + g)
    f_nodes = draw(st.lists(st.floats(0.01, 5.0), min_size=len(u_nodes), max_size=len(u_nodes)))
    return Nonlinearity(kind, p, q, M, u_nodes=tuple(u_nodes), f_nodes=tuple(f_nodes))


@settings(max_examples=150, deadline=None)
@given(f=_nonlinearities(), scale=st.lists(st.floats(0.0, 3.0), min_size=20, max_size=20))
def test_nonlinearity_kernel_matches_call(f, scale):
    a, b, *_ = f._law
    a, b = float(a), float(b)
    special = [0.0, a, b, f.M, *(f.u_nodes or ())]
    points = _with_neighbours(special + [s * b for s in scale])
    kernel = _value_half(f.scalar_and_slope, 0.0)
    for u in points + [-u for u in points]:
        got, want = kernel(u), f(u)
        if abs(u) > b:
            assert _ulps(got, want) <= _ULPS, ("tail", f, u, got, want)
        elif f.kind != "prototype" and abs(u) >= a:
            assert got == want, ("middle", f, u, got, want)
        elif f.p in _EXACT_P:
            assert got == want, ("head", f, u, got, want)
        else:
            assert _ulps(got, want) <= _ULPS, ("head", f, u, got, want)


@pytest.mark.parametrize("p", _EXACT_P)
def test_head_power_rounds_as_numpy_at_exact_p(p):
    # libm's pow(u, 2) and pow(u, 0.5) differ from u*u and sqrt(u) at under
    # 0.1 % of points, too rare for the random draws above to meet reliably
    f = Nonlinearity("prototype", p, 0.5, 4.0)
    us = np.linspace(0.0, f.M, 20001)
    kernel = _value_half(f.scalar_and_slope, 0.0)
    assert [kernel(u) for u in us.tolist()] == f(us).tolist()


def test_shots_call_no_numpy_path(monkeypatch):
    # the shooting right-hand sides call form.scalar_and_slope(z) and
    # f.scalar_and_slope; form.value and f(u) are for meshes, residuals and
    # quadrature
    w = Weight(
        0.5,
        (
            Segment(0.0, 0.25, ConstantForm(1.0)),
            Segment(0.25, 0.5, PolynomialForm((2.0, -4.0))),
            Segment(0.5, 1.0, PowerForm(3.0, 0.5, "right")),
        ),
    )
    f = Nonlinearity("smoothed", 1.0, 0.5, 0.5, delta=0.2)
    pb = ProblemInstance(20.0, w, f)

    def refuse(*args, **kwargs):
        raise AssertionError("a right-hand side called a numpy path")

    for cls in (ConstantForm, PolynomialForm, PowerForm):
        monkeypatch.setattr(cls, "value", refuse)
    monkeypatch.setattr(Nonlinearity, "__call__", refuse)
    for collect in (None, shoot._SHOOT_MESH):
        assert integrate_path(pb, 0.6, collect=collect).nfev > 0
    assert shoot._march_partials(pb, 0.0, 0.6, 0.0, 1.0).nfev > 0
    phi, *_ = _shoot_linear(w, 5.0)
    assert math.isfinite(phi)
    assert semilinear_positive_solution(w, 2.0) > 0.0


_GAP = 1e-4  # how far from a breakpoint a slope is checked against differences


def _difference(fn, x, h):
    """The fourth-order central difference of fn at x, and the roundoff it can carry."""
    ends = [fn(x + k * h) for k in (-2.0, -1.0, 1.0, 2.0)]
    slope = (ends[0] - 8.0 * ends[1] + 8.0 * ends[2] - ends[3]) / (12.0 * h)
    return slope, 4.0 * math.ulp(max(map(abs, ends))) / h


@settings(max_examples=150, deadline=None)
@given(fz=_forms(), xs=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
def test_form_slope_kernels_are_exact_derivatives(fz, xs):
    form, z = fz
    pair = form.scalar_and_slope(z)
    a = _value_half(pair)
    for x in _with_neighbours([0.0, 1.0, z, *xs]):
        value, slope = pair(x)
        assert value == form.value(x, z), (form, z, x)
        assert math.isfinite(slope), (form, z, x)
    for x in xs:
        if form.kind == "power" and abs(x - z) < _GAP:
            continue
        want, noise = _difference(a, x, 1e-6)
        assert abs(pair(x)[1] - want) <= 1e-7 * abs(want) + noise, (form, z, x)


@settings(max_examples=150, deadline=None)
@given(f=_nonlinearities(p=st.sampled_from(_EXACT_P)), scale=st.lists(st.floats(0.0, 3.0), min_size=20, max_size=20))
def test_nonlinearity_slope_kernel_is_the_exact_derivative(f, scale):
    a, b, *_ = f._law
    breaks = [0.0, float(a), float(b), *(f.u_nodes or ())]
    pair = f.scalar_and_slope
    kernel = _value_half(pair, 0.0)
    points = _with_neighbours(breaks + [s * float(b) for s in scale])
    for u in points + [-u for u in points]:
        for rate in (-1.0, 0.0, 1.0):
            value, slope = pair(u, rate)
            assert value == kernel(u), (f, u, rate)
            assert not math.isnan(slope), (f, u, rate)
    for u in [s * float(b) for s in scale]:
        if min(abs(u - v) for v in breaks) < _GAP:
            continue
        want, noise = _difference(kernel, u, min(1e-6 * u, _GAP / 4.0))
        for v, w in ((u, want), (-u, want)):  # f' is even
            assert abs(pair(v, 1.0)[1] - w) <= 1e-7 * abs(w) + noise, (f, v)


def test_f_slope_takes_the_side_u_moves_into():
    # the prototype's kink at M: the head's p M^(p-1) below, the tail's -q M^(p-1) above
    f = Nonlinearity("prototype", 2.0, 0.5, 1.5)
    pair = f.scalar_and_slope
    assert pair(1.5, -1.0)[1] == pytest.approx(2.0 * 1.5)
    assert pair(1.5, 1.0)[1] == pytest.approx(-0.5 * 1.5)
    assert pair(1.5, 0.0)[1] == pair(1.5, -1.0)[1]  # u at rest: the side below
    # on the odd extension, |u| rises when u falls
    assert pair(-1.5, -1.0)[1] == pair(1.5, 1.0)[1]
    assert pair(-1.5, 1.0)[1] == pair(1.5, -1.0)[1]
    # a table: the head's slope below its first node, each cell's own, the tail's above its last
    t = Nonlinearity("table", 1.0, 0.5, 1.0, u_nodes=(0.2, 0.4, 0.8), f_nodes=(0.2, 0.6, 0.4))
    pair = t.scalar_and_slope
    assert pair(0.2, -1.0)[1] == pytest.approx(1.0)
    assert pair(0.2, 1.0)[1] == pytest.approx(2.0)
    assert pair(0.4, -1.0)[1] == pytest.approx(2.0)
    assert pair(0.4, 1.0)[1] == pytest.approx(-0.5)
    assert pair(0.8, -1.0)[1] == pytest.approx(-0.5)
    assert pair(0.8, 1.0)[1] == pytest.approx(-0.5 * 0.4 / 0.8)


@pytest.mark.parametrize("p, slope", [(0.5, math.inf), (1.0, 1.0), (2.0, 0.0)])
def test_f_slope_at_zero_never_raises(p, slope):
    # f' is infinite at u = 0 for p < 1: the kernel returns inf, where a
    # Python power or division would raise
    for kind in ("prototype", "smoothed"):
        assert Nonlinearity(kind, p, 0.5, 1.0).scalar_and_slope(0.0, 1.0) == (0.0, slope)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0])
def test_a_whole_exponent_continues_its_polynomial_past_the_node(exponent, side):
    # on all of [0, 1], past the node included, the value half is value's
    # bit for bit, and the slope half is the polynomial's, on the node too
    z = 0.4
    form = PowerForm(3.0, exponent, side)
    kernel = form.scalar_and_slope(z)
    k, dd = form.sign * 3.0, (-1.0 if side == "left" else 1.0)  # the coefficient and dd/dx
    for x in _with_neighbours([*np.linspace(0.0, 1.0, 201).tolist(), z]):
        value, slope = kernel(x)
        assert value == form.value(x, z), x
        assert slope == pytest.approx(dd * k * exponent * (dd * (x - z)) ** (exponent - 1.0), rel=1e-14, abs=0.0), x
    assert kernel(z)[1] == (dd * k if exponent == 1.0 else 0.0)


@pytest.mark.parametrize("exponent", [0.0, 1e-12, 0.3, 0.5, 1.0, 1.5])
def test_power_slope_at_the_node_is_finite_and_never_raises(exponent):
    z, tiny = 0.4, 5e-324
    left = PowerForm(3.0, exponent, "left").scalar_and_slope(z)
    right = PowerForm(3.0, exponent, "right").scalar_and_slope(z)
    if exponent == 1.0:
        # a whole exponent continues the line k d past the node: slope -k on the node and beyond it
        assert left(z)[1] == -3.0 and left(z + 0.1)[1] == pytest.approx(-3.0, rel=1e-15)
    else:
        # past the node and on it a clipped or constant left form is the constant k 0^e: slope 0
        assert left(z)[1] == 0.0 and left(z + 0.1)[1] == 0.0
    # the right form enters d > 0: k e 0^(e - 1) where finite (e >= 1), else 0
    assert right(z)[1] == (-3.0 if exponent == 1.0 else 0.0)
    for x in (z - tiny, z + tiny, math.nextafter(z, 0.0), math.nextafter(z, 1.0)):
        for kernel in (left, right):
            _, slope = kernel(x)
            assert not math.isnan(slope)
    if exponent == 0.0:
        # an exponent of exactly 0 is a constant, slope 0 everywhere
        assert {left(x)[1] for x in (0.0, 0.2, z - tiny)} == {0.0}
