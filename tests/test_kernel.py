"""The plain-float kernels that ODE right-hand sides call agree with the numpy paths.

Each segment form's scalar(z) and Nonlinearity.scalar are compared with
form.value and Nonlinearity.__call__ at scalar arguments: random points plus
the places where a law changes piece, and their 1-ulp neighbours.  The forms,
the middle piece of f and its head at p in {1/2, 1, 2} must agree bit for
bit.  The tail h u^(-q), and the head at other p, may differ by a few ulp:
the kernel's power is libm's pow, and numpy's array power rounds differently
in the last ulp at about 5 % of points.  A power form with exponent
below 0 is unbounded at the node and has no kernel: scalar(z) refuses.
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
    a = form.scalar(z)
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
        PowerForm(amplitude, exponent, side).scalar(z)


@st.composite
def _nonlinearities(draw):
    kind = draw(st.sampled_from(("prototype", "smoothed", "table")))
    p = draw(st.one_of(st.sampled_from(_EXACT_P), st.floats(0.2, 3.0)))
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
    kernel = f.scalar
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
    assert [f.scalar(u) for u in us.tolist()] == f(us).tolist()


def test_shots_call_no_numpy_path(monkeypatch):
    # the shooting right-hand sides call form.scalar(z) and f.scalar;
    # form.value and f(u) are for meshes, residuals and quadrature
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
    phi, *_ = _shoot_linear(w, 5.0)
    assert math.isfinite(phi)
    assert semilinear_positive_solution(w, 2.0) > 0.0
