import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebif import (
    ConstantForm,
    Nonlinearity,
    PolynomialForm,
    ProblemInstance,
    Segment,
    TableWeight,
    Weight,
    curvature_residual,
    neumann_balance,
    power_weight,
    two_constant_weight,
)


def test_step_weight_pointwise(jump_weight):
    assert jump_weight.eval(0.2) == 1.0
    assert jump_weight.eval(0.7) == -2.0


def test_power_weight_pointwise():
    w = power_weight(1.0, 1.0, 2.0, 1.0, 0.4)
    assert w.eval(0.3) == pytest.approx(0.1)
    assert w.eval(0.9) == pytest.approx(-1.0)


def test_exact_integrals(jump_weight):
    assert jump_weight.integral(0.0, 1.0) == pytest.approx(0.4 - 1.2)
    assert jump_weight.integral(0.25, 0.25) == 0.0
    w = power_weight(1.0, 1.0, 2.0, 1.0, 0.4)
    # antiderivative of (z-x) over [0.3, 0.4]
    assert w.integral(0.3, 0.4) == pytest.approx(0.1 ** 2 / 2.0)


@settings(max_examples=40, deadline=None)
@given(
    x0=st.floats(0.0, 1.0),
    x1=st.floats(0.0, 1.0),
    xm=st.floats(0.0, 1.0),
    amp=st.floats(0.1, 5.0),
    alpha=st.floats(0.0, 0.9),
)
def test_integral_additivity(x0, x1, xm, amp, alpha):
    w = power_weight(amp, alpha, 2.0 * amp, alpha, 0.4)
    a, c = min(x0, x1), max(x0, x1)
    b = min(max(xm, a), c)
    whole = w.integral(a, c)
    split = w.integral(a, b) + w.integral(b, c)
    assert split == pytest.approx(whole, abs=1e-14, rel=1e-12)


def test_sign_split_and_admissibility(jump_weight):
    assert jump_weight.has_sign_split
    flipped = two_constant_weight(2.0, 1.0, 0.6)  # mean 1.2 - 0.4 > 0
    assert not flipped.has_sign_split


def test_node_orders(jump_weight):
    assert jump_weight.node_order("left") == (0.0, 1.0)
    assert jump_weight.node_order("right") == (0.0, -2.0)
    w = power_weight(1.0, 1.5, 2.0, 0.5, 0.4)
    assert w.node_order("left") == (1.5, 1.0)
    assert w.node_order("right") == (0.5, -2.0)
    wp = Weight(
        0.4,
        (
            Segment(0.0, 0.4, PolynomialForm((0.4, -1.0))),  # 0.4 - x, vanishes at the node
            Segment(0.4, 1.0, ConstantForm(-2.0)),
        ),
    )
    order, coeff = wp.node_order("left")
    assert order == 1.0 and coeff == pytest.approx(1.0)


def test_nonfinite_power_amplitude_raises():
    with pytest.raises(ValueError):
        power_weight(math.nan, 0.5, 2.0, 0.5, 0.4)


@settings(max_examples=60, deadline=None)
@given(ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True))
def test_spans_cover_the_interval(jump_weight, ramp_weight, ends):
    lo, hi = sorted(ends)
    for w in (jump_weight, ramp_weight):
        pieces = w.spans(lo, hi)
        # only pieces no wider than 1e-15 may be dropped: one at either end
        if not pieces:
            assert hi - lo <= 2e-15
            continue
        assert pieces[0][0] - lo <= 1e-15 and hi - pieces[-1][1] <= 1e-15
        assert all(lo <= a < b <= hi for a, b, _ in pieces)
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
        for a, b, form in pieces:
            mid = 0.5 * (a + b)
            assert form.value(mid, w.z) == w.eval(mid)


def test_spans_reach_past_the_ends(jump_weight):
    # as in eval, a mesh that overruns x = 1 by roundoff keeps its end point
    over = np.nextafter(1.0, 2.0)
    assert jump_weight.spans(0.5, over) == [(0.5, over, jump_weight.segments[-1].form)]
    assert jump_weight.spans(-1e-16, 0.3)[0][0] == -1e-16


def test_weight_json_roundtrip(jump_weight):
    blob = json.dumps(jump_weight.to_dict())
    back = Weight.from_dict(json.loads(blob))
    xs = np.linspace(0, 1, 31)
    assert np.allclose(back.eval(xs), jump_weight.eval(xs))


def test_prototype_shape():
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=1.0)
    # continuity at the peak: both branches meet at M^p
    assert f(1.0) == pytest.approx(1.0)
    assert f(1.0 + 1e-12) == pytest.approx(1.0, rel=1e-9)
    us = np.linspace(1e-4, 5.0, 400)
    vals = f(us)
    peak = np.argmax(vals)
    assert np.all(np.diff(vals[: peak + 1]) >= -1e-14)
    assert np.all(np.diff(vals[peak:]) <= 1e-14)
    # odd extension
    assert f(-0.5) == -f(0.5)


@pytest.mark.parametrize("p,q,M", [(1.0, 0.5, 1.0), (2.0, 0.3, 0.7), (0.5, 0.8, 2.0)])
def test_growth_scales(p, q, M):
    f = Nonlinearity(kind="prototype", p=p, q=q, M=M)
    for u in (1e-3, 1e-4):
        assert f(u) / u ** p == pytest.approx(1.0, rel=1e-2)
        assert f.potential(u) / u ** (p + 1) == pytest.approx(1.0 / (p + 1), rel=1e-2)
    # 1e200: the head power must not overflow where the tail takes over
    for u in (1e3, 1e4, 1e200):
        assert f(u) / u ** (-q) == pytest.approx(f.h, rel=1e-2)
        assert math.isfinite(f.potential(u))
    # the potential converges with an O(u^(q-1)) constant correction, so the
    # increment between the probes isolates the limit cleanly
    inc = (f.potential(1e4) - f.potential(1e3)) / (1e4 ** (1 - q) - 1e3 ** (1 - q))
    assert inc == pytest.approx(f.h / (1 - q), rel=1e-3)


def test_smoothed_blend_is_c1_and_unimodal():
    f = Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0)
    a, b = 0.9, 1.1
    us = np.linspace(0.5, 2.0, 2001)
    dv = np.diff(f(us))
    flips = np.sum(np.abs(np.diff(np.sign(dv[np.abs(dv) > 1e-15]))) > 0)
    assert flips == 1  # up once, down once
    # slope continuity at the blend edges
    for edge in (a, b):
        left = (f(edge) - f(edge - 1e-7)) / 1e-7
        right = (f(edge + 1e-7) - f(edge)) / 1e-7
        assert left == pytest.approx(right, rel=1e-4, abs=1e-6)


_TABLE_U = np.geomspace(0.01, 10.0, 50)

KINDS = {
    "prototype": dict(kind="prototype", p=2.0, q=0.5, M=1.0),
    "smoothed": dict(kind="smoothed", p=1.0, q=0.5, M=1.0),
    "table": dict(
        kind="table",
        p=1.0,
        q=0.5,
        M=1.0,
        u_nodes=tuple(_TABLE_U),
        f_nodes=tuple(Nonlinearity(kind="prototype", p=1.0, q=0.5, M=1.0)(_TABLE_U)),
    ),
}


def _zoomed_max(f, lo, hi):
    """Largest f on a 1001-point grid zoomed six times around its best point."""
    best = -math.inf
    for _ in range(6):
        us = np.linspace(lo, hi, 1001)
        vals = f(us)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lo, hi = us[max(i - 1, 0)], us[min(i + 1, len(us) - 1)]
    return best


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_potential_matches_quadrature(kind):
    f = Nonlinearity(**KINDS[kind])
    us = np.linspace(0.0, 3.0, 301)
    brute = np.concatenate([[0.0], np.cumsum(0.5 * (f(us)[1:] + f(us)[:-1]) * np.diff(us))])
    assert np.max(np.abs(f.potential(us) - brute)) < 5e-5
    # the sup norm bounds f on the grid and is attained up to roundoff
    assert f.sup_norm >= np.max(f(us))
    assert abs(f.sup_norm - _zoomed_max(f, 0.0, 3.0)) <= 1e-12


def test_table_nonlinearity_tails():
    grid = np.geomspace(0.01, 10.0, 50)
    proto = Nonlinearity(kind="prototype", p=1.0, q=0.5, M=1.0)
    f = Nonlinearity(kind="table", p=1.0, q=0.5, M=1.0, u_nodes=tuple(grid), f_nodes=tuple(proto(grid)))
    assert f(0.001) == pytest.approx(0.001, rel=1e-6)
    assert f(100.0) == pytest.approx(proto(100.0), rel=1e-6)
    assert f(0.5) == pytest.approx(0.5, rel=1e-3)


def test_nonlinearity_json_roundtrip():
    f = Nonlinearity(kind="smoothed", p=1.0, q=0.25, M=0.5)
    back = Nonlinearity.from_dict(json.loads(json.dumps(f.to_dict())))
    us = np.linspace(0, 2, 41)
    assert np.allclose(back(us), f(us))


def test_problem_json_schema(jump_weight, bump_f):
    pb = ProblemInstance(2.5, jump_weight, bump_f)
    d = pb.to_dict()
    assert set(d) == {"lambda", "weight", "f"}
    assert d["weight"]["z"] == 0.4
    assert d["f"]["kind"] == "prototype"
    back = ProblemInstance.from_dict(d)
    assert back.lam == 2.5


def test_residual_constant_at_lambda_zero(jump_weight, bump_f):
    pb = ProblemInstance(0.0, jump_weight, bump_f)
    xs = np.linspace(0, 1, 101)
    assert curvature_residual(pb, xs, np.full_like(xs, 0.7)) < 1e-10


def test_residual_rejects_coarse_mesh(jump_weight, bump_f):
    pb = ProblemInstance(0.0, jump_weight, bump_f)
    xs = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        curvature_residual(pb, xs, np.zeros_like(xs))


def test_balance_constant_witness(jump_weight, bump_f):
    # constants cannot solve for lam > 0: the balance integral stays negative
    pb = ProblemInstance(1.0, jump_weight, bump_f)
    xs = np.linspace(0, 1, 201)
    got = neumann_balance(pb, xs, np.full_like(xs, 0.7))
    assert got == pytest.approx(bump_f(0.7) * jump_weight.mean, rel=1e-10)
    assert got < 0


def test_dead_core_profile_residual_vanishes():
    # profile with a flat tail solves the equation when the weight is built
    # from the profile itself; the residual is pure discretization error
    from curvebif.acceptance import _dead_core_residual

    res = _dead_core_residual(1000)
    assert res < 1e-4
    assert _dead_core_residual(2000) <= 0.5 * res
