import math
import tracemalloc

import numpy as np
import pytest

from curvebif import ConstantForm, Nonlinearity, ProblemInstance, Segment, Weight, acceptance, power_weight, singular
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


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_classify_refuses_a_lambda_no_solver_accepts(jump_weight, bump_f, lam):
    # -1 passed the smallness bound as RegularBySmallness, nan and inf fell through to Inconclusive
    with pytest.raises(ValueError, match="finite lam >= 0 only"):
        classify(ProblemInstance(lam, jump_weight, bump_f))


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


@pytest.mark.parametrize("producer", [acceptance.singular_50, acceptance.singular_1e3], ids=["lam=50", "lam=1e3"])
def test_witness_integral_reads_each_pieces_flux(producer):
    # H, the witness's cumulative lam |int_x^z a f(u)|, read at a side's
    # outer end is that side's whole flux budget
    pb, sing = producer()
    (_, _, H_left), (_, _, H_right) = singular._trace_sides(pb, sing)
    assert H_left[-1] == pytest.approx(sing.flux_left, abs=1e-6)
    assert H_right[-1] == pytest.approx(sing.flux_right, abs=1e-6)


def test_every_jump_solution_of_criterion_10_closes_its_budgets():
    sols = [acceptance.singular_50()[1], acceptance.singular_1e3()[1], *acceptance.rates_family()[1]]
    jumps = [s for s in sols if isinstance(s, SingularSolution)]
    assert len(jumps) >= 3
    for s in jumps:
        assert abs(s.flux_left - 1.0) <= 1e-6 and abs(s.flux_right - 1.0) <= 1e-6, s.lam


def test_jump_certification(jump_solution_50):
    pb, sing = jump_solution_50
    v = classify(pb, sing)
    assert v.tag == "JumpCertified"
    assert isinstance(v.witness, Witness)
    w = v.witness
    assert w.x1 < 0.4 < w.x2
    assert w.integral <= 0.99 * w.drop


def test_classify_needs_both_sides_of_the_node(jump_weight, bump_f):
    from curvebif.shoot import RegularSolution

    xs = np.linspace(0.0, 0.3, 100)
    short = RegularSolution(50.0, xs, np.ones_like(xs), np.zeros_like(xs), residual=0.0, balance=0.0, theta_end=0.0)
    with pytest.raises(ValueError):
        classify(ProblemInstance(50.0, jump_weight, bump_f), short)


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


def test_pieces_hold_a_lean_mesh(jump_solution_50):
    # an angle step of 3e-5 stores about 52-55k points per piece, and the
    # centred-difference residual still resolves the steep layer
    _, sing = jump_solution_50
    for xs, us, dus in sing.pieces:
        assert len(xs) == len(us) == len(dus) < 60_000
    assert sing.residual_left <= 1e-5 and sing.residual_right <= 1e-5


def test_jump_solve_and_classify_peak_memory(jump_solution_50):
    pb, _ = jump_solution_50
    tracemalloc.start()
    try:
        sing = solve_singular(pb)
        classify(pb, sing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_serialization(jump_solution_50):
    _, sing = jump_solution_50
    d = sing.to_dict()
    assert d["kind"] == "singular"
    assert d["jump"] == pytest.approx(sing.jump)
    assert {"lambda", "mesh", "residual", "flux_left", "flux_right"} <= set(d)


def test_large_lambda_right_piece_sits_below_the_old_floor(jump_weight, bump_f):
    # the right piece's outer height, about 0.0075 exp(-sqrt(lam 0.72)), is
    # 1.1e-66 here: a fixed walk floor of 1e-60 missed it and kept a bracket
    # on f's decaying side, which gave inadmissible-jump
    sing = solve_singular(ProblemInstance(3e4, jump_weight, bump_f))
    assert isinstance(sing, SingularSolution)
    assert 1e-67 < sing.us_right[-1] < 1e-65
    assert abs(sing.flux_left - 1.0) <= 1e-6 and abs(sing.flux_right - 1.0) <= 1e-6
    assert sing.residual <= 1e-5


def test_very_large_lambda_keeps_the_flux_and_residual_gates(jump_weight, bump_f):
    # at lam = 3e5 the right piece decays across an outer layer about
    # (2 lam)^(-1/2) = 1.3e-3 wide, which the piece mesh's x step must resolve
    # for criterion 7's flux gate; criterion 10's residual gate holds as well
    sing = solve_singular(ProblemInstance(3e5, jump_weight, bump_f))
    assert isinstance(sing, SingularSolution)
    assert abs(sing.flux_left - 1.0) <= 1e-6 and abs(sing.flux_right - 1.0) <= 1e-6
    assert sing.residual <= 1e-5


def test_no_left_piece_below_the_jump_regime(jump_weight, bump_f):
    # at lam = 2.6 the guard and the criterion leave the question open, but
    # no left height closes its flux budget
    got = solve_singular(ProblemInstance(2.6, jump_weight, bump_f))
    assert got == Absent("no-left-piece", "no height closes the left flux budget")



def test_no_right_piece_is_refused(jump_weight, bump_f, monkeypatch):
    # no natural input is known to reach this refusal, so the right walk is
    # made to find no height while the left one finds its own
    solve_piece = singular._solve_piece
    sides = []

    def left_only(pb, side, *, n_scan):
        sides.append(side)
        return solve_piece(pb, side, n_scan=n_scan) if side == "left" else None

    monkeypatch.setattr(singular, "_solve_piece", left_only)
    got = solve_singular(ProblemInstance(50.0, jump_weight, bump_f))
    assert got == Absent("no-right-piece", "no height closes the right flux budget")
    assert sides == ["left", "right"]

@pytest.mark.parametrize("lam", [1e6, 1e200])
def test_lambda_past_the_float_range_refuses_before_shooting(jump_weight, bump_f, lam, monkeypatch):
    # at 1e6 the right floor is exp(-849) below 1e-10; at 1e200 the left budget height overflows
    def no_shot(*args, **kwargs):
        raise AssertionError("a refusal must come before the first shot")

    monkeypatch.setattr(singular, "_march", no_shot)
    got = solve_singular(ProblemInstance(lam, jump_weight, bump_f))
    assert isinstance(got, Absent) and got.reason == "float-range"


def test_piece_values_scale_with_lambda(jump_weight, bump_f):
    # plateau height of the left piece follows (lam h int_0^z a)^(1/q)
    for lam, want in ((50.0, 400.0), (200.0, 6400.0)):
        sing = solve_singular(ProblemInstance(lam, jump_weight, bump_f))
        assert isinstance(sing, SingularSolution)
        assert sing.us_left[0] == pytest.approx(want, rel=2e-3)


def test_pieces_stop_their_height_walks_at_the_kept_bracket(jump_weight, bump_f, monkeypatch):
    # each piece walks its 96 heights toward the bracket it keeps, bisects
    # past the settled heights before it and shoots none beyond it, then
    # refines its exact values to the root by brentq: 32 shots here, where
    # bisecting gap-bounded brackets took 66, the plain walks 154 and full
    # scans 242
    shots = []
    march = singular._march

    def counting(*args, **kwargs):
        if kwargs["collect"] is None:
            shots.append(args[2])
        return march(*args, **kwargs)

    monkeypatch.setattr(singular, "_march", counting)
    sing = solve_singular(ProblemInstance(50.0, jump_weight, bump_f))
    assert isinstance(sing, SingularSolution)
    assert len(shots) <= 45
    # the full grids hold one left bracket, [393.8, 547.6], and two right
    # ones, [1.1e-4, 5.6e-4] and [1.13e3, 5.67e3]: the right piece keeps the lower
    assert 393.8 < sing.us_left[0] < 547.61
    assert 1.1e-4 < sing.us_right[-1] < 5.6e-4


def test_piece_roots_take_at_most_32_piece_values(jump_weight, bump_f, monkeypatch):
    # both walks and both refinements at lam = 50, counted per classifier
    # call: brentq between exact ends takes 32
    calls = []
    piece_value = singular._piece_value

    def counting(pb, height, side):
        calls.append((height, side))
        return piece_value(pb, height, side)

    monkeypatch.setattr(singular, "_piece_value", counting)
    assert isinstance(solve_singular(ProblemInstance(50.0, jump_weight, bump_f)), SingularSolution)
    assert len(calls) <= 32


@pytest.mark.parametrize(
    "lam, s_left, s_right",
    [
        (20.0, 64.08586975786642, 0.006568763155160246),
        (50.0, 400.0858452769828, 0.00045725139334876994),
        (100.0, 1600.0858407914418, 2.6932999234395973e-05),
    ],
)
def test_interpolated_piece_heights_keep_the_bisected_ones(jump_weight, bump_f, lam, s_left, s_right):
    # the heights geometric bisection of gap-bounded brackets kept, pinned:
    # brentq on the exact gaps lands within the root tolerance of them
    sing = solve_singular(ProblemInstance(lam, jump_weight, bump_f))
    assert isinstance(sing, SingularSolution)
    assert sing.us_left[0] == pytest.approx(s_left, rel=1e-7)
    assert sing.us_right[-1] == pytest.approx(s_right, rel=1e-7)
    assert abs(sing.flux_left - 1.0) <= 1e-6 and abs(sing.flux_right - 1.0) <= 1e-6


def test_settled_heights_keep_the_plain_walks_bracket(jump_weight, monkeypatch):
    # skipping a piece's settled heights must keep the first bracket of the
    # plain walk, and so the height its refinement keeps; shots are shared
    # between the two walks, so the plain one costs only the skipped heights
    power = power_weight(1.0, 0.5, 2.0, 0.5, 0.4)
    table = Nonlinearity(kind="table", p=2.0, u_nodes=(0.5, 1.0, 2.0), f_nodes=(0.25, 0.9, 0.8))
    cases = [
        (jump_weight, Nonlinearity(p=0.5), 8.0),
        (jump_weight, Nonlinearity(p=1.0), 60.0),
        (jump_weight, Nonlinearity(p=2.0), 20.0),
        (jump_weight, Nonlinearity(kind="smoothed", p=1.0), 60.0),
        (jump_weight, table, 8.0),
        (power, Nonlinearity(p=2.0), 60.0),
        (power, Nonlinearity(kind="smoothed", p=1.0), 8.0),
    ]
    piece_value = singular._piece_value
    plain_scan = singular.scan_brackets
    shots = {}  # (height, side) -> classifier result, for the current problem

    def shared(pb, height, side):
        if (height, side) not in shots:
            shots[height, side] = piece_value(pb, height, side)
        return shots[height, side]

    monkeypatch.setattr(singular, "_piece_value", shared)
    skipped = 0
    for weight, f, lam in cases:
        pb = ProblemInstance(lam, weight, f)
        shots.clear()
        for side in ("left", "right"):
            kept = singular._solve_piece(pb, side, n_scan=24)
            n_shots = len(shots)
            with monkeypatch.context() as m:
                m.setattr(singular, "scan_brackets", lambda value, start, stop, n, settled: plain_scan(value, start, stop, n))
                assert singular._solve_piece(pb, side, n_scan=24) == kept
            skipped += len(shots) - n_shots
    assert skipped >= 100


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


def _one_piece_trace(lam, z, ul, ur):
    """The constant-u jump trace as one RegularSolution: uniform, 200 000 cells left of z, the node point on the right."""
    from curvebif.shoot import RegularSolution

    xs = np.concatenate([np.linspace(0.0, z, 200001)[:-1], np.linspace(z, 1.0, 300001)])
    us = np.where(xs < z, ul, ur)
    return RegularSolution(lam, xs, us, np.zeros_like(xs), residual=0.0, balance=0.0, theta_end=0.0)


def test_witness_splits_a_one_piece_solution_at_the_node(jump_weight, bump_f):
    # the closed-form trace above as one piece: the split gives the left
    # side a node point of its own, so its half integrates the strip next
    # to z as well, and the sqrt-graded rule is exact again
    lam, z, ul, ur = 50.0, 0.4, 0.9, 0.01
    v = classify(ProblemInstance(lam, jump_weight, bump_f), _one_piece_trace(lam, z, ul, ur))
    assert v.tag == "JumpCertified"
    assert (v.witness.x1, v.witness.x2) == pytest.approx((z - 0.1, z + 0.1), abs=1e-15)
    assert v.witness.drop == pytest.approx(ul - ur, rel=1e-12)
    want = 2.0 * math.sqrt(0.1 / (lam * 1.0 * ul)) + 2.0 * math.sqrt(0.1 / (lam * 2.0 * ur))
    assert v.witness.integral == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
def test_one_piece_witness_follows_the_node_law(alpha):
    # on a = k d^alpha the strip [0, d0] next to the node carries
    # (d0/off)^((1-alpha)/2) of a half, 9 % at alpha = 0.9 with d0 = 2e-6:
    # a left side that started one mesh step before z read that much low
    lam, z, ul, ur = 50.0, 0.4, 40.0, 0.01
    f = Nonlinearity()
    pb = ProblemInstance(lam, power_weight(1.0, alpha, 2.0, alpha, z), f)
    w = singular._find_witness(pb, _one_piece_trace(lam, z, ul, ur))
    assert w is not None
    off = z - w.x1
    want = sum(
        2.0 * math.sqrt((alpha + 1.0) / (lam * k * f(u))) * off ** ((1.0 - alpha) / 2.0) / (1.0 - alpha)
        for k, u in ((1.0, ul), (2.0, ur))
    )
    assert 0.0 <= (w.integral - want) / want <= 0.02


def _graded_trace(lam, z, ul, ur, first):
    """A jump trace with u = ul left of z and ur right of it, each side graded geometrically from the node.

    Each side has the node point and 4000 more, from first to the side's outer end.
    """
    dl, dr = (np.concatenate([[0.0], np.geomspace(first, end, 4000)]) for end in (z, 1.0 - z))
    xl, xr = z - dl[::-1], z + dr
    return SingularSolution(
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


@pytest.mark.parametrize("first", [1e-9, 1e-12])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_witness_node_cell_follows_the_node_law(alpha, first):
    # a = k d^alpha and u constant on each side make H = lam k f(u)
    # d^(alpha+1) / (alpha+1), so each half of the witness integral is
    # 2 sqrt((alpha+1) / (lam k f(u))) off^((1-alpha)/2) / (1-alpha).  The
    # first cell carries (first/off)^((1-alpha)/2) of it, 38 % at alpha =
    # 0.9: it must follow the node law, not read a a float spacing from z.
    # The trapezoids of the concave h and the convex integrand both read high
    lam, z, ul, ur = 50.0, 0.4, 40.0, 0.01
    f = Nonlinearity()
    pb = ProblemInstance(lam, power_weight(1.0, alpha, 2.0, alpha, z), f)
    w = singular._find_witness(pb, _graded_trace(lam, z, ul, ur, first))
    assert w is not None
    off = z - w.x1
    want = sum(
        2.0 * math.sqrt((alpha + 1.0) / (lam * k * f(u))) * off ** ((1.0 - alpha) / 2.0) / (1.0 - alpha)
        for k, u in ((1.0, ul), (2.0, ur))
    )
    assert 0.0 <= (w.integral - want) / want <= 0.02


def test_a_weight_unbounded_at_the_node_gives_no_witness():
    # a = -+k d^(-1/2): H is infinite at the node, so no witness integral
    # can be read; a half that read it as zero would certify a drop of 0.29
    # against a closed form of 0.355
    lam, z = 50.0, 0.4
    pb = ProblemInstance(lam, power_weight(1.0, -0.5, 2.0, -0.5, z), Nonlinearity())
    v = classify(pb, _graded_trace(lam, z, 0.3, 0.01, 1e-9))
    assert v.tag == "Inconclusive" and v.witness is None


def test_witness_reads_a_on_every_segment_of_a_side():
    # two segments left of the node: H at the outer end is lam f(u) times
    # the side's integral of a, up to the one cell that straddles x = 0.2
    lam, z, ul, ur = 50.0, 0.4, 0.9, 0.01
    w = Weight(z, (Segment(0.0, 0.2, ConstantForm(1.0)), Segment(0.2, z, ConstantForm(3.0)), Segment(z, 1.0, ConstantForm(-2.0))))
    pb = ProblemInstance(lam, w, Nonlinearity())
    (_, _, H_left), (_, _, H_right) = singular._trace_sides(pb, _graded_trace(lam, z, ul, ur, 1e-9))
    assert H_left[-1] == pytest.approx(lam * pb.f(ul) * 0.8, rel=5e-3)
    assert H_right[-1] == pytest.approx(lam * pb.f(ur) * 1.2, rel=1e-12)


def test_left_node_height_below_the_right_is_refused(jump_weight, monkeypatch):
    # p < 1 at lam = 100: both piece heights close their budgets, but the
    # left piece meets the node below the right one, so the two would make
    # an upward jump; the guard refuses rather than build it
    node_heights = {}
    piece_shot = singular._piece_shot

    def recording(pb, height, side, collect=None):
        path = piece_shot(pb, height, side, collect)
        if collect is not None:
            node_heights[side] = path.state_end[1]
        return path

    monkeypatch.setattr(singular, "_piece_shot", recording)
    pb = ProblemInstance(100.0, jump_weight, Nonlinearity(kind="prototype", p=0.5, q=0.5, M=1.0))
    got = solve_singular(pb)
    assert got == Absent("inadmissible-jump", "left height at the node fell below the right one")
    assert node_heights["left"] < node_heights["right"]
