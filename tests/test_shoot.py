import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution
from scipy.optimize import brentq

from curvebif import ConstantForm, Nonlinearity, PolynomialForm, ProblemInstance, Segment, Weight, power_weight, two_constant_weight
from curvebif import shoot, singular
from curvebif.model import PowerForm
from curvebif.shoot import Blocked, find_regular, integrate_path, shoot_partials, shoot_residual
from curvebif.varmin import functional_value


def test_lambda_zero_is_a_straight_line(jump_weight, bump_f):
    pb = ProblemInstance(0.0, jump_weight, bump_f)
    path = integrate_path(pb, 0.7)
    assert path.terminal == "reached"
    assert path.theta_end == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(path.us, 0.7)


def test_zero_weight_keeps_lines_for_any_lambda(bump_f):
    w = Weight(0.5, (Segment(0.0, 0.5, ConstantForm(0.0)), Segment(0.5, 1.0, ConstantForm(0.0))))
    pb = ProblemInstance(7.3, w, bump_f)
    path = integrate_path(pb, 1.3)
    assert path.terminal == "reached"
    assert np.allclose(path.us, 1.3)
    assert path.theta_end == pytest.approx(0.0, abs=1e-13)


def test_residual_zero_everywhere_at_lambda_zero(jump_weight, bump_f):
    pb = ProblemInstance(0.0, jump_weight, bump_f)
    for s0 in (1e-4, 0.3, 12.0):
        assert shoot_residual(pb, s0) == pytest.approx(0.0, abs=1e-13)


def test_solvers_refuse_negative_lambda(jump_weight, bump_f):
    pb = ProblemInstance(-1.0, jump_weight, bump_f)
    with pytest.raises(ValueError):
        find_regular(pb)
    with pytest.raises(ValueError):
        integrate_path(pb, -0.1)
    with pytest.raises(ValueError):
        shoot_partials(pb, -0.1)


def test_scan_preconditions(jump_weight, bump_f):
    pb = ProblemInstance(1.0, jump_weight, bump_f)
    with pytest.raises(ValueError):
        find_regular(pb, s_min=0.0, s_max=1.0)
    with pytest.raises(ValueError):
        find_regular(pb, n_scan=8)


@pytest.mark.parametrize("n_scan", [16.9, 20.5, math.inf, math.nan])
def test_scan_count_must_be_a_whole_number(jump_weight, bump_f, n_scan):
    pb = ProblemInstance(1.0, jump_weight, bump_f)
    with pytest.raises(ValueError, match=re.escape(f"whole number, got {n_scan}")):
        find_regular(pb, n_scan=n_scan)


def test_an_integral_float_scan_count_scans_as_its_int(mild_family, lam0_jump):
    pb = mild_family.at(2.0 * lam0_jump)
    want = find_regular(pb, n_scan=16)
    got = find_regular(pb, n_scan=16.0)
    assert want and [s.us.tolist() for s in got] == [s.us.tolist() for s in want]


def test_stalled_bracket_keeps_its_root():
    # theta(1) is noisy at 1e-9..3e-8 near these roots.  The refine reaches
    # the default theta_tol on the first; on the second the bracket collapses
    # above it, and the best reaching path is kept.  Its reference is the
    # root of theta(1)'s sign, bisected with the integrator's rtol at 1e-12,
    # 1e-13 and 3e-14, which agree to 1e-11: the kept path lies within the
    # pinned 1e-8 of it
    cases = (
        (7.513497307218249, 1.9047457604562859, 0.4169952921108211, 0.059638553452812194, 0.0804258350),
        (8.168059186542854, 2.1882432186696805, 0.41343389348168486, 0.0480474076243459, 0.06480038934),
    )
    for lam, neg, z, peak, sup in cases:
        f = Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=peak)
        sols = find_regular(ProblemInstance(lam, two_constant_weight(1.0, neg, z), f), 1e-6, 1e3, 64)
        assert len(sols) == 1
        assert sols[0].sup_norm == pytest.approx(sup, rel=1e-8)
        assert sols[0].residual <= 1e-5 and abs(sols[0].balance) <= 1e-5
    assert abs(sols[0].theta_end) > 1e-10  # the second bracket did collapse


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.0, 30.0), s0=st.floats(1e-3, 50.0))
def test_flux_variable_bounded_by_representation(jump_weight, bump_f, lam, s0):
    pb = ProblemInstance(lam, jump_weight, bump_f)
    path = integrate_path(pb, s0)
    assert np.max(np.abs(np.sin(path.thetas))) <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    ramp=st.booleans(),
    lam=st.floats(0.0, 20.0),
    c=st.floats(0.25, 4.0),
    s0=st.floats(1e-3, 2.0),
)
def test_weight_scale_moves_into_lambda(jump_weight, ramp_weight, mild_f, ramp, lam, c, s0):
    # lam (c a) and (c lam) a give the same equation and the same functional
    weight = ramp_weight if ramp else jump_weight
    scaled = ProblemInstance(lam, weight.scaled(c), mild_f)
    moved = ProblemInstance(c * lam, weight, mild_f)
    got, want = shoot_residual(scaled, s0), shoot_residual(moved, s0)
    if isinstance(want, Blocked):
        assert isinstance(got, Blocked) and got.event == want.event
    else:
        assert got == pytest.approx(want, abs=1e-8)
    xs = np.linspace(0.0, 1.0, 121)
    v = s0 * np.exp(-4.0 * (xs - weight.z) ** 2)
    assert functional_value(scaled, v) == pytest.approx(functional_value(moved, v), rel=1e-12)


def test_vertical_event_near_node_for_steep_shots(jump_weight, bump_f, lam0_jump):
    # heights near the peak bend hard; the tangent goes vertical and the
    # event location sits before the node on the positive side
    pb = ProblemInstance(20.0 * lam0_jump, jump_weight, bump_f)
    path = integrate_path(pb, 2.0)
    assert path.terminal == "vertical"
    assert path.state_end[0] < 0.4


def test_blocked_is_a_value(jump_weight, mild_f, lam0_jump):
    pb = ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f)
    got = shoot_residual(pb, 1e-6)
    assert isinstance(got, Blocked)
    assert got.event in ("u_zero", "vertical")
    # the augmented shot blocks on the same event, at the same state up to its rounding
    aug = shoot_partials(pb, 1e-6)
    assert isinstance(aug, Blocked) and aug.event == got.event
    assert aug.state == pytest.approx(got.state, abs=1e-7)


def test_nfev_budget_ends_the_march(jump_weight, mild_f, lam0_jump, monkeypatch):
    pb = ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f)
    free = integrate_path(pb, 0.05)
    assert free.terminal == "u_zero" and free.nfev > 400
    budget = 250
    monkeypatch.setattr(shoot, "_NFEV_MAX", budget)
    for collect in (None, (5e-4, 2e-3)):
        path = integrate_path(pb, 0.05, collect=collect)
        assert path.terminal == "cap"
        # the right-hand side stops the march inside the step that passes
        # the budget; a DOP853 step takes 12 evaluations
        assert budget < path.nfev <= budget + 12
        # it ends on a state it accepted
        assert path.state_end == (path.xs[-1], path.us[-1], path.thetas[-1])
    assert shoot_residual(pb, 0.05).event == "cap"


def test_nfev_budget_past_the_first_segment_ends_at_its_edge(jump_weight, mild_f, lam0_jump, monkeypatch):
    # a budget that outlasts the segment [0, z] but not the shot ends every
    # march at the state that segment left: the node state, x snapped onto z
    pb = ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f)
    z = jump_weight.z
    marches = {
        "plain": lambda x_target: shoot._march(pb, 0.0, 0.05, 0.0, x_target, collect=None),
        "stored": lambda x_target: shoot._march(pb, 0.0, 0.05, 0.0, x_target, collect=shoot._SHOOT_MESH),
        "augmented": lambda x_target: shoot._march_partials(pb, 0.0, 0.05, 0.0, x_target),
    }
    ends = {}
    for name, march in marches.items():
        first, whole = march(z).nfev, march(1.0).nfev
        assert first < whole
        with monkeypatch.context() as m:
            m.setattr(shoot, "_NFEV_MAX", (first + whole) // 2)
            path = march(1.0)
        assert path.terminal == "cap" and path.partials is None
        x_end, u_end, theta_end = ends[name] = path.state_end
        assert x_end == z
        assert u_end == pytest.approx(0.0122740, abs=1e-7)
        assert theta_end == pytest.approx(-0.1606237, abs=1e-7)
        assert path.state_end == (path.xs[-1], path.us[-1], path.thetas[-1])
    assert ends["stored"] == ends["plain"]
    assert ends["augmented"] == pytest.approx(ends["plain"], abs=1e-7)


def test_arclength_budget_ends_the_march():
    # a short strong segment turns a flat start from 0.01 almost vertical
    # (theta 1.44 at x = 0.05), and a = 0 beyond keeps that straight line:
    # it would need arclength 7.3 to reach x = 1, past the budget
    # 6 + 4 * 0.01, long before _NFEV_MAX or _U_MAX could bind
    f = Nonlinearity(p=1.0, q=0.5, M=1e6)
    w = Weight(0.5, (Segment(0.0, 0.05, ConstantForm(-1.0)), Segment(0.05, 0.5, ConstantForm(0.0)), Segment(0.5, 1.0, ConstantForm(0.0))))
    pb = ProblemInstance(1189.0, w, f)
    path = integrate_path(pb, 0.01)
    assert path.terminal == "cap" and path.theta_end is None
    assert path.nfev < 1000 and path.state_end[1] < 10.0
    x_end, _, theta_end = path.state_end
    assert 0.8 < x_end < 0.9 and 1.43 < theta_end < 1.45
    # the stored path ends where the budget ran out, and is as long as it
    assert path.state_end == (path.xs[-1], path.us[-1], path.thetas[-1])
    assert float(np.sum(np.hypot(np.diff(path.xs), np.diff(path.us)))) == pytest.approx(6.04, rel=1e-6)
    assert shoot_residual(pb, 0.01) == Blocked("cap", x_end, path.state_end)
    # the augmented loop ends the same shot on the same budget
    aug = shoot._march_partials(pb, 0.0, 0.01, 0.0, 1.0)
    assert aug.terminal == "cap" and aug.partials is None
    assert shoot_partials(pb, 0.01) == Blocked("cap", aug.state_end[0], aug.state_end)
    assert aug.state_end == pytest.approx(path.state_end, abs=1e-7)


def test_augmented_march_fails_below_ten_ulps_of_the_arclength(monkeypatch):
    # a right-hand side that turns nan past x = 0.2 rejects every step that
    # reaches it, so accepted steps close in on x = 0.2 until the next one
    # would be under 10 ulps of s: both marches end on "failure" at the last
    # state they accepted; the wall stands in the one kernel both marches compile
    real = ConstantForm.scalar_and_slope

    def walled(form, z):
        a = real(form, z)
        return lambda x: a(x) if x < 0.2 else (math.nan, math.nan)

    monkeypatch.setattr(ConstantForm, "scalar_and_slope", walled)
    pb = ProblemInstance(2.0, two_constant_weight(1.0, 2.0, 0.4), Nonlinearity())
    path = shoot._march_partials(pb, 0.0, 0.5, 0.0, 1.0)
    assert path.terminal == "failure" and path.partials is None
    assert 0.2 - 1e-12 < path.state_end[0] < 0.2
    plain = shoot._march(pb, 0.0, 0.5, 0.0, 1.0, collect=None)
    assert plain.terminal == "failure"
    assert path.state_end == pytest.approx(plain.state_end, abs=1e-7)
    assert shoot_partials(pb, 0.5) == Blocked("failure", path.state_end[0], path.state_end)


def test_augmented_shots_leave_solve_ivp_alone(jump_weight, bump_f, ramp_weight, mild_f, lam0_jump, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an augmented shot called solve_ivp")

    monkeypatch.setattr(shoot, "solve_ivp", refuse)
    *got, extrema = shoot_partials(ProblemInstance(4.4259, jump_weight, bump_f), 0.4828)
    assert len(got) == 3 and all(math.isfinite(v) for v in (*got, *extrema))
    assert isinstance(shoot_partials(ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f), 1e-6), Blocked)
    with pytest.raises(AssertionError, match="solve_ivp"):
        shoot_residual(ProblemInstance(4.4259, jump_weight, bump_f), 0.4828)


def test_generated_step_is_scipys_dop853_step():
    # one trial step of the compiled segment loop against scipy's rk_step
    # with the same tableau on the same augmented right-hand side, and its
    # error norm against DOP853's over the state components (x, u, theta)
    # for at least half the draws far above the norm's roundoff floor
    from scipy.integrate._ivp.rk import DOP853, rk_step

    eps = np.finfo(float).eps
    loop = shoot._segment_loop()
    rng = np.random.default_rng(3)
    rtol, atol = shoot._RTOL, shoot._ATOL
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=10.0).scalar_and_slope  # smooth for the u drawn here
    compared = 0
    for trial in range(200):
        a = PolynomialForm(tuple((rng.normal(size=4) / 3.0).tolist())).scalar_and_slope(0.5)
        lam_dir = -float(rng.uniform(0.5, 3.0))
        rhs = shoot._augmented_rhs(a, f, lam_dir)
        y = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.5, 1.0)), *rng.normal(size=7).tolist())
        h = float(rng.uniform(0.01, 0.3))
        k0 = rhs(*y)
        # a budget of 11 calls ends the loop after its first trial step, whatever that step's error
        end, *_, step = loop(a, f, lam_dir, 2.0, y, k0, 0.0, math.inf, h, 0, 11, 0.0, 0.0, rtol, atol)
        assert end == "spent"
        s_new, h_step, y_new, k_new, stages, err, _, _ = step
        assert s_new == h_step == h
        K = np.empty((DOP853.n_stages + 1, 9))
        want, f_want = rk_step(lambda t, v: np.array(rhs(*v)), 0.0, np.array(y), np.array(k0), h, DOP853.A, DOP853.B, DOP853.C, K)
        assert np.all(np.abs(np.array(y_new) - want) <= 1e-13 * np.abs(want))
        assert np.allclose(stages, K, rtol=0.0, atol=1e-13 * np.max(np.abs(K)))
        assert np.array_equal(k_new, stages[-1]) and np.allclose(k_new, f_want, rtol=0.0, atol=1e-13 * np.max(np.abs(K)))
        # the norm of these stages as DOP853 takes it; the estimate is a
        # cancellation, whose roundoff floor is eps times its terms
        K = np.array(stages)[:, :3]
        scale = np.array(atol) + np.maximum(np.abs(y[:3]), np.abs(y_new[:3])) * rtol
        want_err = DOP853._estimate_error_norm(DOP853, K, h, scale)
        floor = abs(h) * eps * np.max(np.abs(K).T @ (np.abs(DOP853.E5) + 0.1 * np.abs(DOP853.E3)) / scale)
        assert abs(err - want_err) <= floor
        compared += want_err > 100.0 * floor
    assert compared >= 100


_TERMINAL_CASES = pytest.mark.parametrize(
    "case, patch, terminal",
    [
        ("reached", None, "reached"),
        ("vertical-down", None, "vertical"),
        ("vertical-up", None, "vertical"),
        ("u_zero", None, "u_zero"),
        # the vertical-up shot dips below its start of 50, then climbs past 50.05
        ("cap-height", ("_U_MAX", 50.05), "cap"),
        ("cap-budget", ("_NFEV_MAX", 250), "cap"),
        ("dead-core", None, "reached"),
    ],
)


def _terminal_shot(case, jump_weight, bump_f, mild_f, lam0_jump):
    """(pb, x_start, u_start, theta_start) of one terminal case, marched to x = 1."""
    w = Weight(0.5, (Segment(0.0, 0.5, ConstantForm(1.0)), Segment(0.5, 1.0, ConstantForm(-2.0))))
    d = 0.05  # just under the touchdown manifold of test_dead_core_continuation_from_tangency
    shots = {
        "reached": (ProblemInstance(0.0, jump_weight, bump_f), 0.7),
        "vertical-down": (ProblemInstance(20.0 * lam0_jump, jump_weight, bump_f), 2.0),
        "vertical-up": (ProblemInstance(2.0 * lam0_jump, jump_weight, bump_f), 50.0),
        "u_zero": (ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f), 0.05),
        "cap-height": (ProblemInstance(2.0 * lam0_jump, jump_weight, bump_f), 50.0),
        "cap-budget": (ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f), 0.05),
    }
    if case == "dead-core":
        pb = ProblemInstance(1.0, w, Nonlinearity(kind="prototype", p=0.5, q=0.5, M=10.0))
        return pb, 0.85 - d, 0.97 * d ** 4 / 36.0, math.atan(-(d ** 3) / 9.0)
    pb, s0 = shots[case]
    return pb, 0.0, s0, 0.0


def _assert_terminal(path, case, terminal):
    assert path.terminal == terminal
    assert path.dead_core == (case == "dead-core")
    if terminal == "reached":
        assert path.state_end[0] == 1.0
        assert path.theta_end == path.state_end[2]
    else:
        assert path.theta_end is None
    if case.startswith("vertical"):
        sign = 1.0 if case == "vertical-up" else -1.0
        assert path.state_end[2] == pytest.approx(sign * math.pi / 2.0, abs=1e-9)
    if case == "cap-height":
        assert path.state_end[1] == pytest.approx(50.05, rel=1e-12)
    if case == "cap-budget":
        assert 250 < path.nfev <= 250 + 12
    # the path's last row is where the march ended
    assert path.state_end == (path.xs[-1], path.us[-1], path.thetas[-1])


@_TERMINAL_CASES
def test_every_terminal_derives_theta_end(jump_weight, bump_f, mild_f, lam0_jump, monkeypatch, case, patch, terminal):
    if patch is not None:
        monkeypatch.setattr(shoot, *patch)
    pb, *start = _terminal_shot(case, jump_weight, bump_f, mild_f, lam0_jump)
    path = shoot._march(pb, *start, 1.0, collect=(5e-4, 2e-3))
    _assert_terminal(path, case, terminal)
    assert path.partials is None


@_TERMINAL_CASES
def test_every_terminal_ends_the_augmented_march_alike(
    jump_weight, bump_f, mild_f, lam0_jump, monkeypatch, case, patch, terminal
):
    # the march that carries sensitivities ends every shot as the plain
    # solve_ivp march of the same shot does, at the same state up to the
    # integration noise
    if patch is not None:
        monkeypatch.setattr(shoot, *patch)
    pb, *start = _terminal_shot(case, jump_weight, bump_f, mild_f, lam0_jump)
    path = shoot._march_partials(pb, *start, 1.0)
    _assert_terminal(path, case, terminal)
    plain = shoot._march(pb, *start, 1.0, collect=None)
    assert path.terminal == plain.terminal and path.dead_core == plain.dead_core
    assert path.state_end == pytest.approx(plain.state_end, abs=1e-7)
    # partials exist only on a reached augmented march; a dead-core tail carries none
    if terminal != "reached":
        assert path.partials is None
    elif case == "dead-core":
        assert all(math.isnan(v) for v in path.partials)
    else:
        assert all(math.isfinite(v) for v in path.partials)


def _central_partials(pb, s0, step=1e-4):
    dl, ds = step * pb.lam, step * s0
    r_lam = (shoot_residual(pb.at(pb.lam + dl), s0) - shoot_residual(pb.at(pb.lam - dl), s0)) / (2.0 * dl)
    r_s0 = (shoot_residual(pb, s0 + ds) - shoot_residual(pb, s0 - ds)) / (2.0 * ds)
    return r_lam, r_s0


_SMOOTHED_F = Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.0018)
# a table law whose middle has four cells of different slopes
_TABLE_F = Nonlinearity("table", 1.0, 0.5, 1.0, u_nodes=(0.2, 0.4, 0.6, 0.8, 1.0), f_nodes=(0.2, 0.35, 0.45, 0.5, 0.48))


def _partials_problem(problem, lam, jump_weight, bump_f, ramp_weight):
    weight, f = {
        "step": (jump_weight, bump_f),
        "ramp": (ramp_weight, _SMOOTHED_F),
        "power-0.5": (power_weight(1.0, 0.5, 2.0, 0.5, 0.4), _SMOOTHED_F),
        "table": (jump_weight, _TABLE_F),
    }[problem]
    return ProblemInstance(lam, weight, f)


_PARTIALS_CASES = [
    # a jumps by 3 at the node z = 0.4: the saltation jump is crossed
    ("step", 4.4259, 0.4828),
    # a vanishes linearly at the node, so a' != 0 on both sides
    ("ramp", 72.866, 0.003927),
    # a' ~ d^(-1/2) is unbounded at the node, and the node takes a finite slope
    ("power-0.5", 26.3632, 3.157e-3),
    # u falls from 0.74 to 0.58: the path leaves one middle cell of the table for the next
    ("table", 2.0, 0.7),
]


# right-hand-side calls of the shots at the ramp's seed point while a power
# form clipped at its node: a step that overshot the node met a kink there
_RAMP_SEED_NFEV_CLIPPED = {"augmented": 514, "plain": 430}


def test_a_linear_node_costs_the_shots_no_kink(ramp_weight):
    # a whole-number exponent continues its polynomial past the node, so a
    # step that overshoots the node's x edge is cut by the edge event alone
    shots = {
        "augmented": lambda pb: shoot._march_partials(pb, 0.0, 1e-3, 0.0, 1.0),
        "plain": lambda pb: shoot._march(pb, 0.0, 1e-3, 0.0, 1.0, collect=None),
    }
    pb = ProblemInstance(19.5397959, ramp_weight, _SMOOTHED_F)
    for name, clipped in _RAMP_SEED_NFEV_CLIPPED.items():
        path = shots[name](pb)
        assert path.terminal == "reached"
        assert path.nfev <= 0.75 * clipped, name
    # a fractional order is not smooth at the node: it keeps its clip, and its shots their counts
    pb = ProblemInstance(10.366762, power_weight(1.0, 0.5, 2.0, 0.5, 0.4), _SMOOTHED_F)
    assert {name: shot(pb).nfev for name, shot in shots.items()} == {"augmented": 1090, "plain": 1102}


@pytest.mark.parametrize("problem, lam, s0", _PARTIALS_CASES)
def test_augmented_shot_partials_match_central_differences(jump_weight, bump_f, ramp_weight, problem, lam, s0):
    pb = _partials_problem(problem, lam, jump_weight, bump_f, ramp_weight)
    theta, r_lam, r_s0, _ = shoot_partials(pb, s0)
    assert theta == pytest.approx(shoot_residual(pb, s0), abs=1e-7)
    want_lam, want_s0 = _central_partials(pb, s0)
    assert r_lam == pytest.approx(want_lam, rel=1e-5)
    assert r_s0 == pytest.approx(want_s0, rel=1e-5)


@pytest.mark.parametrize("problem, lam, s0", _PARTIALS_CASES[:2])
def test_sensitivities_take_no_part_in_step_control(jump_weight, bump_f, ramp_weight, monkeypatch, problem, lam, s0):
    # the slopes feed only the six sensitivities, and step control, events
    # and extrema read (x, u, theta) alone: with every slope zeroed the
    # march takes the same steps to the same end, and only the partials move
    pb = _partials_problem(problem, lam, jump_weight, bump_f, ramp_weight)
    exact = shoot._march_partials(pb, 0.0, s0, 0.0, 1.0)
    for cls in (ConstantForm, PowerForm):
        real = cls.scalar_and_slope
        monkeypatch.setattr(cls, "scalar_and_slope", lambda form, z, real=real: _no_slope(real(form, z)))
    real_f = Nonlinearity.__dict__["scalar_and_slope"].func
    monkeypatch.setattr(Nonlinearity, "scalar_and_slope", property(lambda f: _no_slope(real_f(f))))
    flat = shoot._march_partials(pb, 0.0, s0, 0.0, 1.0)
    assert flat.terminal == exact.terminal == "reached"
    assert flat.state_end == exact.state_end
    assert flat.extrema == exact.extrema
    assert flat.nfev == exact.nfev
    assert flat.partials != exact.partials


def _no_slope(kernel):
    return lambda *args: (kernel(*args)[0], 0.0)


def test_partials_at_the_kink_take_the_side_u_moves_into(jump_weight, bump_f):
    # the shot starts on the prototype's kink u = M = 1 and u falls from
    # there: d theta(1)/d s0 is the one-sided derivative from below, where
    # central differences of f straddled the kink and read -12.617
    pb = ProblemInstance(2.7, jump_weight, bump_f)
    _, _, r_s0, _ = shoot_partials(pb, 1.0)
    assert r_s0 == pytest.approx(-12.661, abs=1e-3)
    h = 1e-7
    below = (shoot_residual(pb, 1.0) - shoot_residual(pb, 1.0 - h)) / h
    assert r_s0 == pytest.approx(below, abs=1e-3)


def test_an_infinite_slope_gives_nan_partials(jump_weight):
    # f' is infinite at u = 0 for p < 1: the shot along the trivial line
    # reaches x = 1 with theta(1) = 0 and nan partials, and raises nothing
    pb = ProblemInstance(3.0, jump_weight, Nonlinearity(kind="prototype", p=0.5, q=0.5, M=1.0))
    theta, r_lam, r_s0, _ = shoot_partials(pb, 0.0)
    assert theta == 0.0 and math.isnan(r_lam) and math.isnan(r_s0)



@pytest.mark.parametrize(
    "lam, left, right, which",
    [
        # a < 0 then a > 0: theta rises, then falls through 0 inside a step of the right segment
        (0.5, ConstantForm(-1.0), ConstantForm(2.0), 0),
        # a = 0.3 - x changes sign inside the left segment, and a = 0 beyond keeps theta
        (2.0, PolynomialForm((0.3, -1.0)), ConstantForm(0.0), 1),
    ],
    ids=["u-peak", "theta-peak"],
)
def test_augmented_extrema_find_a_peak_inside_a_step(monkeypatch, lam, left, right, which):
    weight = Weight(0.4, (Segment(0.0, 0.4, left), Segment(0.4, 1.0, right)))
    pb = ProblemInstance(lam, weight, Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0))
    path = shoot._march_partials(pb, 0.0, 0.5, 0.0, 1.0)
    assert path.terminal == "reached"
    tracked = path.extrema[which]
    stored = shoot._march(pb, 0.0, 0.5, 0.0, 1.0, collect=(2e-5, 2e-5))
    mesh = np.abs((stored.us, stored.thetas)[which])
    assert tracked == pytest.approx(float(np.max(mesh)), rel=1e-9)
    assert np.all(tracked >= mesh)
    # step ends and event states alone fall short of the peak
    monkeypatch.setattr(shoot, "_step_peaks", lambda *args: [])
    assert shoot._march_partials(pb, 0.0, 0.5, 0.0, 1.0).extrema[which] < tracked * (1.0 - 1e-4)

def test_find_regular_mild_existence(mild_solution):
    pb, sol = mild_solution
    assert abs(sol.theta_end) <= 1e-10
    assert sol.residual <= 1e-5
    assert abs(sol.balance) <= 1e-5
    assert sol.sup_norm == pytest.approx(sol.us[0])  # max at the left end
    assert np.all(np.diff(sol.us) <= 1e-12)  # non-increasing
    assert np.min(sol.us) > 0



@pytest.mark.parametrize("dip, kept", [(1e-8, True), (1e-6, False)])
def test_find_regular_skips_a_solution_that_dips_below_zero(mild_solution, monkeypatch, dip, kept):
    # a shot that reaches x = 1 never dips below -_EPS_NEG, so no natural
    # input meets this skip: each root's stored shot is lowered until its
    # least u reads -dip, against the skip's bound -1e-7 max(1, sup|u|)
    pb, sol = mild_solution
    assert sol.sup_norm < 1.0
    real = shoot.integrate_path

    def lowered(pb, s0, collect=shoot._SHOOT_MESH):
        path = real(pb, s0, collect)
        if collect is not None:
            path.us = path.us - (float(np.min(path.us)) + dip)
        return path

    monkeypatch.setattr(shoot, "integrate_path", lowered)
    got = find_regular(pb, s_min=1e-6, s_max=1e3, n_scan=64)
    assert [float(np.min(s.us)) for s in got] == pytest.approx([-dip] if kept else [], abs=1e-12)

def test_default_tolerance_root_matches_brentq(mild_solution):
    # an independent root of the same residual near the returned height
    pb, sol = mild_solution
    height = float(sol.us[0])
    assert abs(shoot_residual(pb, height)) <= 1e-10
    root = brentq(lambda s: shoot_residual(pb, s), height - 1e-4, height + 1e-4, xtol=1e-15)
    assert root == pytest.approx(height, rel=1e-9)


def test_stored_path_ends_on_the_target(mild_solution):
    # the event sample may land a few ulp either side of x = 1: before the
    # end state snapped onto the edge was stored, the first path ended at
    # 0.9999999999999999 and the second at 1.0000000000000004
    _, sol = mild_solution
    w = two_constant_weight(1.0, 2.342010133698566, 0.37040024626536244)
    f = Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.03356745758157939)
    path = integrate_path(ProblemInstance(10.281649141641557, w, f), 0.04459407076655844)
    assert path.terminal == "reached"
    for xs in (sol.xs, path.xs):
        assert xs[-1] == 1.0
        assert np.all(xs <= 1.0)


def test_find_regular_keeps_every_distinct_height(mild_solution, monkeypatch):
    # two refined heights are two solutions unless they are equal, even when
    # their sup norms agree to 1e-9
    pb, sol = mild_solution
    s = float(sol.us[0])
    for heights, kept in (([s, s * (1.0 + 1e-9)], [s, s * (1.0 + 1e-9)]), ([s, s], [s])):
        refined = iter(heights)
        monkeypatch.setattr(shoot, "scan_brackets", lambda *args: [(0.5 * s, 2.0 * s, True)] * len(heights))
        monkeypatch.setattr(shoot, "_bisect_height", lambda *args: next(refined))
        assert [float(x.us[0]) for x in find_regular(pb)] == kept


def test_find_regular_empty_below_lam0(mild_family, lam0_jump):
    pb = mild_family.at(0.5 * lam0_jump)
    assert find_regular(pb, s_min=1e-6, s_max=1e3, n_scan=64) == []


def test_step_weight_flux_balance_identity(mild_solution):
    # A int_{u(z)}^{u(0)} f = B int_{u(1)}^{u(z)} f for step weights
    pb, sol = mild_solution
    F = pb.f.potential
    uz = sol.u_at(0.4)
    lhs = 1.0 * (F(sol.us[0]) - F(uz))
    rhs = 2.0 * (F(uz) - F(sol.us[-1]))
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_two_solutions_for_large_lambda_p2(jump_weight):
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=0.05)
    # small peak keeps both branches inside the graph regime
    pb = ProblemInstance(300.0, jump_weight, f)
    sols = find_regular(pb, s_min=1e-8, s_max=1e3, n_scan=96)
    assert len(sols) >= 2
    assert sols[0].sup_norm < sols[1].sup_norm
    for s in sols:
        assert s.residual <= 1e-5


def test_smallest_solution_shrinks_with_lambda(jump_weight):
    f = Nonlinearity(kind="prototype", p=2.0, q=0.5, M=1.0)
    sups = []
    for lam in (1e2, 1e3):
        sols = find_regular(ProblemInstance(lam, jump_weight, f), s_min=1e-8, s_max=1e3, n_scan=48)
        assert sols
        sups.append(sols[0].sup_norm)
    assert sups[1] == pytest.approx(sups[0] / 10.0, rel=0.05)  # lam^(-1/(p-1))


def test_blocked_below_dead_core_threshold():
    # p < 1: heights below the tangential-landing threshold cross the
    # trivial line inside (z, 1] and block; above it a regular solution
    # with a small positive tail exists
    w = Weight(0.5, (Segment(0.0, 0.5, ConstantForm(1.0)), Segment(0.5, 1.0, ConstantForm(-2.0))))
    f = Nonlinearity(kind="prototype", p=0.5, q=0.5, M=10.0)
    pb = ProblemInstance(1.0, w, f)
    blocked = [shoot_residual(pb, s0) for s0 in (0.01, 0.02, 0.03, 0.04, 0.05)]
    assert all(isinstance(b, Blocked) and b.event == "u_zero" for b in blocked)
    assert any(0.5 < b.x_stop <= 1.0 for b in blocked)
    sols = find_regular(pb, s_min=1e-3, s_max=10.0, n_scan=64)
    assert sols and sols[0].us[-1] > 0


def test_dead_core_continuation_from_tangency():
    # start just under the touchdown manifold u = d^4/36 of u'' = 2 sqrt(u):
    # the path grazes the trivial line with a flat tangent past the node,
    # continues exactly as u == 0 (f(0) = 0), and is flagged
    from curvebif.shoot import _march

    w = Weight(0.5, (Segment(0.0, 0.5, ConstantForm(1.0)), Segment(0.5, 1.0, ConstantForm(-2.0))))
    f = Nonlinearity(kind="prototype", p=0.5, q=0.5, M=10.0)
    pb = ProblemInstance(1.0, w, f)
    x0, d = 0.85, 0.05
    path = _march(pb, x0 - d, 0.97 * d ** 4 / 36.0, math.atan(-(d ** 3) / 9.0), 1.0, collect=(5e-4, 2e-3))
    assert path.dead_core
    assert path.terminal == "reached"
    assert path.theta_end == 0.0
    assert path.us[-1] == 0.0


def test_solution_serialization(mild_solution):
    _, sol = mild_solution
    d = sol.to_dict()
    assert d["kind"] == "regular"
    assert d["jump"] == 0.0
    assert {"lambda", "mesh", "residual"} <= set(d)
    assert len(d["mesh"][0]) == 3


def _record_meshes(monkeypatch):
    """(out, states, scipy's states) of every collected march while the patch holds."""
    seen = []
    real = shoot._subsample

    def record(out, *collect):
        states = real(out, *collect)
        # copied before _march snaps the last state onto a target edge
        seen.append((out, states.copy(), out.sol(shoot._mesh_times(out, *collect))[:3]))
        return states

    monkeypatch.setattr(shoot, "_subsample", record)
    return seen


def _assert_dense_output_bits(seen):
    # the per-step evaluation must give out.sol's own states, to the last bit
    assert seen
    for _, states, expected in seen:
        assert states.shape == expected.shape
        assert states.tobytes() == expected.tobytes()


def test_mesh_states_equal_the_dense_output_on_a_regular_shot(monkeypatch):
    seen = _record_meshes(monkeypatch)
    pb = ProblemInstance(3.0, two_constant_weight(1.0, 2.0, 0.4), Nonlinearity())
    assert integrate_path(pb, 0.5).terminal == "reached"
    assert len(seen) == 2  # one march per weight segment
    _assert_dense_output_bits(seen)


def test_mesh_states_equal_the_dense_output_on_both_jump_pieces(monkeypatch):
    seen = _record_meshes(monkeypatch)
    pb = ProblemInstance(50.0, two_constant_weight(1.0, 2.0, 0.4), Nonlinearity())
    assert isinstance(singular.solve_singular(pb), singular.SingularSolution)
    # the left piece marches forward from x = 0, the right one backward from x = 1
    assert sorted(float(out.y[0][0]) for out, _, _ in seen) == [0.0, 1.0]
    _assert_dense_output_bits(seen)


def test_mesh_states_equal_the_dense_output_on_a_one_step_march(monkeypatch):
    seen = _record_meshes(monkeypatch)
    pb = ProblemInstance(1.0, two_constant_weight(1.0, 2.0, 0.999), Nonlinearity())
    assert integrate_path(pb, 0.5).terminal == "reached"
    assert [len(out.t) for out, _, _ in seen][-1] == 2  # the last segment is one step
    _assert_dense_output_bits(seen)


def test_a_mesh_point_on_a_step_end_takes_the_lower_step():
    # two steps whose interpolants disagree where they meet: out.sol reads
    # the lower one there, and so must the per-step evaluation
    def constant(state):
        return lambda t: np.tile(np.array(state)[:, None], len(t))

    ts = np.array([0.0, 1.0, 2.0])
    sol = OdeSolution(ts, [constant([0.0, 1.0, 0.0]), constant([0.5, 2.0, 0.3])])
    out = SimpleNamespace(t=ts, y=np.array([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [0.0, 0.3, 0.6]]), sol=sol)
    t = shoot._mesh_times(out, 0.1, 0.1)
    states = shoot._subsample(out, 0.1, 0.1)
    assert states.tobytes() == out.sol(t)[:3].tobytes()
    assert states[:, t == 1.0].ravel().tolist() == [0.0, 1.0, 0.0]
