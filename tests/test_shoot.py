import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution
from scipy.optimize import brentq

from curvebif import ConstantForm, Nonlinearity, ProblemInstance, Segment, Weight, two_constant_weight
from curvebif import shoot, singular
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


@_TERMINAL_CASES
def test_every_terminal_derives_theta_end(
    jump_weight, bump_f, mild_f, lam0_jump, monkeypatch, case, patch, terminal, partials=False
):
    if patch is not None:
        monkeypatch.setattr(shoot, *patch)
    w = Weight(0.5, (Segment(0.0, 0.5, ConstantForm(1.0)), Segment(0.5, 1.0, ConstantForm(-2.0))))
    d = 0.05  # just under the touchdown manifold of test_dead_core_continuation_from_tangency
    mesh = (5e-4, 2e-3)

    def from_zero(pb, s0):
        return shoot._march(pb, 0.0, s0, 0.0, 1.0, collect=mesh, partials=partials)

    shots = {
        "reached": lambda: from_zero(ProblemInstance(0.0, jump_weight, bump_f), 0.7),
        "vertical-down": lambda: from_zero(ProblemInstance(20.0 * lam0_jump, jump_weight, bump_f), 2.0),
        "vertical-up": lambda: from_zero(ProblemInstance(2.0 * lam0_jump, jump_weight, bump_f), 50.0),
        "u_zero": lambda: from_zero(ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f), 0.05),
        "cap-height": lambda: from_zero(ProblemInstance(2.0 * lam0_jump, jump_weight, bump_f), 50.0),
        "cap-budget": lambda: from_zero(ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f), 0.05),
        "dead-core": lambda: shoot._march(
            ProblemInstance(1.0, w, Nonlinearity(kind="prototype", p=0.5, q=0.5, M=10.0)),
            0.85 - d, 0.97 * d ** 4 / 36.0, math.atan(-(d ** 3) / 9.0), 1.0, collect=mesh, partials=partials,
        ),
    }
    path = shots[case]()
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
    # the stored path has the plain shot's three rows, and ends where the march did
    assert path.state_end == (path.xs[-1], path.us[-1], path.thetas[-1])
    # partials exist only on a reached augmented march; a dead-core tail carries none
    if not partials or terminal != "reached":
        assert path.partials is None
    elif case == "dead-core":
        assert all(math.isnan(v) for v in path.partials)
    else:
        assert all(math.isfinite(v) for v in path.partials)


@_TERMINAL_CASES
def test_every_terminal_ends_the_augmented_march_alike(
    jump_weight, bump_f, mild_f, lam0_jump, monkeypatch, case, patch, terminal
):
    # the march that carries sensitivities ends every shot as the plain one does
    test_every_terminal_derives_theta_end(
        jump_weight, bump_f, mild_f, lam0_jump, monkeypatch, case, patch, terminal, partials=True
    )


def _central_partials(pb, s0, step=1e-4):
    dl, ds = step * pb.lam, step * s0
    r_lam = (shoot_residual(pb.at(pb.lam + dl), s0) - shoot_residual(pb.at(pb.lam - dl), s0)) / (2.0 * dl)
    r_s0 = (shoot_residual(pb, s0 + ds) - shoot_residual(pb, s0 - ds)) / (2.0 * ds)
    return r_lam, r_s0


@pytest.mark.parametrize(
    "problem, lam, s0",
    [
        # a jumps by 3 at the node z = 0.4: the saltation jump is crossed
        ("step", 4.4259, 0.4828),
        # a vanishes linearly at the node, so a' != 0 on both sides
        ("ramp", 72.866, 0.003927),
    ],
)
def test_augmented_shot_partials_match_central_differences(jump_weight, bump_f, ramp_weight, problem, lam, s0):
    if problem == "step":
        pb = ProblemInstance(lam, jump_weight, bump_f)
    else:
        pb = ProblemInstance(lam, ramp_weight, Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.0018))
    theta, r_lam, r_s0 = shoot_partials(pb, s0)
    assert theta == pytest.approx(shoot_residual(pb, s0), abs=1e-7)
    want_lam, want_s0 = _central_partials(pb, s0)
    assert r_lam == pytest.approx(want_lam, rel=1e-5)
    assert r_s0 == pytest.approx(want_s0, rel=1e-5)


def test_find_regular_mild_existence(mild_solution):
    pb, sol = mild_solution
    assert abs(sol.theta_end) <= 1e-10
    assert sol.residual <= 1e-5
    assert abs(sol.balance) <= 1e-5
    assert sol.sup_norm == pytest.approx(sol.us[0])  # max at the left end
    assert np.all(np.diff(sol.us) <= 1e-12)  # non-increasing
    assert np.min(sol.us) > 0


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
