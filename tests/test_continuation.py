import math
import re

import numpy as np
import pytest

from curvebif import Nonlinearity, ProblemFamily, power_weight, two_constant_weight
from curvebif.continuation import (
    NEAR_SINGULAR_COS,
    diagram,
    seed_from_lambda0,
    solve_lambda_at_height,
    trace,
)
from curvebif.eigen import bif_direction, principal_neumann
from curvebif.model import curvature_residual
from curvebif.shoot import _path_piece, integrate_path

# spacing (max angle change, max x advance) of a stored plain re-shot of a branch point
_RESHOT_MESH = (2e-3, 5e-3)


@pytest.fixture(scope="module")
def ramp_family():
    # linearly vanishing weight with a tiny peak: the branch stays a mild
    # graph far past the bifurcation point
    w = power_weight(1.0, 1.0, 2.0, 1.0, 0.4)
    return ProblemFamily(w, Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.002))


@pytest.fixture(scope="module")
def ramp_branch(ramp_family):
    seed = seed_from_lambda0(ramp_family)
    return trace(ramp_family, seed, step=0.1, max_points=120, lam_max=250.0)


@pytest.fixture(scope="module")
def step_family():
    # the command line's default problem, traced as the benchmark's step family
    return ProblemFamily(two_constant_weight(1.0, 2.0, 0.4), Nonlinearity(kind="prototype", p=1.0, q=0.5, M=1.0))


@pytest.fixture(scope="module")
def step_branch(step_family):
    return trace(step_family, seed_from_lambda0(step_family), step=0.1, max_points=60, lam_max=1e3)


def _reshot(family, point):
    """A branch point's stored plain re-shot and its (xs, us, dus) piece."""
    path = integrate_path(family.at(point.lam), point.s0, collect=_RESHOT_MESH)
    assert path.terminal == "reached"
    return path, _path_piece(path)


def test_seed_is_converged(ramp_family):
    from curvebif.shoot import shoot_residual

    lam, s0 = seed_from_lambda0(ramp_family)
    assert s0 == 1e-3
    r = shoot_residual(ramp_family.at(lam), s0)
    assert abs(r) <= 1e-8


@pytest.mark.parametrize("f0, lam_seed", [(1.0, 2.7468708), (0.25, 10.987483), (2.0, 1.3734354)])
def test_seed_of_a_table_head_starts_at_lam0_over_c(jump_weight, f0, lam_seed):
    # a table f is c u below its first node 0.5, c = 2 f0: the branch leaves
    # the trivial line at lam0 / c, where Newton started at lam0 fails
    f = Nonlinearity(kind="table", p=1.0, q=0.5, M=1.0, u_nodes=(0.5, 1.0, 2.0), f_nodes=(f0, 1.5, 1.2))
    lam, _ = seed_from_lambda0(ProblemFamily(jump_weight, f))
    assert lam == pytest.approx(lam_seed, rel=1e-7)


def test_seed_needs_p_equal_one(jump_weight):
    with pytest.raises(ValueError, match="p = 1"):
        seed_from_lambda0(ProblemFamily(jump_weight, Nonlinearity(kind="prototype", p=2.0)))


def test_seed_shift_sign_matches_curvature(ramp_family):
    pair = principal_neumann(ramp_family.weight)
    _, lam2 = bif_direction(ramp_family.f, pair)
    lam, s0 = seed_from_lambda0(ramp_family)
    assert math.copysign(1.0, lam - pair.eigenvalue) == math.copysign(1.0, lam2 * s0 ** 2)


def test_branch_subcritical_fold_then_growth(ramp_family, ramp_branch):
    pair = principal_neumann(ramp_family.weight)
    br = ramp_branch
    assert len(br.points) > 20
    assert br.folds, "subcritical departure must fold back"
    lams = [p.lam for p in br.points]
    assert min(lams) < pair.eigenvalue
    assert max(lams) > 3 * pair.eigenvalue
    # heights increase monotonically along this branch
    sups = [p.sup_norm for p in br.points]
    assert sups[-1] > sups[0]


def test_branch_points_verified(ramp_family, ramp_branch):
    assert all(p.residual <= 1e-8 for p in ramp_branch.points)
    for p in ramp_branch.points:
        _, (xs, us, dus) = _reshot(ramp_family, p)
        assert curvature_residual(ramp_family.at(p.lam), xs, us, dus) <= 1e-5


@pytest.mark.parametrize("family, branch", [("ramp_family", "ramp_branch"), ("step_family", "step_branch")])
def test_point_reads_what_a_stored_reshot_reads(request, family, branch):
    # sup_norm, deriv_norm and kind come from the corrector's augmented
    # shot; a stored plain re-shot of the point reads the same
    family, branch = request.getfixturevalue(family), request.getfixturevalue(branch)
    assert len(branch.points) > 20
    for p in branch.points:
        path, (_, us, dus) = _reshot(family, p)
        assert p.sup_norm == float(np.max(us))
        assert p.kind == ("near-singular" if np.min(np.cos(path.thetas)) < NEAR_SINGULAR_COS else "regular")
        assert p.deriv_norm == pytest.approx(float(np.max(np.abs(dus))), rel=1e-6)


def test_a_kept_point_costs_one_unstored_plain_shot(ramp_family, monkeypatch):
    from curvebif import continuation, shoot

    seed = seed_from_lambda0(ramp_family)
    collects, per_point, read = [], [], []
    march, diagnostics = shoot._march, continuation._point_diagnostics

    def recording_march(*args, collect):
        collects.append(collect)
        return march(*args, collect=collect)

    def recording_diagnostics(*args):
        before = len(collects)
        read.append(diagnostics(*args))
        per_point.append(len(collects) - before)
        return read[-1]

    monkeypatch.setattr(shoot, "_march", recording_march)
    monkeypatch.setattr(continuation, "_point_diagnostics", recording_diagnostics)
    br = trace(ramp_family, seed, step=0.1, max_points=8)
    assert len(br.points) == 8 and all(p in read for p in br.points)
    # each point read takes one plain shot, the trace takes no other, and none is stored
    assert per_point == [1] * len(read)
    assert collects == [None] * len(read)


def test_no_near_singular_under_divergent_criterion(ramp_branch):
    # the node integrals diverge for this weight: solutions stay regular
    # and no traced point is ever flagged near the vertical threshold
    assert all(p.kind == "regular" for p in ramp_branch.points)


def test_fold_has_small_lambda_increment(ramp_branch):
    # steps are bounded by the scaled arclength budget (step 0.1, growth 4x)
    lams = [p.lam for p in ramp_branch.points]
    for i in ramp_branch.folds:
        assert abs(lams[i + 1] - lams[i]) < 0.4 * (abs(lams[i]) + 1.0)


def test_nonexistence_window_below_fold(ramp_family, ramp_branch):
    from curvebif.shoot import find_regular

    lam_fold = min(p.lam for p in ramp_branch.points)
    probe = 0.9 * lam_fold
    assert find_regular(ramp_family.at(probe), s_min=1e-6, s_max=1e2, n_scan=64) == []


def test_trivial_line_trace(jump_weight, mild_f):
    fam = ProblemFamily(jump_weight, mild_f)
    br = trace(fam, (0.0, 0.01), step=0.2, max_points=40, lam_max=10.0, origin="FromZeroLine")
    lams = [p.lam for p in br.points]
    sups = [p.sup_norm for p in br.points]
    assert np.max(np.abs(lams)) <= 1e-8
    assert np.all(np.diff(sups) > 0)


def test_trace_down_the_branch_ends_on_the_trivial_line(ramp_weight):
    # from the seed, heading down in height, the branch returns to the
    # trivial line where it left it, at lam0 / c
    fam = ProblemFamily(ramp_weight, Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.002))
    seed = seed_from_lambda0(fam)
    br = trace(fam, seed, step=0.1, direction=(0.0, -1.0))
    assert br.terminated_by == "trivial-line"
    lam0 = principal_neumann(fam.weight).eigenvalue
    assert br.terminal_lam == pytest.approx(lam0 / fam.f.c, rel=1e-5)


def test_jump_weight_branch_approaches_the_steep_regime(jump_weight):
    # under the step weight the traced branch steepens until the corrector
    # loses the exponentially thin residual window; the graphs are already
    # far from flat when that happens
    fam = ProblemFamily(jump_weight, Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0))
    seed = seed_from_lambda0(fam)
    br = trace(fam, seed, step=0.15, max_points=120, lam_max=100.0)
    assert br.terminated_by == "corrector-failure"
    assert max(p.deriv_norm for p in br.points) > 5.0


def test_singular_sweep_gives_the_dashed_tail(jump_weight):
    from curvebif.continuation import singular_sweep

    fam = ProblemFamily(jump_weight, Nonlinearity(kind="prototype", p=1.0, q=0.5, M=1.0))
    br = singular_sweep(fam, (30.0, 60.0, 120.0))
    assert len(br.points) == 3
    assert all(p.kind == "near-singular" for p in br.points)
    sups = [p.sup_norm for p in br.points]
    assert np.all(np.diff(sups) > 0)
    rec = diagram([br.rows])
    assert "stroke-dasharray" in rec.svg


def test_trace_rejects_unconverged_start(ramp_family):
    with pytest.raises(ValueError):
        trace(ramp_family, (1.0, 5.0))


def test_trace_never_shoots_a_point_twice_in_a_row(ramp_family, monkeypatch):
    # every Newton shot is an augmented one (shoot_partials): the corrector
    # carries an accepted step's residual and Jacobian forward, and the
    # start's tangent reuses the start's shot
    from curvebif import continuation

    seed = seed_from_lambda0(ramp_family)
    shots = []
    shoot = continuation.shoot_partials

    def recording(pb, s0, *args, **kwargs):
        shots.append((pb.lam, s0))
        return shoot(pb, s0, *args, **kwargs)

    monkeypatch.setattr(continuation, "shoot_partials", recording)
    br = trace(ramp_family, seed, step=0.1, max_points=6)
    assert len(br.points) == 6
    # the start plus at least one corrector shot per new point
    assert len(shots) >= 6
    assert all(a != b for a, b in zip(shots, shots[1:]))


def test_point_kind_reads_the_steepest_angle_of_the_path(ramp_branch, ramp_family, monkeypatch):
    # near-singular means min cos(theta) over the traced path falls below
    # NEAR_SINGULAR_COS; deriv_norm = max |tan(theta)| gives that minimum
    from curvebif import continuation

    p = max(ramp_branch.points, key=lambda q: q.deriv_norm)
    min_cos = 1.0 / math.hypot(1.0, p.deriv_norm)
    extrema = continuation._shot(ramp_family, p.lam, p.s0)[3]
    monkeypatch.setattr(continuation, "NEAR_SINGULAR_COS", min_cos * (1.0 - 1e-6))
    assert continuation._point_diagnostics(ramp_family, p.lam, p.s0, extrema).kind == "regular"
    monkeypatch.setattr(continuation, "NEAR_SINGULAR_COS", min_cos * (1.0 + 1e-6))
    assert continuation._point_diagnostics(ramp_family, p.lam, p.s0, extrema).kind == "near-singular"


def test_solve_lambda_at_height_matches_branch(ramp_family):
    pair = principal_neumann(ramp_family.weight)
    lam = solve_lambda_at_height(ramp_family, 1e-4, pair.eigenvalue)
    assert lam == pytest.approx(pair.eigenvalue, rel=1e-4)


def test_diagram_row_count(ramp_branch):
    rec = diagram([ramp_branch.rows])
    assert rec.n_points == len(ramp_branch.points)
    assert rec.csv.splitlines()[0] == "lambda,sup_norm,kind"
    assert len(rec.csv.strip().splitlines()) == rec.n_points + 1
    assert rec.svg.startswith("<svg") and rec.svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
def test_trace_rejects_a_bad_step(ramp_family, step):
    # checked before the start point is shot
    with pytest.raises(ValueError, match="step must be positive and finite"):
        trace(ramp_family, (1.0, 1.0), step=step)


@pytest.mark.parametrize("max_points", [math.nan, math.inf, 2.5])
def test_trace_refuses_a_count_that_is_not_a_whole_number(ramp_family, monkeypatch, max_points):
    # refused before any shot: nan once kept a one-point branch, 2.5 three points
    from curvebif import continuation

    def refuse(*args):
        raise AssertionError("a refused count shot the start")

    monkeypatch.setattr(continuation, "_shot", refuse)
    with pytest.raises(ValueError, match=re.escape(f"max_points must be a whole number, got {max_points}")):
        trace(ramp_family, (1.0, 1.0), max_points=max_points)


def test_trace_runs_an_integral_float_count_as_its_int(ramp_family):
    seed = seed_from_lambda0(ramp_family)
    br = trace(ramp_family, seed, step=0.1, max_points=3.0)
    assert len(br.points) == 3 and br.terminated_by == "max-points"
    assert br.rows == trace(ramp_family, seed, step=0.1, max_points=3).rows


def test_corrector_gives_up_after_its_tenth_newton_step(monkeypatch):
    # every damped step halves |r|, so each is accepted, but ten of them
    # leave |r| above _CORRECTOR_TOL
    from curvebif import continuation

    shots = []

    def halving(pb_family, lam, s0):
        shots.append((lam, s0))
        return 1e-3 * 0.5 ** len(shots), 1.0, 0.0, None

    monkeypatch.setattr(continuation, "_shot", halving)
    assert continuation._corrector(None, 1.0, 1.0, (0.0, 1.0), (1.0, 1.0)) is None
    # the start's shot and one accepted candidate per Newton step
    assert len(shots) == 11
    assert 1e-3 * 0.5 ** 11 > continuation._CORRECTOR_TOL


def test_trace_ends_on_lambda_min(ramp_family, monkeypatch):
    from curvebif import continuation

    seed = seed_from_lambda0(ramp_family)
    monkeypatch.setattr(continuation, "_corrector", lambda *args: (-1.0, 0.01, None))
    br = trace(ramp_family, seed, max_points=5)
    assert br.terminated_by == "lambda-min"
    assert [(p.lam, p.s0) for p in br.points] == [seed]


@pytest.mark.parametrize("residual, kept", [(5e-9, True), (2e-8, False)])
def test_trace_keeps_a_point_only_within_the_corrector_tolerance(ramp_family, monkeypatch, residual, kept):
    # the plain re-shot of a corrected point must read |theta(1)| <= 1e-8,
    # the tolerance the corrector accepted it at on the augmented shot
    from curvebif import continuation

    seed = seed_from_lambda0(ramp_family)
    point = (seed[0] * 1.001, seed[1] * 1.01)
    extrema = continuation._shot(ramp_family, *point)[3]
    real = continuation._point_diagnostics

    def diagnostics(pb_family, lam, s0, extrema):
        got = real(pb_family, lam, s0, extrema)
        if (lam, s0) == point:
            got.residual = residual
        return got

    monkeypatch.setattr(continuation, "_corrector", lambda *args: (*point, extrema))
    monkeypatch.setattr(continuation, "_point_diagnostics", diagnostics)
    br = trace(ramp_family, seed, max_points=2)
    assert br.terminated_by == ("max-points" if kept else "corrector-failure")
    assert [(p.lam, p.s0) for p in br.points] == ([seed, point] if kept else [seed])


def test_trace_crosses_a_node_with_an_unbounded_slope():
    # at alpha = 0.5, a' ~ d^(-1/2) at the node, which every Newton shot
    # crosses: the node takes a finite slope, and the branch climbs past its
    # fold to the point cap
    fam = ProblemFamily(power_weight(1.0, 0.5, 2.0, 0.5, 0.4), Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.0018))
    br = trace(fam, seed_from_lambda0(fam), step=0.1, max_points=12, lam_max=1e3)
    assert br.terminated_by == "max-points" and len(br.points) == 12
    assert br.folds == [3]
    assert all(p.residual <= 1e-8 for p in br.points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_partial_blocks_the_shot(monkeypatch, bad):
    from curvebif import continuation

    monkeypatch.setattr(continuation, "shoot_partials", lambda pb, s0: (0.0, -1.0, bad, (s0, 0.1)))
    assert continuation._shot(ProblemFamily(None, None), 1.0, 0.5) is continuation._BLOCKED
