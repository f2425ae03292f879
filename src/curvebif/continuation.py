"""Pseudo-arclength continuation of the shooting residual in (lam, height).

The solution set of the Neumann problem reduces, through the shooting map,
to the zero set of R(lam, s0) = theta(1; lam, s0) in the plane.  trace()
follows that curve with a secant predictor and a damped-Newton corrector
under an arclength normalization, recording folds and flagging points
whose graphs pass close to vertical.  Steps are measured in per-point
relative scales of (lam, s0) so branches that span decades advance in a
logarithmic number of steps.

Every Newton here (the corrector, the start's tangent and
solve_lambda_at_height) reads the exact Jacobian (dR/d lam, dR/d s0) from
the same augmented shot that gives R (shoot.shoot_partials), so an
iteration costs one shot and no finite-difference step meets the
integration noise of R.  That shot also gives the path's max u and max
|theta|, so a kept point reads its sup norm, slope and kind from the shot
the corrector accepted; its one more shot is a plain, unstored gate on
|theta(1)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import eigen, emit, singular
from .shoot import Blocked, integrate_path, shoot_partials

__all__ = [
    "BranchPoint",
    "Branch",
    "trace",
    "singular_sweep",
    "seed_from_lambda0",
    "solve_lambda_at_height",
    "diagram",
    "DiagramRecord",
]

NEAR_SINGULAR_COS = 1e-3
_H_MIN = 1e-7  # smallest predictor step before the trace gives up
_CORRECTOR_TOL = 1e-8  # |theta(1)| accepted by the corrector


@dataclass
class BranchPoint:
    lam: float
    s0: float
    sup_norm: float
    deriv_norm: float
    kind: str  # "regular" | "near-singular"
    residual: float  # |theta(1)| of the plain, unstored gate shot


@dataclass
class Branch:
    points: list
    origin: str
    terminated_by: str
    terminal_lam: float | None = None

    @property
    def folds(self):
        """Indices where the lam increment changes sign."""
        lams = [p.lam for p in self.points]
        out = []
        for i in range(1, len(lams) - 1):
            d0 = lams[i] - lams[i - 1]
            d1 = lams[i + 1] - lams[i]
            if d0 * d1 < 0:
                out.append(i)
        return out

    @property
    def rows(self):
        """The branch as diagram rows (lam, sup_norm, kind)."""
        return [(p.lam, p.sup_norm, p.kind) for p in self.points]


_BLOCKED = (math.nan, math.nan, math.nan, None)


def _shot(pb_family, lam, s0):
    """(R, dR/d lam, dR/d s0, extrema) at (lam, s0), as shoot_partials.

    Blocked shots and non-finite partials give _BLOCKED: nan, and no extrema.
    """
    if lam < 0 or s0 < 0:
        return _BLOCKED
    got = shoot_partials(pb_family.at(lam), s0)
    if isinstance(got, Blocked) or not all(math.isfinite(v) for v in got[:3]):
        return _BLOCKED
    return got


def _scales(lam, s0):
    return max(abs(lam), 1e-2), max(abs(s0), 1e-4)


def _corrector(pb_family, lam, s0, tangent, ref):
    """Damped Newton on (residual, arclength normalization), at most 10 steps.

    Each accepted shot gives the next step's residual and Jacobian.
    Returns (lam, s0, extrema) with the extrema of the last accepted shot,
    or None.
    """
    sl, ss = _scales(*ref)
    r, j00, j01, extrema = _shot(pb_family, lam, s0)
    if math.isnan(r):
        return None
    j10 = tangent[0] / sl
    j11 = tangent[1] / ss
    for _ in range(10):
        n = tangent[0] * (lam - ref[0]) / sl + tangent[1] * (s0 - ref[1]) / ss
        if abs(r) <= _CORRECTOR_TOL and abs(n) <= 1e-9:
            return lam, s0, extrema
        det = j00 * j11 - j01 * j10
        if abs(det) < 1e-300:
            return None
        step_l = -(r * j11 - n * j01) / det
        step_s = -(n * j00 - r * j10) / det
        damp = 1.0
        base = abs(r) + abs(n)
        for _ in range(6):
            cand = (lam + damp * step_l, s0 + damp * step_s)
            rc, jl, js, ec = _shot(pb_family, cand[0], cand[1])
            nc = tangent[0] * (cand[0] - ref[0]) / sl + tangent[1] * (cand[1] - ref[1]) / ss
            if not math.isnan(rc) and abs(rc) + abs(nc) < base:
                (lam, s0), r, j00, j01, extrema = cand, rc, jl, js, ec
                break
            damp *= 0.5
        else:
            return None
    if abs(r) <= _CORRECTOR_TOL:
        return lam, s0, extrema
    return None


def _tangent_fd(lam, s0, r_lam, r_s0):
    """Unit tangent of the residual's zero curve at (lam, s0) from its exact partials r_lam, r_s0.

    The name is kept, though no finite difference is taken, because the
    benchmark's tracer wraps it.
    """
    sl, ss = _scales(lam, s0)
    rl, rs = r_lam * sl, r_s0 * ss
    norm = math.hypot(rl, rs)
    if norm == 0 or math.isnan(norm):
        return (0.0, 1.0)
    return (rs / norm, -rl / norm)


def _point_diagnostics(pb_family, lam, s0, extrema):
    """The BranchPoint at (lam, s0), or None when its plain gate shot does not reach x = 1.

    extrema is (max u, max |theta|) of the augmented shot at (lam, s0):
    it gives the sup norm, deriv_norm = tan(max |theta|) and the kind,
    near-singular when cos(max |theta|) < NEAR_SINGULAR_COS.  residual is
    |theta(1)| of one plain, unstored shot; trace keeps the point only when
    it is at most the corrector's tolerance.
    """
    path = integrate_path(pb_family.at(lam), s0, collect=None)
    if path.terminal != "reached":
        return None
    u_max, theta_max = extrema
    theta_max = min(theta_max, math.pi / 2.0)
    kind = "near-singular" if math.cos(theta_max) < NEAR_SINGULAR_COS else "regular"
    return BranchPoint(lam, s0, u_max, math.tan(theta_max), kind, abs(path.theta_end))


def trace(
    pb_family,
    start,
    step=0.05,
    max_points=200,
    lam_max=1e3,
    direction=(0.0, 1.0),
    origin="Manual",
):
    """Follow the branch of Neumann solutions through (lam, s0) space.

    start must satisfy |theta(1)| <= 1e-6.  The trace stops at max_points,
    at lam_max, when the height leaves [1e-6, 1e7] (a return to the
    trivial line records the terminal lam), or when the corrector keeps
    failing at the minimum step: ahead lies a singular transition, or
    shots that alternate between reaching x = 1 and turning vertical just
    past the node, where a step hid the node's segment edge.  The second
    end, met on the command line's default problem, is chaotic in the
    start's last digits.  A corrected point is kept only when its plain,
    unstored verification shot also reads |theta(1)| <= 1e-8, the
    corrector's own tolerance on the augmented shot; its sup norm, slope
    and kind come from the corrector's accepted augmented shot, so a kept
    point costs that one plain shot more.  step, the scaled predictor step,
    must be positive and finite, max_points, which counts the start point,
    a whole number at least 1 (an integral float runs as its int), and
    lam_max a number (+inf sets no cap).
    """
    if not (0 < step < math.inf):
        raise ValueError("the continuation step must be positive and finite")
    if math.isnan(lam_max):
        raise ValueError("lam_max must be a number, got nan")
    if not float(max_points).is_integer():
        raise ValueError(f"max_points must be a whole number, got {max_points}")
    max_points = int(max_points)
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    lam, s0 = float(start[0]), float(start[1])
    r0, r_lam, r_s0, extrema = _shot(pb_family, lam, s0)
    if math.isnan(r0) or abs(r0) > 1e-6:
        raise ValueError("start point is not converged (|theta(1)| > 1e-6)")

    first = _point_diagnostics(pb_family, lam, s0, extrema)
    if first is None:
        raise ValueError("start point does not integrate to x = 1")
    points = [first]
    tangent = _tangent_fd(lam, s0, r_lam, r_s0)
    if tangent[0] * direction[0] + tangent[1] * direction[1] < 0:
        tangent = (-tangent[0], -tangent[1])

    h = step
    terminated = "max-points"
    terminal_lam = None
    while len(points) < max_points:
        sl, ss = _scales(lam, s0)
        pred = (lam + h * tangent[0] * sl, s0 + h * tangent[1] * ss)
        got = _corrector(pb_family, pred[0], pred[1], tangent, pred)
        diag = None
        if got is not None:
            new_lam, new_s0, extrema = got
            if new_s0 <= 1e-6:
                terminated = "trivial-line"
                terminal_lam = new_lam
                break
            if new_lam > lam_max:
                terminated = "lambda-max"
                break
            if new_lam < 0.0:
                terminated = "lambda-min"
                break
            if new_s0 > 1e7:
                terminated = "height-max"
                break
            diag = _point_diagnostics(pb_family, new_lam, new_s0, extrema)
        # the corrector failed, or the new point's plain verification shot
        # reads above the tolerance the corrector accepted it at
        if diag is None or diag.residual > _CORRECTOR_TOL:
            if h <= _H_MIN:
                terminated = "corrector-failure"
                break
            h = max(h * 0.5, _H_MIN)
            continue
        new_tan = ((new_lam - lam) / sl / h, (new_s0 - s0) / ss / h)
        norm = math.hypot(*new_tan)
        if norm > 0:
            tangent = (new_tan[0] / norm, new_tan[1] / norm)
        lam, s0 = new_lam, new_s0
        points.append(diag)
        h = min(h * 1.6, step * 4)

    return Branch(points=points, origin=origin, terminated_by=terminated, terminal_lam=terminal_lam)


def singular_sweep(pb_family, lams):
    """Branch assembled from the two-sided jump construction over a lam sweep.

    Ordinary tracing cannot cross into the singular regime (the shooting
    residual ceases to exist there); the sweep provides the dashed tail of
    the diagram directly.  Points are flagged near-singular: their graphs
    carry vertical tangents at the node.
    """
    points = []
    for lam in sorted(float(l) for l in lams):
        got = singular.solve_singular(pb_family.at(lam))
        if isinstance(got, singular.Absent):
            continue
        points.append(BranchPoint(lam, got.us_left[0], got.sup_norm, got.deriv_norm, "near-singular", 0.0))
    return Branch(points=points, origin="SingularSweep", terminated_by="sweep-end")


def seed_from_lambda0(pb_family):
    """First branch point just off the bifurcation from the trivial line.

    Near zero f = c u, so the branch leaves the trivial line at lam0 / c,
    lam0 the principal eigenvalue of the weight; Newton adjusts lam from
    there at height 1e-3 until the shooting residual vanishes.
    """
    if pb_family.f.p != 1.0:
        raise ValueError("seeding from the eigenvalue needs a p = 1 nonlinearity")
    lam0 = eigen.principal_eigenvalue(pb_family.weight)
    s0 = 1e-3
    return solve_lambda_at_height(pb_family, s0, lam0 / pb_family.f.c), s0


def solve_lambda_at_height(pb_family, s0, lam_guess):
    """Newton in lam for theta(1; lam, s0) = 0 at fixed height, at most 60 steps.

    Each step reads d theta(1)/d lam from the same augmented shot as theta(1).
    """
    lam = float(lam_guess)
    for _ in range(60):
        r, r_lam, _, _ = _shot(pb_family, lam, s0)
        if math.isnan(r):
            raise RuntimeError("shooting blocked while solving for lam")
        if abs(r) <= 1e-10:
            return lam
        if r_lam == 0.0:
            raise RuntimeError("degenerate Newton step while solving for lam")
        lam = lam - r / r_lam
    raise RuntimeError("Newton did not converge to the requested residual")


# ---------------------------------------------------------------------------
# diagram assembly

@dataclass
class DiagramRecord:
    rows: list  # (lam, sup_norm, kind)
    csv: str
    svg: str

    @property
    def n_points(self):
        return len(self.rows)


def _kind_runs(rows):
    """One branch's (lam, sup_norm, kind) rows as svg_plot series, one per kind-constant run.

    Near-singular runs dash.  Each run after the first starts on the last
    point of the run before it, so the branch stays one joined curve.
    """
    series, run_kind = [], None
    for lam, sup, kind in rows:
        if kind != run_kind:
            run = {"x": [], "y": [], "dashed": kind == "near-singular"}
            if series:
                run["x"].append(series[-1]["x"][-1])
                run["y"].append(series[-1]["y"][-1])
            series.append(run)
            run_kind = kind
        series[-1]["x"].append(lam)
        series[-1]["y"].append(sup)
    return series


def diagram(branches, logy=False):
    """One diagram from branches given as (lam, sup_norm, kind) rows: CSV rows plus a standalone SVG.

    The CSV concatenates the branches in order; the SVG draws each branch
    as its own curve.
    """
    rows = [row for b in branches for row in b]
    series = [run for b in branches for run in _kind_runs(b)]
    csv = emit.csv_text(("lambda", "sup_norm", "kind"), rows)
    svg = emit.svg_plot(series, xlabel="lambda", ylabel="sup|u|", logy=logy)
    return DiagramRecord(rows=rows, csv=csv, svg=svg)
