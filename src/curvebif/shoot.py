"""Arclength shooting for the curvature equation.

A solution graph is followed in arclength variables (x, u, theta) with

    dx/ds = cos(theta),  du/ds = sin(theta),  dtheta/ds = -lam a(x) f(u),

which reproduces the equation because sin(theta) is exactly the flux
u'/sqrt(1 + u'^2).  Vertical tangents are ordinary interior points of this
system, so near-singular graphs are integrated without stiffness.  The
Neumann residual of a shot is theta at x = 1, a smooth function of the
initial height, and regular solutions are the bracketed roots of that
residual.

Weight discontinuities are integration breakpoints: each segment is
integrated separately and the step never straddles the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import curvature_residual, neumann_balance
from .util import bisect_bracket, scan_brackets

__all__ = ["ArcPath", "Blocked", "RegularSolution", "integrate_path", "shoot_residual", "find_regular"]

_RTOL = 1e-11
_ATOL = (1e-12, 1e-12, 1e-13)
_U_MAX = 1e15  # height at which a shot stops with terminal "cap"
_NFEV_MAX = 4_000_000  # checked after the shot, so it does not bound the work
_EPS_NEG = 1e-9  # how far below zero a trajectory may dip
# stored-path spacing (max angle change, max x advance) per mesh interval
_SHOOT_MESH = (5e-4, 2e-3)


@dataclass
class ArcPath:
    """One integrated graph with its termination event.

    terminal is one of "reached" (hit the target x), "vertical" (tangent
    angle reached -pi/2 or +pi/2), "u_zero" (height hit zero while sloped),
    "cap" (budget exhausted) or "failure".
    """

    lam: float
    s0: float
    ss: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    thetas: np.ndarray
    terminal: str
    state_end: tuple
    theta_end: float | None
    dead_core: bool
    min_cos: float
    nfev: int

    @property
    def dus(self):
        return np.tan(self.thetas)


@dataclass(frozen=True)
class Blocked:
    """Value returned by shoot_residual when the path never reaches x = 1."""

    event: str
    x_stop: float
    state: tuple


@dataclass
class RegularSolution:
    """Converged Neumann solution on its reporting mesh."""

    lam: float
    xs: np.ndarray
    us: np.ndarray
    dus: np.ndarray
    sup_norm: float
    deriv_norm: float
    residual: float
    balance: float
    theta_end: float
    min_cos: float
    dead_core: bool = False
    kind: str = "regular"

    def u_at(self, x):
        return np.interp(x, self.xs, self.us)

    def to_dict(self):
        """Summary with "mesh" as one (n, 3) float array of rows (x, u, u')."""
        return {
            "lambda": self.lam,
            "mesh": np.column_stack([self.xs, self.us, self.dus]),
            "residual": self.residual,
            "kind": "regular",
            "jump": 0.0,
            "balance": self.balance,
            "sup_norm": self.sup_norm,
            "dead_core": self.dead_core,
        }


def _nudge_to_x(rhs, y, target):
    """March the state to x = target exactly with a few small RK4 steps."""
    for _ in range(4):
        gap = target - y[0]
        c = math.cos(y[2])
        if abs(gap) < 1e-15 or abs(c) < 1e-12:
            break
        ds = gap / c
        k1 = rhs(0.0, y)
        k2 = rhs(0.0, y + 0.5 * ds * k1)
        k3 = rhs(0.0, y + 0.5 * ds * k2)
        k4 = rhs(0.0, y + ds * k3)
        y = y + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y[0] = target
    return y


def _march(pb, x_start, u_start, theta_start, x_target, *, collect, atol=None):
    """Integrate the arclength system from x_start toward x_target.

    Returns an ArcPath.  collect is None for a scan shot, which skips mesh
    assembly, or the (dtheta, dx) spacing of the stored path.  atol
    overrides the per-component absolute tolerances; passing 0 for the
    height keeps relative control over exponentially small heights.
    """
    w, f, lam = pb.weight, pb.f, pb.lam
    direction = 1.0 if x_target > x_start else -1.0
    spans = w.spans(min(x_start, x_target), max(x_start, x_target))
    if direction < 0:
        spans.reverse()
    z = w.z

    y = np.array([x_start, u_start, theta_start], dtype=float)
    s_accum = 0.0
    s_budget = 6.0 + 4.0 * abs(u_start)  # arclength budget
    nfev = 0
    min_cos = math.cos(theta_start)
    dead_core = False
    ss_parts, ys_parts = [], []
    atol = _ATOL if atol is None else atol

    terminal = "reached"
    theta_end = None

    for lo, hi, form in spans:
        edge = hi if direction > 0 else lo

        def rhs(s, yv, form=form):
            return np.array(
                [
                    direction * math.cos(yv[2]),
                    direction * math.sin(yv[2]),
                    -direction * lam * float(form.value(yv[0], z)) * f(yv[1]),
                ]
            )

        def ev_edge(s, yv):
            return yv[0] - edge

        ev_edge.terminal = True
        ev_edge.direction = direction

        def ev_vert_dn(s, yv):
            return yv[2] + math.pi / 2.0

        ev_vert_dn.terminal = True
        ev_vert_dn.direction = -1.0

        def ev_vert_up(s, yv):
            return yv[2] - math.pi / 2.0

        ev_vert_up.terminal = True
        ev_vert_up.direction = 1.0

        def ev_uzero(s, yv):
            return yv[1] + _EPS_NEG

        ev_uzero.terminal = True
        ev_uzero.direction = -1.0

        def ev_ucap(s, yv):
            return abs(yv[1]) - _U_MAX

        ev_ucap.terminal = True
        ev_ucap.direction = 1.0

        out = solve_ivp(
            rhs,
            (s_accum, s_budget),
            y,
            method="DOP853",
            rtol=_RTOL,
            atol=atol,
            dense_output=collect is not None,
            events=(ev_edge, ev_vert_dn, ev_vert_up, ev_uzero, ev_ucap),
        )
        nfev += out.nfev

        stored = collect and len(out.t) > 1
        if stored:
            ss_seg, ys_seg = _subsample(out, *collect)
            ss_parts.append(ss_seg)
            ys_parts.append(ys_seg)
            min_cos = min(min_cos, float(np.min(np.cos(ys_seg[2]))))
        else:
            min_cos = min(min_cos, float(np.min(np.cos(out.y[2]))))

        y = out.y[:, -1]
        s_accum = out.t[-1]

        if out.status == -1:
            terminal = "failure"
            break
        if out.status == 0:
            terminal = "cap"
            break
        fired = [i for i, te in enumerate(out.t_events) if len(te)]
        which = fired[0] if fired else 0
        if which == 0:
            y = _nudge_to_x(rhs, np.array(out.y_events[0][-1]), edge)
            s_accum = out.t_events[0][-1]
            if abs(edge - x_target) < 1e-14:
                terminal = "reached"
                theta_end = float(y[2])
                if stored:
                    # the stored path ends on the target, not at the event sample
                    ys_parts[-1][:, -1] = y
                break
            continue  # next weight segment
        if which in (1, 2):
            y = np.array(out.y_events[which][-1])
            terminal = "vertical"
            break
        if which == 3:
            y = np.array(out.y_events[3][-1])
            # the landing manifold has |theta| ~ |u|^(3/4) near touchdown, so
            # grazing crossings arrive well inside this angle tolerance
            if (
                f.p < 1.0
                and direction > 0
                and y[0] > z
                and abs(y[2]) <= 1e-5
                and abs(y[1]) <= 10 * _EPS_NEG
            ):
                # dead core: f(0) = 0 makes u == 0 an exact continuation
                dead_core = True
                terminal = "reached"
                theta_end = 0.0
                if collect:
                    tail_x = np.linspace(y[0], x_target, 65)
                    ss_parts.append(s_accum + (tail_x - y[0]))
                    ys_parts.append(np.vstack([tail_x, np.zeros_like(tail_x), np.zeros_like(tail_x)]))
                y = np.array([x_target, 0.0, 0.0])
                break
            terminal = "u_zero"
            break
        terminal = "cap"
        break

    else:
        if abs(y[0] - x_target) < 1e-12:
            terminal = "reached"
        else:
            terminal = "failure"

    if terminal == "reached" and theta_end is None:
        theta_end = float(y[2])
    if nfev > _NFEV_MAX:
        terminal = "cap"

    if collect and ss_parts:
        ss = np.concatenate(ss_parts)
        ys = np.hstack(ys_parts)
        xs, us, thetas = ys[0], ys[1], ys[2]
    else:
        ss = np.array([0.0, s_accum])
        xs = np.array([x_start, y[0]])
        us = np.array([u_start, y[1]])
        thetas = np.array([theta_start, y[2]])

    return ArcPath(
        lam=lam,
        s0=u_start,
        ss=ss,
        xs=xs,
        us=us,
        thetas=thetas,
        terminal=terminal,
        state_end=(float(y[0]), float(y[1]), float(y[2])),
        theta_end=theta_end,
        dead_core=dead_core,
        min_cos=min_cos,
        nfev=nfev,
    )


def _subsample(out, dtheta, dx):
    """Refine the accepted steps so mesh intervals stay small in angle and x."""
    ts = out.t
    tha = out.y[2]
    xa = out.y[0]
    pieces = [np.array([ts[0]])]
    for i in range(len(ts) - 1):
        k = max(
            1,
            int(math.ceil(abs(tha[i + 1] - tha[i]) / dtheta)),
            int(math.ceil(abs(xa[i + 1] - xa[i]) / dx)),
        )
        k = min(k, 200_000)
        pieces.append(np.linspace(ts[i], ts[i + 1], k + 1)[1:])
    ss = np.concatenate(pieces)
    return ss, out.sol(ss)


def integrate_path(pb, s0, collect=_SHOOT_MESH):
    """Shoot from (x, u, theta) = (0, s0, 0) toward x = 1.

    s0 >= 0; probing runs with s0 = 0 ride the trivial line.  collect is
    the stored-path spacing, or None for an endpoint-only shot.  The
    returned path carries the termination event; theta_end is set when
    x = 1 was reached.
    """
    if s0 < 0:
        raise ValueError("initial height must be nonnegative")
    return _march(pb, 0.0, s0, 0.0, 1.0, collect=collect)


def shoot_residual(pb, s0):
    """theta at x = 1, or Blocked with the terminating event."""
    path = integrate_path(pb, s0, collect=None)
    if path.terminal == "reached":
        return path.theta_end
    return Blocked(path.terminal, path.state_end[0], path.state_end)


def _classify(pb, s0):
    """Residual with surrogate signs for bracketing, as (value, exact).

    Paths that hit the trivial line while sloped are undershoots (negative
    surrogate), downward vertical tangents are deeper undershoots, upward
    ones are overshoots (positive surrogate).  Surrogates only steer the
    bisection: they are never exact and never smaller than 0.1 in size, so
    a root is accepted only at a path that truly reaches x = 1 with a tiny
    residual, and a surrogate can never mint a solution.
    """
    path = integrate_path(pb, s0, collect=None)
    if path.terminal == "reached":
        return path.theta_end, True
    if path.terminal == "u_zero":
        x_stop, _, th = path.state_end
        return -(0.1 + max(0.0, 1.0 - x_stop)) + min(th, 0.0), False
    if path.terminal == "vertical":
        return (-math.pi if path.state_end[2] < 0.0 else math.pi), False
    return None, False


def solution_from_path(pb, path):
    xs, us, dus = _clean_mesh(path)
    return RegularSolution(
        lam=pb.lam,
        xs=xs,
        us=us,
        dus=dus,
        sup_norm=float(np.max(us)),
        deriv_norm=float(np.max(np.abs(dus))),
        residual=curvature_residual(pb, xs, us, dus),
        balance=neumann_balance(pb, xs, us),
        theta_end=path.theta_end if path.theta_end is not None else float("nan"),
        min_cos=path.min_cos,
        dead_core=path.dead_core,
    )


def _clean_mesh(path):
    xs, us, thetas = path.xs, path.us, path.thetas
    keep = np.concatenate([[True], np.diff(xs) > 1e-14])
    xs, us, thetas = xs[keep], us[keep], thetas[keep]
    return xs, us, np.tan(thetas)


def find_regular(pb, s_min=1e-6, s_max=1e3, n_scan=64, theta_tol=1e-10):
    """All regular Neumann solutions with initial height in [s_min, s_max].

    Scans log-spaced heights, brackets sign changes of the shooting
    residual, refines each bracket by bisection to |theta(1)| <= theta_tol
    (or, when the bracket collapses first, to its best reaching path within
    1e-6), and deduplicates by sup norm.  An empty list is meaningful: no
    regular solution has its height in the scanned window.
    """
    if not (0 <= pb.lam < math.inf):
        raise ValueError("solvers accept finite lam >= 0 only")
    if not (0 < s_min < s_max):
        raise ValueError("need 0 < s_min < s_max")
    if n_scan < 16:
        raise ValueError("need n_scan >= 16")

    brackets = scan_brackets(lambda s: _classify(pb, s), s_min, s_max, n_scan)
    roots = []
    for lo, hi, lo_positive in brackets:
        root = _bisect_height(pb, lo, hi, lo_positive, theta_tol)
        if root is not None:
            roots.append(root)

    solutions = []
    for s0 in roots:
        path = integrate_path(pb, s0)
        if path.terminal != "reached":
            continue
        sol = solution_from_path(pb, path)
        if np.min(sol.us) < -1e-7 * max(1.0, sol.sup_norm):
            continue
        if any(abs(sol.sup_norm - s.sup_norm) <= 1e-6 * max(1.0, s.sup_norm) for s in solutions):
            continue
        solutions.append(sol)
    solutions.sort(key=lambda s: s.sup_norm)
    return solutions


def _bisect_height(pb, lo, hi, lo_positive, theta_tol):
    return bisect_bracket(lambda s: _classify(pb, s), lo, hi, lo_positive, theta_tol, 1e-15, 200)
