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

shoot_partials also returns d theta(1)/d lam and d theta(1)/d s0, carried
through the same march by the variational equations (Hairer, Norsett and
Wanner, Solving ODEs I, section I.14), with a saltation jump at each jump
of a and the event-time correction at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import curvature_residual, neumann_balance
from .util import bisect_bracket, scan_brackets

__all__ = [
    "ArcPath",
    "Blocked",
    "Solution",
    "RegularSolution",
    "integrate_path",
    "shoot_residual",
    "shoot_partials",
    "find_regular",
]

_RTOL = 1e-11
_ATOL = (1e-12, 1e-12, 1e-13)
_U_MAX = 1e15  # height at which a shot stops with terminal "cap"
_NFEV_MAX = 4_000_000  # right-hand-side calls per march; past it the march ends on "cap"
_EPS_NEG = 1e-9  # how far below zero a trajectory may dip
# stored-path spacing (max angle change, max x advance) per mesh interval
_SHOOT_MESH = (5e-4, 2e-3)
# about EPS^(1/3): the central differences' step for a'(x) (x lies in [0, 1]) and, times |u|, for f'(u)
_CD_STEP = 6e-6
_SQRT3 = math.sqrt(3.0)


class _BudgetSpent(Exception):
    """Raised by a march's right-hand side past _NFEV_MAX calls."""


@dataclass
class ArcPath:
    """One integrated graph with its termination event.

    terminal is one of "reached" (hit the target x), "vertical" (tangent
    angle reached -pi/2 or +pi/2), "u_zero" (height hit zero while sloped),
    "cap" (height past _U_MAX, or the arclength or right-hand-side budget
    spent) or "failure".  nfev counts right-hand-side calls.  partials is
    (d theta_end/d lam, d theta_end/d u_start) when the march carried
    sensitivities and reached its target, else None; a dead-core tail
    gives nan.
    """

    xs: np.ndarray
    us: np.ndarray
    thetas: np.ndarray
    terminal: str
    state_end: tuple
    dead_core: bool
    nfev: int
    partials: tuple | None = None

    @property
    def theta_end(self):
        """theta at the target when the march reached it, else None."""
        return self.state_end[2] if self.terminal == "reached" else None


@dataclass(frozen=True)
class Blocked:
    """Value returned by shoot_residual when the path never reaches x = 1."""

    event: str
    x_stop: float
    state: tuple


class Solution:
    """The one shape of a solution: its pieces, left to right.

    A piece is a monotone graph as (xs, us, dus) arrays, increasing in x.
    A regular solution is one piece on [0, 1]; a jump solution is two,
    meeting the node with vertical tangents.  Subclasses define pieces.
    """

    @property
    def sup_norm(self):
        return max(float(np.max(us)) for _, us, _ in self.pieces)

    @property
    def deriv_norm(self):
        return max(float(np.max(np.abs(dus))) for _, _, dus in self.pieces)

    def u_at(self, x):
        """u at x, taken on the first piece that reaches x (the last one past all ends)."""
        x = np.asarray(x, dtype=float)
        *inner, (xs, us, _) = self.pieces
        out = np.interp(x, xs, us)
        for xs, us, _ in reversed(inner):
            out = np.where(x <= xs[-1], np.interp(x, xs, us), out)
        return float(out) if out.ndim == 0 else out


def _mesh(pieces):
    """The pieces in order as one (n, 3) float array of rows (x, u, u')."""
    rows = np.empty((sum(len(xs) for xs, _, _ in pieces), 3))
    for j, column in enumerate(zip(*pieces)):
        np.concatenate(column, out=rows[:, j])
    return rows


def _path_piece(path):
    """A stored path as one (xs, us, dus) piece, increasing in x.

    In march order, a point within 1e-14 in x of the point before it is
    dropped.  theta is clipped to [-pi/2, pi/2] before its tangent is
    taken: a vertical event lands within roundoff of +-pi/2, and the clip
    keeps the infinite slope's sign.
    """
    xs, us, thetas = path.xs, path.us, path.thetas
    keep = np.concatenate([[True], np.abs(np.diff(xs)) > 1e-14])
    if xs[-1] < xs[0]:  # a backward march
        xs, us, thetas, keep = xs[::-1], us[::-1], thetas[::-1], keep[::-1]
    dus = thetas[keep]
    np.clip(dus, -math.pi / 2.0, math.pi / 2.0, out=dus)
    return xs[keep], us[keep], np.tan(dus, out=dus)


@dataclass
class RegularSolution(Solution):
    """Converged Neumann solution on its reporting mesh: one piece."""

    lam: float
    xs: np.ndarray
    us: np.ndarray
    dus: np.ndarray
    residual: float
    balance: float
    theta_end: float
    dead_core: bool = False
    kind: str = "regular"

    @property
    def pieces(self):
        return ((self.xs, self.us, self.dus),)

    def to_dict(self):
        """Summary with "mesh" as one (n, 3) float array of rows (x, u, u')."""
        return {
            "lambda": self.lam,
            "mesh": _mesh(self.pieces),
            "residual": self.residual,
            "kind": "regular",
            "jump": 0.0,
            "balance": self.balance,
            "sup_norm": self.sup_norm,
            "dead_core": self.dead_core,
        }


def _event(fn, direction):
    fn.terminal = True
    fn.direction = direction
    return fn


# the events every march watches besides its segment's x edge, with the
# terminal each one ends the march on
_EVENTS = (
    (_event(lambda s, y: y[2] + math.pi / 2.0, -1.0), "vertical"),
    (_event(lambda s, y: y[2] - math.pi / 2.0, 1.0), "vertical"),
    (_event(lambda s, y: y[1] + _EPS_NEG, -1.0), "u_zero"),
    (_event(lambda s, y: abs(y[1]) - _U_MAX, 1.0), "cap"),
)
_EVENT_FNS = tuple(ev for ev, _ in _EVENTS)


def _march(pb, x_start, u_start, theta_start, x_target, *, collect, atol=None, partials=False):
    """Integrate the arclength system from x_start toward x_target.

    Returns an ArcPath.  collect is None for a scan shot, which skips mesh
    assembly, or the (dtheta, dx) spacing of the stored path.  atol
    overrides the per-component absolute tolerances; passing 0 for the
    height keeps relative control over exponentially small heights.

    partials=True carries d(x, u, theta)/d lam and d(x, u, theta)/d u_start
    as six more components through the same steps, events and budget, and
    sets the path's partials.  Their right-hand side is J Y + dF/d lam,
    with a'(x) and f'(u) taken by central differences of the plain-float
    kernels.  They take no part in step control: their atol is 1e300, and
    the state's rtol and atol shrink by sqrt(3), so the RMS error norm over
    nine components equals the plain shot's over three.
    """
    w, f = pb.weight, pb.f
    fs = f.scalar
    direction = 1.0 if x_target > x_start else -1.0
    lam_dir = -direction * pb.lam
    spans = w.spans(min(x_start, x_target), max(x_start, x_target))
    if direction < 0:
        spans.reverse()
    z = w.z

    y = np.array([x_start, u_start, theta_start], dtype=float)
    s_accum = 0.0
    s_budget = 6.0 + 4.0 * abs(u_start)  # arclength budget
    nfev = 0  # right-hand-side calls, counted by rhs
    nfev_max = _NFEV_MAX
    dead_core = False
    ys_parts = []
    rtol = _RTOL
    atol = _ATOL if atol is None else atol
    if partials:
        # d/d lam starts at 0 and d/d u_start at (0, 1, 0)
        y = np.concatenate([y, (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)])
        rtol = _RTOL / _SQRT3
        atol = np.concatenate([np.broadcast_to(atol, 3) / _SQRT3, np.full(6, 1e300)])
    a = None  # the current segment's a

    terminal = "reached"  # also the end of a march with no span to cross
    theta_partials = None

    try:
        for lo, hi, form in spans:
            edge = hi if direction > 0 else lo
            a_prev, a = a, form.scalar(z)
            if partials and a_prev is not None:
                _saltation(y, lam_dir * (a_prev(y[0]) - a(y[0])) * fs(y[1]), direction)

            if partials:

                def rhs(s, yv, a=a):
                    nonlocal nfev
                    nfev += 1
                    if nfev > nfev_max:
                        raise _BudgetSpent
                    x, u, th, x_l, u_l, th_l, x_s, u_s, th_s = yv.tolist()
                    dx, du = direction * math.cos(th), direction * math.sin(th)
                    ax, fu = a(x), fs(u)
                    hu = _CD_STEP * abs(u) or _CD_STEP
                    # d(theta')/dx and d(theta')/du
                    gx = lam_dir * (a(x + _CD_STEP) - a(x - _CD_STEP)) / (2.0 * _CD_STEP) * fu
                    gu = lam_dir * ax * (fs(u + hu) - fs(u - hu)) / (2.0 * hu)
                    return np.array(
                        [
                            dx,
                            du,
                            lam_dir * ax * fu,
                            -du * th_l,
                            dx * th_l,
                            gx * x_l + gu * u_l - direction * ax * fu,
                            -du * th_s,
                            dx * th_s,
                            gx * x_s + gu * u_s,
                        ]
                    )

            else:

                def rhs(s, yv, a=a):
                    nonlocal nfev
                    nfev += 1
                    if nfev > nfev_max:
                        raise _BudgetSpent
                    x, u, th = yv.tolist()
                    return np.array([direction * math.cos(th), direction * math.sin(th), lam_dir * a(x) * fs(u)])

            ev_edge = _event(lambda s, yv: yv[0] - edge, direction)

            out = solve_ivp(
                rhs,
                (s_accum, s_budget),
                y,
                method="DOP853",
                rtol=rtol,
                atol=atol,
                dense_output=collect is not None,
                events=(ev_edge, *_EVENT_FNS),
            )

            stored = collect and len(out.t) > 1
            if stored:
                ys_parts.append(_subsample(out, *collect))

            y = out.y[:, -1]
            s_accum = out.t[-1]

            if out.status == -1:
                terminal = "failure"
                break
            if out.status == 0:
                terminal = "cap"
                break
            which = next(i for i, te in enumerate(out.t_events) if len(te))
            if which == 0:
                # the event lands within brentq's tolerance of the edge: snap onto it
                y = np.array(out.y_events[0][-1])
                y[0] = edge
                s_accum = out.t_events[0][-1]
                if abs(edge - x_target) < 1e-14:
                    if stored:
                        # the stored path ends on the target, not at the event sample
                        ys_parts[-1][:, -1] = y[:3]
                    break
                continue  # next weight segment
            y = np.array(out.y_events[which][-1])
            terminal = _EVENTS[which - 1][1]
            # the landing manifold has |theta| ~ |u|^(3/4) near touchdown, so
            # grazing crossings arrive well inside this angle tolerance
            if (
                terminal == "u_zero"
                and f.p < 1.0
                and direction > 0
                and y[0] > z
                and abs(y[2]) <= 1e-5
                and abs(y[1]) <= 10 * _EPS_NEG
            ):
                # dead core: f(0) = 0 makes u == 0 an exact continuation
                dead_core = True
                terminal = "reached"
                if collect:
                    tail_x = np.linspace(y[0], x_target, 65)
                    ys_parts.append(np.vstack([tail_x, np.zeros_like(tail_x), np.zeros_like(tail_x)]))
                y = np.array([x_target, 0.0, 0.0])
                if partials:
                    # the tail's sensitivities are not carried
                    theta_partials = (math.nan, math.nan)
            break
    except _BudgetSpent:
        # the march ends where its last finished segment left it
        terminal = "cap"

    if partials and terminal == "reached" and theta_partials is None:
        # theta at the target moves with the event time: d theta_end/dp = theta_p - theta' x_p / x'
        # (x_p = 0 when no span was crossed)
        ratio = 0.0 if a is None else lam_dir * a(y[0]) * fs(y[1]) / (direction * math.cos(y[2]))
        theta_partials = (float(y[5] - ratio * y[3]), float(y[8] - ratio * y[6]))

    if collect and ys_parts:
        xs, us, thetas = np.hstack(ys_parts)
    else:
        xs = np.array([x_start, y[0]])
        us = np.array([u_start, y[1]])
        thetas = np.array([theta_start, y[2]])

    return ArcPath(
        xs=xs,
        us=us,
        thetas=thetas,
        terminal=terminal,
        state_end=(float(y[0]), float(y[1]), float(y[2])),
        dead_core=dead_core,
        nfev=nfev,
        partials=theta_partials,
    )


def _saltation(y, jump, direction):
    """Shift the sensitivities in y across a jump (F- - F+)_theta of theta' at an x edge.

    The edge is met at an arclength s* with ds*/dp = -x_p / x', so
    theta_p gains jump * ds*/dp (saltation matrix; x_p and u_p are
    continuous because x' and u' are).
    """
    x_dot = direction * math.cos(y[2])
    y[5] -= jump * y[3] / x_dot
    y[8] -= jump * y[6] / x_dot


def _subsample(out, dtheta, dx):
    """States on the accepted steps, refined so mesh intervals stay small in angle and x."""
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
    return out.sol(np.concatenate(pieces))[:3]


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


def shoot_partials(pb, s0):
    """(theta(1), d theta(1)/d lam, d theta(1)/d s0) from one augmented shot, or Blocked as shoot_residual.

    The partials are nan where the shot ends on a dead-core tail.
    """
    if s0 < 0:
        raise ValueError("initial height must be nonnegative")
    path = _march(pb, 0.0, s0, 0.0, 1.0, collect=None, partials=True)
    if path.terminal == "reached":
        return (path.theta_end, *path.partials)
    return Blocked(path.terminal, path.state_end[0], path.state_end)


def _classify(pb, s0):
    """Residual with surrogate signs for bracketing, as (value, exact).

    Paths that hit the trivial line while sloped are undershoots (negative
    surrogate), downward vertical tangents are deeper undershoots, upward
    ones are overshoots (positive surrogate).  Surrogates only steer the
    refinement, which bisects while an end is one: they are never exact
    and never smaller than 0.1 in size, so a root is accepted only at a
    path that truly reaches x = 1 with a tiny residual, and a surrogate can
    never mint a solution.
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
    xs, us, dus = _path_piece(path)
    return RegularSolution(
        lam=pb.lam,
        xs=xs,
        us=us,
        dus=dus,
        residual=curvature_residual(pb, xs, us, dus),
        balance=neumann_balance(pb, xs, us),
        theta_end=path.theta_end if path.theta_end is not None else float("nan"),
        dead_core=path.dead_core,
    )


def find_regular(pb, s_min=1e-6, s_max=1e3, n_scan=64, theta_tol=1e-10):
    """All regular Neumann solutions with initial height in [s_min, s_max].

    Scans log-spaced heights, brackets sign changes of the shooting
    residual, refines each bracket (util.bisect_bracket: inverse quadratic
    or secant steps in log height between exact ends, bisection while an
    end is a surrogate) to |theta(1)| <= theta_tol (or, when
    the bracket collapses first, to its best reaching path within 1e-6),
    and deduplicates by sup norm.  An empty list is meaningful: no
    regular solution has its height in the scanned window.
    """
    if not (0 <= pb.lam < math.inf):
        raise ValueError("solvers accept finite lam >= 0 only")
    if not (0 < s_min < s_max < math.inf):
        raise ValueError(f"need 0 < s_min < s_max < inf for the height window, got [{s_min}, {s_max}]")
    if n_scan < 16:
        raise ValueError("need n_scan >= 16")

    roots = []
    for lo, hi, lo_positive in scan_brackets(lambda s: _classify(pb, s), s_min, s_max, n_scan):
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
