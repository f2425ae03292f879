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
integrated separately and the step never straddles the node.  _walk walks
the segments, compiles each one's kernel and holds the end rule of every
shot; each march hands it its own segment integrator.  There is one fused
kernel per law: the form's scalar_and_slope gives (a(x), a'(x)), and
Nonlinearity.scalar_and_slope (f(u), f'(u)).  Plain shots read the value
halves and run on scipy's solve_ivp (DOP853).

shoot_partials also returns d theta(1)/d lam and d theta(1)/d s0, carried
by the variational equations (Hairer, Norsett and Wanner, Solving ODEs I,
section I.14) with a saltation jump at each jump of a and the event-time
correction at x = 1.  Their Jacobian is exact: a'(x) and f'(u) are the
slope halves of the same two kernel calls that give a(x) and f(u), the
derivatives of the very functions the plain shots call.  At a breakpoint
of a or of f the slope is that of the side x or u moves into; a power
form's node, where a' is infinite for an exponent below 1, takes a finite
slope, and a whole-number exponent continues its polynomial past the node,
so a step that overshoots the node meets no kink before its edge event
cuts it.  Its nine-component march runs on a plain-float DOP853 loop
(ibid., sections II.5-6): scipy's tableau, step controller, initial-step
rule and event location.  The loop over a segment's steps is generated
from scipy's coefficients on the first augmented shot (_segment_loop):
straight-line stage sums, the two kernel calls inline, step control and
the sign tests of events and peaks, so a quiet step pays neither
solve_ivp's per-call array overhead nor an interpreted loop; Python
resumes only at a step that meets an event or a peak.  The same march keeps the
path's max u and max |theta| (a peak inside a step is located on the
step's dense output), so a branch point reads its sup norm, slope and kind
from the Newton shot that produced it, with no stored re-shot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

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
# a backward march (the right jump piece) grows exponentially from heights
# hundreds of decades below one: error control on u stays relative
_BACKWARD_ATOL = (1e-12, 0.0, 1e-13)
_U_MAX = 1e15  # height at which a shot stops with terminal "cap"
_NFEV_MAX = 4_000_000  # right-hand-side calls per march; past it the march ends on "cap"
_EPS_NEG = 1e-9  # how far below zero a trajectory may dip
# stored-path spacing (max angle change, max x advance) per mesh interval
_SHOOT_MESH = (5e-4, 2e-3)
# scipy's step controller: safety factor, clip of the step-size factor, and
# the exponent of DOP853's 7th-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_EVENT_TOL = 4.0 * np.finfo(float).eps  # brentq's xtol and rtol on an event, as solve_ivp's


class _BudgetSpent(Exception):
    """Raised by the plain march's right-hand side past _NFEV_MAX calls."""


@dataclass
class ArcPath:
    """One integrated graph with its termination event.

    terminal is one of "reached" (hit the target x), "vertical" (tangent
    angle reached -pi/2 or +pi/2), "u_zero" (height hit zero while sloped),
    "cap" (height past _U_MAX, or the arclength or right-hand-side budget
    spent) or "failure".  nfev counts right-hand-side calls.  partials is
    (d theta_end/d lam, d theta_end/d u_start) when the march carried
    sensitivities and reached its target, else None; a dead-core tail
    gives nan.  extrema is (max u, max |theta|) over the march when it
    carried sensitivities, else None.
    """

    xs: np.ndarray
    us: np.ndarray
    thetas: np.ndarray
    terminal: str
    state_end: tuple
    dead_core: bool
    nfev: int
    partials: tuple | None = None
    extrema: tuple | None = None

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


def _terminal(fn, direction):
    fn.terminal = True
    fn.direction = direction
    return fn


def _event(component, source, direction):
    """A terminal solve_ivp event g(s, y): the expression source at {v} = y[component].

    source is evaluated in this module at each call, so it reads the
    current _EPS_NEG and _U_MAX.  The event keeps its component and source,
    which the compiled augmented loop inlines, and of, the same function of
    v alone, so a root is found from the one component the event reads.
    """
    fn = _terminal(eval(f"lambda s, y: {source.format(v=f'y[{component}]')}"), direction)
    fn.component, fn.source, fn.of = component, source, eval(f"lambda v: {source.format(v='v')}")
    return fn


# the events every march watches besides its segment's x edge, with the
# terminal each one ends the march on
_EVENTS = (
    (_event(2, "{v} + math.pi / 2.0", -1.0), "vertical"),
    (_event(2, "{v} - math.pi / 2.0", 1.0), "vertical"),
    (_event(1, "{v} + _EPS_NEG", -1.0), "u_zero"),
    (_event(1, "abs({v}) - _U_MAX", 1.0), "cap"),
)
_EVENT_FNS = tuple(ev for ev, _ in _EVENTS)


def _walk(pb, y, x_target, segment):
    """March the state y from x = y[0] toward x_target one weight segment at a time; the end rule of every shot.

    y is the start state: (x, u, theta), or those with their six
    sensitivities.  Each span of Weight.spans, in march order, goes to
    segment(a, edge, y, s, s_budget), which integrates it from arclength s
    with a = form.scalar_and_slope(z), the span's fused kernel
    x -> (a(x), a'(x)), and returns (end, y, s): end is the
    index of the event met in (x edge, *_EVENTS), "failure", "cap" at the
    arclength budget s_budget, or "spent" past _NFEV_MAX calls.  The budget
    is 6 + 4 |u_start|.

    Returns (terminal, y, core), terminal as ArcPath's and core the x where
    a dead core starts, else None.  An x edge snaps x onto itself and the
    march goes on to the next span unless the edge is x_target.  A spent
    march ends on "cap" at the state its last finished segment left.
    """
    w = pb.weight
    forward = x_target > y[0]
    spans = w.spans(min(y[0], x_target), max(y[0], x_target))
    if not forward:
        spans.reverse()
    s, s_budget = 0.0, 6.0 + 4.0 * abs(y[1])
    for lo, hi, form in spans:
        edge = hi if forward else lo
        end, y_end, s = segment(form.scalar_and_slope(w.z), edge, y, s, s_budget)
        if end == "spent":
            # the march ends where its last finished segment left it
            return "cap", y, None
        if end in ("failure", "cap"):
            return end, y_end, None
        if end == 0:
            # the event lands within brentq's tolerance of the edge: snap onto it
            y = (edge, *y_end[1:])
            if abs(edge - x_target) < 1e-14:
                break
            continue  # next weight segment
        terminal, y = _EVENTS[end - 1][1], y_end
        # the landing manifold has |theta| ~ |u|^(3/4) near touchdown, so
        # grazing crossings arrive well inside this angle tolerance
        if (
            terminal == "u_zero"
            and pb.f.p < 1.0
            and forward
            and y[0] > w.z
            and abs(y[2]) <= 1e-5
            and abs(y[1]) <= 10 * _EPS_NEG
        ):
            # dead core: f(0) = 0 makes u == 0 an exact continuation
            return "reached", (x_target, 0.0, 0.0), y[0]
        return terminal, y, None
    return "reached", y, None


def _march(pb, x_start, u_start, theta_start, x_target, *, collect):
    """Integrate the arclength system from x_start toward x_target with solve_ivp.

    Returns an ArcPath.  collect is None for a scan shot, which skips mesh
    assembly, or the (dtheta, dx) spacing of the stored path.  Every plain
    shot, forward or backward, stored or not, runs here; the augmented
    march of shoot_partials is _march_partials.  _walk ends the march; each
    of its segments is one solve_ivp call, whose right-hand side reads
    the value halves of the two fused kernels.
    """
    f = pb.f.scalar_and_slope
    direction = 1.0 if x_target > x_start else -1.0
    lam_dir = -direction * pb.lam
    atol = _ATOL if direction > 0 else _BACKWARD_ATOL
    nfev = 0  # right-hand-side calls, counted by rhs
    nfev_max = _NFEV_MAX
    ys_parts = []
    stored = False  # whether the last segment added to ys_parts

    def segment(a, edge, y, s, s_budget):
        nonlocal stored

        def rhs(s, yv):
            nonlocal nfev
            nfev += 1
            if nfev > nfev_max:
                raise _BudgetSpent
            x, u, th = yv.tolist()
            return np.array([direction * math.cos(th), direction * math.sin(th), lam_dir * a(x)[0] * f(u, 0.0)[0]])

        try:
            out = solve_ivp(
                rhs,
                (s, s_budget),
                y,
                method="DOP853",
                rtol=_RTOL,
                atol=atol,
                dense_output=collect is not None,
                events=(_terminal(lambda s, yv: yv[0] - edge, direction), *_EVENT_FNS),
            )
        except _BudgetSpent:
            return "spent", y, s
        stored = collect and len(out.t) > 1
        if stored:
            ys_parts.append(_subsample(out, *collect))
        if out.status == -1:
            return "failure", out.y[:, -1], out.t[-1]
        if out.status == 0:
            return "cap", out.y[:, -1], out.t[-1]
        which = next(i for i, te in enumerate(out.t_events) if len(te))
        return which, out.y_events[which][-1], out.t_events[which][-1]

    y = (float(x_start), float(u_start), float(theta_start))
    terminal, y, core = _walk(pb, y, x_target, segment)
    if core is not None and collect:
        tail_x = np.linspace(core, x_target, 65)
        ys_parts.append(np.vstack([tail_x, np.zeros_like(tail_x), np.zeros_like(tail_x)]))
    elif terminal == "reached" and stored:
        # the stored path ends on the target, not at the event sample
        ys_parts[-1][:, -1] = y

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
        dead_core=core is not None,
        nfev=nfev,
    )


def _march_partials(pb, x_start, u_start, theta_start, x_target):
    """Integrate the arclength system and its sensitivities forward from x_start to x_target > x_start.

    Returns an ArcPath with endpoint rows only and its partials set.  The
    six more components are d(x, u, theta)/d lam, starting at 0, and
    d(x, u, theta)/d u_start, starting at (0, 1, 0); their right-hand side
    is J Y + dF/d lam with the exact J: a'(x) and f'(u) are the slope
    halves of the fused kernels whose value halves the plain shots read
    (as do the saltation jump, the peaks inside a step and the end ratio).
    At a breakpoint the slope is that of the side x or u moves into (see
    _augmented_rhs); where it is infinite (f' at u = 0 for p < 1) the
    partials come back nan, as after a dead-core tail.

    _walk ends the march, as it ends _march's; each of its segments is a
    plain-float copy of scipy's DOP853 loop: its tableau, step controller
    and initial-step rule, each segment started afresh (two calls) and the
    last stage of a step reused as the first of the next.  The compiled
    _segment_loop runs the steps and hands back only a step that needs its
    dense output, the arclength budget, a failure or a spent budget.  The
    error norm runs over (x, u, theta) alone, with _RTOL and _ATOL, so the
    sensitivities take no part in step control.  A sign change of the x
    edge or of an _EVENTS function over an accepted step, by solve_ivp's
    rule, is located on the step's 7th-order dense output, on the one
    component the event reads, and the earliest root ends the step.  A step
    below 10 ulps of the arclength ends the segment on "failure".  At an interior edge the sensitivities take the
    saltation jump; at x_target theta's partials take the event-time
    correction.  The march keeps the path's max u and max |theta| as
    extrema: over the start, every accepted step end and event state, and
    the peaks _step_peaks finds inside a step where theta falls through 0
    or theta' changes sign, so no mesh is needed to read them.
    """
    loop = _segment_loop()
    f_and_slope = pb.f.scalar_and_slope
    fs = lambda u: f_and_slope(u, 0.0)[0]  # for the value-only reads
    lam_dir = -float(pb.lam)
    rtol, atol, nfev_max = _RTOL, _ATOL, _NFEV_MAX
    nfev = 0  # right-hand-side calls of the finished segments
    a_last = None  # the last segment's a
    u_max, th_max = float(u_start), abs(float(theta_start))  # over the states met so far

    def segment(a_and_slope, edge, y, s, s_budget):
        nonlocal nfev, a_last, u_max, th_max
        a = lambda x: a_and_slope(x)[0]  # for the value-only reads: saltation, peaks, the end
        if a_last is not None:
            y = _saltation(y, lam_dir * (a_last(y[0]) - a(y[0])) * fs(y[1]))
        a_last = a
        calls_max = nfev_max - nfev
        rhs = _augmented_rhs(a_and_slope, f_and_slope, lam_dir)
        k = rhs(*y)
        h_abs = _initial_step(rhs, y, k, s_budget - s, rtol, atol)
        calls = 2
        while True:
            end, y, k, s, h_abs, calls, u_max, th_max, step = loop(
                a_and_slope, f_and_slope, lam_dir, edge, y, k, s, s_budget, h_abs, calls, calls_max, u_max, th_max, rtol, atol
            )
            if end != "dense":
                break
            # an accepted step that meets an event or a peak, read on its dense output
            s_new, h, y_new, k_new, stages, _, active, peaked = step
            dense = _dense_output(rhs, stages, y, y_new, s, h)
            calls += 3
            peaks = _step_peaks(dense, s, s_new, lambda x, u: a(x) * fs(u)) if peaked else ()
            end = None
            if active:
                # the earliest root in the step ends it, each found on the one component its event reads
                reads = ((0, lambda v: v - edge), *((ev.component, ev.of) for ev in _EVENT_FNS))
                roots = [
                    brentq(lambda t, j=reads[i][0], g=reads[i][1]: g(dense(t, j + 1, j)[0]), s, s_new, xtol=_EVENT_TOL, rtol=_EVENT_TOL)
                    for i in active
                ]
                s, end = min(zip(roots, active))
                y = dense(s, 9)
            else:
                y, k, s = y_new, k_new, s_new
                if s >= s_budget:
                    end = "cap"
            for t, (_, u, th) in peaks:
                if t <= s:
                    u_max, th_max = max(u_max, u), max(th_max, abs(th))
            if y[1] > u_max:
                u_max = y[1]
            if abs(y[2]) > th_max:
                th_max = abs(y[2])
            if calls > calls_max:
                end = "spent"
            if end is not None:
                break
        nfev += calls
        return end, y, s

    # d/d lam starts at 0 and d/d u_start at (0, 1, 0)
    y = (float(x_start), float(u_start), float(theta_start), 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    terminal, y, core = _walk(pb, y, x_target, segment)
    theta_partials = None
    if core is not None:
        # the dead-core tail's sensitivities are not carried
        theta_partials = (math.nan, math.nan)
    elif terminal == "reached":
        # theta at the target moves with the event time: d theta_end/dp = theta_p - theta' x_p / x'
        # (x_p = 0 when no span was crossed)
        ratio = 0.0 if a_last is None else lam_dir * a_last(y[0]) * fs(y[1]) / math.cos(y[2])
        theta_partials = (y[5] - ratio * y[3], y[8] - ratio * y[6])
        if not all(map(math.isfinite, theta_partials)):
            # an infinite slope met on the way (f' at u = 0 for p < 1)
            theta_partials = (math.nan, math.nan)

    return ArcPath(
        xs=np.array([x_start, y[0]]),
        us=np.array([u_start, y[1]]),
        thetas=np.array([theta_start, y[2]]),
        terminal=terminal,
        state_end=(float(y[0]), float(y[1]), float(y[2])),
        dead_core=core is not None,
        nfev=nfev,
        partials=theta_partials,
        extrema=(u_max, th_max),
    )


def _augmented_rhs(a_and_slope, f_and_slope, lam_dir):
    """The forward arclength system on one segment with its six sensitivities: nine floats in, a 9-tuple out.

    Two fused kernel calls give a, a', f and f'.  x only moves right in a
    forward march, and the form kernel's slope at a breakpoint is the
    right-hand one.  u moves with sin(theta), or, where theta = 0 (a
    shot's start), with the sign of theta' = lam_dir a f(u), f having u's
    sign: that rate tells the f kernel which side of a breakpoint u moves
    into.
    """
    cos, sin = math.cos, math.sin

    def rhs(x, u, th, x_l, u_l, th_l, x_s, u_s, th_s):
        dx, du = cos(th), sin(th)
        ax, dax = a_and_slope(x)
        fu, dfu = f_and_slope(u, du or lam_dir * ax * u)
        # d(theta')/dx and d(theta')/du
        gx = lam_dir * dax * fu
        gu = lam_dir * ax * dfu
        return (
            dx,
            du,
            lam_dir * ax * fu,
            -du * th_l,
            dx * th_l,
            gx * x_l + gu * u_l - ax * fu,
            -du * th_s,
            dx * th_s,
            gx * x_s + gu * u_s,
        )

    return rhs


def _saltation(y, jump):
    """y with its sensitivities shifted across a jump (F- - F+)_theta of theta' at an x edge met going right.

    The edge is met at an arclength s* with ds*/dp = -x_p / x', so
    theta_p gains jump * ds*/dp (saltation matrix; x_p and u_p are
    continuous because x' and u' are).
    """
    y = list(y)
    x_dot = math.cos(y[2])
    y[5] -= jump * y[3] / x_dot
    y[8] -= jump * y[6] / x_dot
    return tuple(y)


def _step_peaks(dense, s_old, s_new, theta_slope):
    """(t, (x, u, theta)) at each zero of theta or of theta' inside one step, located on its dense output.

    A maximum of u lies where theta falls through 0, and a peak of |theta|
    where theta' changes sign; theta_slope(x, u) has theta's sign.  Each
    root is brentq's at _EVENT_TOL; a function that keeps its sign over the
    step gives none.
    """
    out = []
    for fn in (lambda t: dense(t, 3, 2)[0], lambda t: theta_slope(*dense(t, 2))):
        if fn(s_old) * fn(s_new) < 0.0:
            t = brentq(fn, s_old, s_new, xtol=_EVENT_TOL, rtol=_EVENT_TOL)
            out.append((t, dense(t, 3)))
    return out


def _rms3(v, scale):
    """scipy's RMS norm of v / scale over the state (x, u, theta)."""
    r0, r1, r2 = v[0] / scale[0], v[1] / scale[1], v[2] / scale[2]
    return math.sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3.0)


def _initial_step(rhs, y, f0, interval, rtol, atol):
    """scipy's initial step for DOP853 (Hairer, Norsett and Wanner, section II.4), normed over the state; one call."""
    if interval == 0.0:
        return 0.0
    scale = [at + abs(v) * rtol for at, v in zip(atol, y)]
    d0, d1 = _rms3(y, scale), _rms3(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(*[v + h0 * fv for v, fv in zip(y, f0)])
    d2 = _rms3([b - a for a, b in zip(f0, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def _dense_output(rhs, stages, y_old, y_new, s_old, h):
    """The step's 7th-order interpolant as dense(t, n, first=0), components first to n - 1 at arclength t.

    As scipy's Dop853DenseOutput: three more stages (three calls), then the
    interpolant's rows, evaluated in scipy's order, so a state equals
    scipy's bit for bit.
    """
    c = dop853_coefficients
    n_stages, n = c.N_STAGES, len(y_old)
    K = np.empty((c.N_STAGES_EXTENDED, n))
    K[: n_stages + 1] = stages
    y0 = np.array(y_old)
    for i in range(n_stages + 1, c.N_STAGES_EXTENDED):
        K[i] = rhs(*(y0 + np.dot(K[:i].T, c.A[i, :i]) * h).tolist())
    delta = np.array(y_new) - y0
    F = np.empty((c.INTERPOLATOR_POWER, n))
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (K[n_stages] + K[0])
    F[3:] = h * np.dot(c.D, K)
    rows = F[::-1].tolist()

    def dense(t, n, first=0):
        x = (t - s_old) / h
        factors = [x if i % 2 == 0 else 1 - x for i in range(len(rows))]
        out = []
        for j in range(first, n):
            v = 0.0
            for row, m in zip(rows, factors):
                v = (v + row[j]) * m
            out.append(v + y_old[j])
        return out

    return dense


def _segment_loop_source():
    """Source of the augmented march's segment loop: DOP853 steps on the nine-component system until one needs Python.

    loop(a, f, lam_dir, edge, y, k, s, s_budget, h_abs, calls, calls_max,
    u_max, th_max, rtol, atol) steps from the 9-tuple y at arclength s with
    k = rhs(*y) and the next trial step h_abs, as _march_partials' segment
    loop; a and f are the two fused kernels, called inline with the
    arithmetic of _augmented_rhs.  Every stage sum is written out with
    scipy's coefficients (zero terms dropped), so a step makes 12 calls and
    no numpy call, and its error norm is scipy's 5th/3rd-order blend over
    (x, u, theta).  The loop does the step control, the sign tests of the x
    edge, of each _EVENTS source and of the peaks (theta falling through 0,
    a sign change of theta'), and keeps u_max and th_max over the steps it
    accepts.  It returns (end, y, k, s, h_abs, calls, u_max, th_max, step)
    at the first accepted step that meets a sign change ("dense"), at the
    arclength budget ("cap"), on a step below 10 ulps of s ("failure") or
    past calls_max calls ("spent").  step is (s_new, h, y_new, k_new,
    stages, err, active, peaked) for the step just tried, the 13 stages
    ending on rhs(*y_new) and active the indices in (x edge, *_EVENTS) of
    the sign changes; it is None where no step was tried.  The event
    sources read _EPS_NEG and _U_MAX from this module on each step.
    """
    c = dop853_coefficients
    n_stages = c.N_STAGES
    n, n_err = 9, 3

    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(n))

    def combo(coeffs, i):
        return " + ".join(f"{float(v)!r} * k{s}_{i}" for s, v in enumerate(coeffs) if v != 0.0)

    def stage(s, args):
        # _augmented_rhs on the nine arguments, into k{s}_0 ... k{s}_8
        rates = ("dx", "du", "lam_dir * ax * fu", "-du * t5", "dx * t5", "gx * t3 + gu * t4 - ax * fu", "-du * t8", "dx * t8", "gx * t6 + gu * t7")
        return [
            *(f"t{i} = {arg}" for i, arg in enumerate(args)),
            "dx, du = cos(t2), sin(t2)",
            "ax, dax = a(t0)",
            "fu, dfu = f(t1, du or lam_dir * ax * t1)",
            "gx = lam_dir * dax * fu",
            "gu = lam_dir * ax * dfu",
            *(f"k{s}_{i} = {rate}" for i, rate in enumerate(rates)),
        ]

    # each sign test as solve_ivp's: (source, component, direction); g{i}
    # is its value at the step start and g{i}n at the step end
    tests = [("{v} - edge", 0, 1.0)] + [(ev.source, ev.component, ev.direction) for ev in _EVENT_FNS]

    def values(prefix):
        return ", ".join(source.format(v=f"{prefix}{j}") for source, j, _ in tests)

    starts = ", ".join(f"g{i}" for i in range(len(tests)))
    ends = ", ".join(f"g{i}n" for i in range(len(tests)))
    changes = [f"g{i} <= 0.0 <= g{i}n" if d > 0 else f"g{i} >= 0.0 >= g{i}n" for i, (_, _, d) in enumerate(tests)]
    stages = ", ".join(f"({names(f'k{s}_')})" for s in range(n_stages + 1))
    step = f"(s_new, h, ({names('n')}), ({names(f'k{n_stages}_')}), ({stages}), err, active, peaked)"
    ret = f"({names('y')}), ({names('k0_')}), s, h_abs, calls, u_max, th_max"

    trial = []  # one trial step of size h from s
    for s in range(1, n_stages):
        trial += stage(s, [f"y{i} + ({combo(c.A[s, :s], i)}) * h" for i in range(n)])
    trial += [f"n{i} = y{i} + h * ({combo(c.B, i)})" for i in range(n)]
    trial += stage(n_stages, [f"n{i}" for i in range(n)])
    trial.append("calls += 12")
    for i in range(n_err):
        trial += [
            f"sc{i} = atol{i} + max(abs(y{i}), abs(n{i})) * rtol",
            f"e5_{i} = ({combo(c.E5, i)}) / sc{i}",
            f"e3_{i} = ({combo(c.E3, i)}) / sc{i}",
        ]
    trial += [
        "p5 = " + " + ".join(f"e5_{i} * e5_{i}" for i in range(n_err)),
        "p3 = " + " + ".join(f"e3_{i} * e3_{i}" for i in range(n_err)),
        f"err = 0.0 if p5 == 0.0 and p3 == 0.0 else abs(h) * p5 / sqrt((p5 + 0.01 * p3) * {n_err})",
    ]

    def block(depth, lines):
        return [" " * (4 * depth) + line for line in lines]

    lines = [
        "def loop(a, f, lam_dir, edge, y, k, s, s_budget, h_abs, calls, calls_max, u_max, th_max, rtol, atol,",
        "         cos=cos, sin=sin, sqrt=sqrt, nextafter=nextafter, inf=inf, abs=abs, max=max, min=min):",
        *block(1, [
            f"{names('y')}, = y",
            f"{names('k0_')}, = k",
            "atol0, atol1, atol2 = atol",
            f"{starts} = {values('y')}",
            "while calls <= calls_max:",
        ]),
        *block(2, [
            "min_step = 10.0 * (nextafter(s, inf) - s)",
            "h_abs = max(h_abs, min_step)",
            "rejected = False",
            "while True:",
        ]),
        *block(3, [
            "if not h_abs >= min_step:  # a nan step fails too",
            f"    return 'failure', {ret}, None",
            "s_new = min(s + h_abs, s_budget)",
            "h = s_new - s",
            *trial,
            "if err < 1.0 or calls > calls_max:",
            "    break",
            f"h_abs = h * max({_MIN_FACTOR!r}, {_SAFETY!r} * err ** {_ERROR_EXPONENT!r})",
            "rejected = True",
        ]),
        *block(2, [
            "if calls > calls_max:",
            "    active, peaked = (), False",
            f"    return 'spent', {ret}, {step}",
            f"factor = {_MAX_FACTOR!r} if err == 0.0 else min({_MAX_FACTOR!r}, {_SAFETY!r} * err ** {_ERROR_EXPONENT!r})",
            "h_abs = h * (min(1.0, factor) if rejected else factor)",
            f"{ends} = {values('n')}",
            # u peaks where theta falls through 0, |theta| where theta' changes sign
            f"peaked = y2 > 0.0 >= n2 or k0_2 * k{n_stages}_2 < 0.0",
            f"if peaked or {' or '.join(f'({t})' for t in changes)}:",
            f"    active = tuple(i for i, hit in enumerate(({', '.join(changes)})) if hit)",
            f"    return 'dense', {ret}, {step}",
            f"{names('y')} = {names('n')}",
            f"{names('k0_')} = {names(f'k{n_stages}_')}",
            f"s, {starts} = s_new, {ends}",
            "if y1 > u_max:",
            "    u_max = y1",
            "if abs(y2) > th_max:",
            "    th_max = abs(y2)",
            "if s >= s_budget:",
            f"    return 'cap', {ret}, None",
        ]),
        *block(1, [f"return 'spent', {ret}, None"]),
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _segment_loop():
    """The augmented march's segment loop, compiled on first use (a few ms), so imports do not pay for it.

    It runs in this module's namespace, where its event sources find
    _EPS_NEG and _U_MAX as they stand at each call.
    """
    namespace = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt, "nextafter": math.nextafter, "inf": math.inf}
    exec(compile(_segment_loop_source(), "<dop853 segment loop>", "exec"), globals(), namespace)
    return namespace["loop"]


def _mesh_times(out, dtheta, dx):
    """Arclengths of the stored states: each accepted step cut so mesh intervals stay small in angle and x."""
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
    return np.concatenate(pieces)


def _subsample(out, dtheta, dx):
    """States (x, u, theta) at _mesh_times on the march's dense output."""
    t = _mesh_times(out, dtheta, dx)
    # each run of points evaluates on its own step's interpolant, picked by
    # OdeSolution's rule (a point on a step end takes the lower step), so the
    # states equal out.sol(t) bit for bit without its sort and per-point grouping
    interpolants = out.sol.interpolants
    steps = np.clip(np.searchsorted(out.t, t, side="left") - 1, 0, len(interpolants) - 1)
    cuts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(t)]
    return np.hstack([interpolants[steps[lo]](t[lo:hi])[:3] for lo, hi in zip(cuts[:-1], cuts[1:])])


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
    """(theta(1), d theta(1)/d lam, d theta(1)/d s0, extrema) from one augmented shot, or Blocked as shoot_residual.

    The partials are nan where the shot ends on a dead-core tail.  extrema
    is the path's (max u, max |theta|).
    """
    if s0 < 0:
        raise ValueError("initial height must be nonnegative")
    path = _march_partials(pb, 0.0, s0, 0.0, 1.0)
    if path.terminal == "reached":
        return (path.theta_end, *path.partials, path.extrema)
    return Blocked(path.terminal, path.state_end[0], path.state_end)


def _classify(pb, s0):
    """Residual with surrogate signs for bracketing, as (value, exact).

    Paths that hit the trivial line while sloped, and downward vertical
    tangents, are undershoots (surrogate -1); upward vertical tangents are
    overshoots (surrogate +1).  A surrogate only signs its height, so a
    root is accepted only at a path that truly reaches x = 1 with a tiny
    residual.
    """
    path = integrate_path(pb, s0, collect=None)
    if path.terminal == "reached":
        return path.theta_end, True
    if path.terminal == "u_zero":
        return -1.0, False
    if path.terminal == "vertical":
        return (-1.0 if path.state_end[2] < 0.0 else 1.0), False
    return None, False


def solution_from_path(pb, path):
    """The RegularSolution of a path that reached x = 1."""
    xs, us, dus = _path_piece(path)
    return RegularSolution(
        lam=pb.lam,
        xs=xs,
        us=us,
        dus=dus,
        residual=curvature_residual(pb, xs, us, dus),
        balance=neumann_balance(pb, xs, us),
        theta_end=path.theta_end,
        dead_core=path.dead_core,
    )


def find_regular(pb, s_min=1e-6, s_max=1e3, n_scan=64, theta_tol=1e-10):
    """All regular Neumann solutions with initial height in [s_min, s_max].

    Scans log-spaced heights, brackets sign changes of the shooting
    residual, refines each bracket (util.bisect_bracket: bisection while an
    end is a surrogate, then brentq in log height between exact ends) to
    |theta(1)| <= theta_tol (or, when the bracket collapses first, to its
    best reaching path within 1e-6), and keeps each refined height once:
    two distinct heights are two solutions, however close.  An empty list
    does not mean that the window holds no solution.  A bracket is dropped
    when it meets a height with no sign ("cap" or "failure"), or when it
    collapses with no reaching path within 1e-6: at lam = 50 on the power
    weight with alpha = 1 and p = 1, one collapses between a downward and an
    upward vertical on 16.0784034, where varmin finds a solution.  Two roots
    in one scan interval make no sign change.  n_scan is a whole number.
    """
    if not (0 <= pb.lam < math.inf):
        raise ValueError("solvers accept finite lam >= 0 only")
    if not (0 < s_min < s_max < math.inf):
        raise ValueError(f"need 0 < s_min < s_max < inf for the height window, got [{s_min}, {s_max}]")
    if not float(n_scan).is_integer():
        raise ValueError(f"n_scan must be a whole number, got {n_scan}")
    n_scan = int(n_scan)
    if n_scan < 16:
        raise ValueError("need n_scan >= 16")

    roots = []
    for lo, hi, lo_positive in scan_brackets(lambda s: _classify(pb, s), s_min, s_max, n_scan):
        root = _bisect_height(pb, lo, hi, lo_positive, theta_tol)
        if root is not None and root not in roots:
            roots.append(root)

    solutions = []
    for s0 in roots:
        path = integrate_path(pb, s0)
        if path.terminal != "reached":
            continue
        sol = solution_from_path(pb, path)
        if np.min(sol.us) < -1e-7 * max(1.0, sol.sup_norm):
            continue
        solutions.append(sol)
    solutions.sort(key=lambda s: s.sup_norm)
    return solutions


def _bisect_height(pb, lo, hi, lo_positive, theta_tol):
    return bisect_bracket(lambda s: _classify(pb, s), lo, hi, lo_positive, theta_tol)
