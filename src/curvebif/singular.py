"""Regularity classification and direct construction of jump solutions.

Under a sign-split weight a bounded-variation solution can only fail to be
regular at the node z, where it develops vertical tangents and a downward
jump.  classify() implements the dichotomy: a smallness bound rules the
singularity out for small lam; divergence of either node integral of
(int_x^z a)^(-1/2) rules it out for every lam; and when both integrals are
finite a supplied solution trace can certify a jump through an explicit
witness inequality.  The witness reads a on each side's own segments, and
its node cell follows the node law a ~ c d^alpha; a side where a is
unbounded at the node (alpha < 0) certifies nothing.

solve_singular() builds the jump solution directly, shooting each side
toward the node and root-finding the heights at which the flux budget
closes exactly (theta reaches -pi/2 at z from both sides).  This two-sided
construction stays well conditioned where single shooting across the node
has already lost the solution in its unstable vertical channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .model import curvature_residual, neumann_balance
from .quadrature import ExtendedReal, criterion_integral
from .shoot import Solution, _march, _mesh, _path_piece
from .util import bisect_bracket, scan_brackets

__all__ = [
    "RegularityVerdict",
    "SingularSolution",
    "Absent",
    "Witness",
    "smallness_guard",
    "classify",
    "solve_singular",
]


@dataclass(frozen=True)
class Witness:
    """Points and integral certifying the jump inequality."""

    x1: float
    x2: float
    integral: float
    drop: float

    def to_dict(self):
        return {"x1": self.x1, "x2": self.x2, "integral": self.integral, "drop": self.drop}


@dataclass
class RegularityVerdict:
    tag: str  # RegularBySmallness | RegularByCriterion | JumpCertified | Inconclusive
    i_left: ExtendedReal | None
    i_right: ExtendedReal | None
    witness: Witness | None = None
    guard: float | None = None

    def to_dict(self):
        return {
            "verdict": self.tag,
            "i_left": None if self.i_left is None else self.i_left.to_dict(),
            "i_right": None if self.i_right is None else self.i_right.to_dict(),
            "witness": None if self.witness is None else self.witness.to_dict(),
            "guard": self.guard,
        }


@dataclass(frozen=True)
class Absent:
    """Refusal value for solve_singular, with a machine-checkable reason."""

    reason: str  # smallness | regular-by-criterion | float-range | no-left-piece | no-right-piece | inadmissible-jump
    detail: str = ""


@dataclass
class SingularSolution(Solution):
    """Two monotone pieces with vertical tangents at the node and a jump."""

    lam: float
    xs_left: np.ndarray
    us_left: np.ndarray
    dus_left: np.ndarray
    xs_right: np.ndarray
    us_right: np.ndarray
    dus_right: np.ndarray
    jump: float
    flux_left: float
    flux_right: float
    residual_left: float
    residual_right: float
    kind: str = "singular"

    @property
    def pieces(self):
        return (self.xs_left, self.us_left, self.dus_left), (self.xs_right, self.us_right, self.dus_right)

    @property
    def residual(self):
        return max(self.residual_left, self.residual_right)

    def to_dict(self):
        """Summary with "mesh" as one (n, 3) float array of rows (x, u, u'), left piece first."""
        return {
            "lambda": self.lam,
            "mesh": _mesh(self.pieces),
            "residual": self.residual,
            "kind": "singular",
            "jump": self.jump,
            "flux_left": self.flux_left,
            "flux_right": self.flux_right,
        }


def smallness_guard(pb):
    """True when lam ||f||_inf ||a||_1 < 1, which forces every solution regular."""
    return pb.lam * pb.f.sup_norm * pb.weight.abs_integral < 1.0


# ---------------------------------------------------------------------------
# piece construction

# pieces carry vertical tangents; the reporting mesh needs fine angle
# grading for the trimmed piece residuals to resolve the steep layer.  At an
# angle step of 3e-5 (52-55k points per piece) the worst centred-difference
# piece residual over criterion 10's jump solutions is 2.1e-6, the same
# headroom under its 1e-5 gate as the worst regular residual (1.9e-6); 1e-4
# fails that gate (2.8e-5).  The x step resolves the right piece's outer
# layer, about (2 lam)^(-1/2) wide, for the balance rule's flux: at 1e-3 the
# flux error reaches 1.06e-6 at lam = 3e5, at 1e-4 it is 3.1e-7
_PIECE_MESH = (3e-5, 1e-4)
_PIECE_SCAN = 96  # scan heights per piece
# a right walk floor below this, near the smallest normal float, is refused
_FLOOR_MIN = 1e-300


def _piece_shot(pb, height, side, collect=None):
    """March one piece from its outer boundary, flat at the given height, to the node."""
    return _march(pb, 0.0 if side == "left" else 1.0, height, 0.0, pb.weight.z, collect=collect)


def _piece_value(pb, height, side):
    """Continuous classifier for the one-sided flux budget, as (value, exact, settled).

    Zero exactly when the path from the outer boundary reaches the node
    with a vertical tangent; negative when the node is reached with flux to
    spare, by -(1 + sin theta) there; otherwise the signed gap between the
    node and the point where the tangent turned vertical, positive when it
    turned early.  Vertical events may land just past the node, so the gap
    keeps its sign: only a tangent formed within tolerance of the node
    converges.  Both values are exact: the gap, too, is continuous in the
    height and vanishes at the root, so brentq refines across the kink
    where the two meet.
    settled is True for a negative exact value whose whole path lies on a
    monotone side of f: u decreases toward the node on the left, so there
    its node height must be at least the law's b, where f decays; u
    increases toward the node on the right, so there at most the law's a,
    where f grows.
    """
    path = _piece_shot(pb, height, side)
    z, x_end = pb.weight.z, path.state_end[0]
    gap = z - x_end if side == "left" else x_end - z
    if path.terminal == "reached":
        v = -(1.0 + math.sin(path.state_end[2]))
        a, b = pb.f._law[:2]
        u_node = path.state_end[1]
        return v, True, v < 0.0 and (u_node >= b if side == "left" else u_node <= a)
    if path.terminal == "vertical" and path.state_end[2] < 0.0:
        return gap, True, False
    return None, False, False


def _piece_window(pb, side):
    """(top, floor) of one piece's height walk, or None where it leaves the float range.

    The decaying tail of f bounds how high the budget can close.  Small
    right heights grow toward the node like u'' = lam c |a| u (f = c u^p
    below a), with exponent at most E = sqrt(lam c (1 - z) |int_z^1 a|) by
    Cauchy-Schwarz, so the right floor sits ten decades below exp(-E),
    never above 1e-60; bisection over settled heights makes it cheap.
    """
    z, lam = pb.weight.z, pb.lam
    mass = pb.weight.integral(0.0, z) if side == "left" else -pb.weight.integral(z, 1.0)
    try:
        s_budget = (lam * pb.f.h * mass) ** (1.0 / pb.f.q) if lam * mass > 0 else 1.0
    except OverflowError:
        return None
    s_hi = 1e3 * max(pb.f.M, s_budget, 1.0)
    s_lo = 1e-8 if side == "left" else min(1e-60, 1e-10 * math.exp(-math.sqrt(lam * pb.f.c * (1.0 - z) * mass)))
    return (s_hi, s_lo) if math.isfinite(s_hi) and s_lo >= _FLOOR_MIN else None


def _solve_piece(pb, side, *, n_scan):
    """Root-find the outer height of one vertical-tangent piece, or None.

    Walks n_scan log-spaced heights across _piece_window, which
    solve_singular has checked, and refines the first bracket met: the
    walk runs down from the top on the left and up from the floor on the
    right, so the left piece keeps the highest bracket of the grid and the
    right piece the lowest, and no height beyond that bracket is shot but
    the few the bisection below probes.

    The walk skips settled heights (see _piece_value) by bisecting the grid
    for the last of them.  No bracket lies among them, by comparison: the
    shooting system for (u, flux) is cooperative where f is monotone with
    the right sense, decreasing where a > 0 (left) and increasing where
    a < 0 (right), so Kamke's comparison theorem orders its paths (Hirsch
    and Smith, Monotone Dynamical Systems).  A settled height
    reaches the node on that side of f; every height before it in the
    walk, higher on the left and lower on the right, starts on the same
    side, its path stays beyond the settled one, and it too reaches the
    node with flux to spare, settled.  So the settled heights form a prefix
    of the walk, and skipping them leaves the first bracket, and the
    heights its refinement visits, as they were.
    """
    s_hi, s_lo = _piece_window(pb, side)

    def value(s):
        return _piece_value(pb, s, side)

    start, stop = (s_hi, s_lo) if side == "left" else (s_lo, s_hi)
    bracket = next(scan_brackets(value, start, stop, n_scan, settled=lambda r: r[2]), None)
    if bracket is None:
        return None
    return bisect_bracket(value, *bracket, 1e-9)


def _flux_quadrature(pb, xs, us, side):
    """The piece's flux, lam int a f(u) dx by the balance rule, negated on the right: 1 when its budget closes."""
    return (1.0 if side == "left" else -1.0) * pb.lam * neumann_balance(pb, xs, us)


def solve_singular(pb):
    """Construct the jump solution at the node, or report why there is none.

    Refuses where classify() proves every solution regular: under the
    smallness bound and under a divergent criterion integral.  Otherwise
    both one-sided pieces are root-found; if the left height at the node
    stays above the right one the assembled object is a bounded-variation
    solution with a downward jump.
    """
    if not (0 <= pb.lam < math.inf):
        raise ValueError("solvers accept finite lam >= 0 only")
    verdict = classify(pb).tag
    if verdict == "RegularBySmallness":
        return Absent("smallness", "lam ||f|| ||a||_1 < 1 forces regularity")
    if verdict == "RegularByCriterion":
        return Absent("regular-by-criterion", "a node integral diverges; solutions are regular")

    if _piece_window(pb, "left") is None or _piece_window(pb, "right") is None:
        return Absent("float-range", f"the piece heights leave the float range (a walk floor below {_FLOOR_MIN:g})")
    s_left = _solve_piece(pb, "left", n_scan=_PIECE_SCAN)
    if s_left is None:
        return Absent("no-left-piece", "no height closes the left flux budget")
    s_right = _solve_piece(pb, "right", n_scan=_PIECE_SCAN)
    if s_right is None:
        return Absent("no-right-piece", "no height closes the right flux budget")

    xl, ul, dl = _path_piece(_piece_shot(pb, s_left, "left", _PIECE_MESH))
    xr, ur, dr = _path_piece(_piece_shot(pb, s_right, "right", _PIECE_MESH))
    if ul[-1] < ur[0] - 1e-9 * max(1.0, ul[-1]):
        return Absent("inadmissible-jump", "left height at the node fell below the right one")

    z, eps = pb.weight.z, 1e-3
    return SingularSolution(
        lam=pb.lam,
        xs_left=xl,
        us_left=ul,
        dus_left=dl,
        xs_right=xr,
        us_right=ur,
        dus_right=dr,
        jump=float(ul[-1] - ur[0]),
        flux_left=_flux_quadrature(pb, xl, ul, "left"),
        flux_right=_flux_quadrature(pb, xr, ur, "right"),
        residual_left=_piece_residual(pb, xl, ul, dl, 0.0, z - eps),
        residual_right=_piece_residual(pb, xr, ur, dr, z + eps, 1.0),
    )


def _piece_residual(pb, xs, us, dus, lo, hi):
    """curvature_residual on the points of the increasing xs within [lo, hi], as views."""
    m = slice(np.searchsorted(xs, lo, "left"), np.searchsorted(xs, hi, "right"))
    if m.stop - m.start < 8:
        return math.inf
    return curvature_residual(pb, xs[m], us[m], dus[m])


# ---------------------------------------------------------------------------
# classification

def classify(pb, u=None):
    """Regularity dichotomy for the problem instance, optionally using a trace.

    Order of decision: the smallness bound, then divergence of either node
    integral of the weight, then (when both are finite and a solution trace
    is supplied) a search for a jump witness.  Without a trace the jump can
    never be certified, because the witness inequality needs solution
    values; the verdict is then Inconclusive.  The trace is a Solution,
    read through its pieces: a jump solution's two pieces, or one piece
    that reaches both sides of the node.
    """
    if not pb.weight.has_sign_split:
        raise ValueError("classification needs a sign-split weight")
    if smallness_guard(pb):
        return RegularityVerdict(
            "RegularBySmallness",
            None,
            None,
            guard=pb.lam * pb.f.sup_norm * pb.weight.abs_integral,
        )
    i_left = criterion_integral(pb.weight, "left")
    i_right = criterion_integral(pb.weight, "right")
    if i_left.infinite or i_right.infinite:
        return RegularityVerdict("RegularByCriterion", i_left, i_right)
    if u is None:
        return RegularityVerdict("Inconclusive", i_left, i_right)
    wit = _find_witness(pb, u)
    if wit is not None:
        return RegularityVerdict("JumpCertified", i_left, i_right, witness=wit)
    return RegularityVerdict("Inconclusive", i_left, i_right)


def _trace_sides(pb, u):
    """Per side, outward from the node: distance d, u and H = lam |int_x^z a f(u)|.

    u is a Solution: two pieces are its two sides, and one piece is split
    at z, each side starting from a node point at z with its nearest value.
    d is z - x on the left and x - z on the right (a piece end may lie a
    hair past z).  a is read on the side's own segments, spans(0, z) or
    spans(z, 1).  H is the cumulative trapezoid of h = lam |a| f(u) in d.
    """
    w, z = pb.weight, pb.weight.z
    pieces = u.pieces
    if len(pieces) == 1:
        ((xs, us, dus),) = pieces
        k = np.searchsorted(xs, z)
        pieces = (xs[:k], us[:k], dus[:k]), (xs[k:], us[k:], dus[k:])
    (xl, ul, _), (xr, ur, _) = pieces
    if xl.size == 0 or xr.size == 0:
        raise ValueError("the trace must reach both sides of the node")
    if len(u.pieces) == 1:  # the split leaves the left side, at least, without a point at z
        xl, ul = np.append(xl, z), np.append(ul, ul[-1])
        if xr[0] > z:
            xr, ur = np.insert(xr, 0, z), np.insert(ur, 0, ur[0])
    hl = pb.lam * np.abs(_a_on_side(w, xl, 0.0, z)) * pb.f(ul)
    hr = pb.lam * np.abs(_a_on_side(w, xr, z, 1.0)) * pb.f(ur)
    left = (z - xl[::-1], ul[::-1], hl[::-1])
    right = (xr - z, ur, hr)
    return [(d, us, cumulative_trapezoid(h, d, initial=0.0)) for d, us, h in (left, right)]


def _a_on_side(w, xs, lo, hi):
    """a at the increasing xs clamped into [lo, hi], read on the pieces of w.spans(lo, hi).

    A point on a segment boundary takes the segment after it.
    """
    x = np.clip(xs, lo, hi)
    spans = w.spans(lo, hi)
    cuts = [0, *(np.searchsorted(x, start) for start, _, _ in spans[1:]), len(x)]
    out = np.empty_like(x)
    for (_, _, form), i, j in zip(spans, cuts, cuts[1:]):
        out[i:j] = form.value(x[i:j], w.z)
    return out


def _find_witness(pb, u):
    """Scan pairs z -+ off toward the node; the first certified pair wins.

    A pair is certified when int H^(-1/2) over it, with H(x) = lam |int_x^z
    a f(u)| from _trace_sides, is at most 0.99 of u(z - off) - u(z + off).
    Each half is int 2t / sqrt(H) dt in t = sqrt(d), which takes out the
    node's inverse square root: one cumulative trapezoid per side, read at
    t = sqrt(off) for every pair.
    The node cell follows the node law a ~ c d^alpha, alpha the side's
    node order, which needs 0 <= alpha < 1: below 0, a is unbounded at the
    node, and from 1 up the node integral diverges.
    """
    z = pb.weight.z
    orders = [pb.weight.node_order(side)[0] for side in ("left", "right")]
    if not all(0.0 <= alpha < 1.0 for alpha in orders):
        return None
    sides = _trace_sides(pb, u)

    # flux lower bound near the node: needed to transfer integrability of
    # the weight integrals to the solution-weighted ones (f > 0 where u > 0)
    eta = 0.5 * min(z, 1.0 - z)
    near = np.concatenate([us[(d > 1e-12) & (d < eta)] for d, us, _ in sides])
    if near.size == 0 or np.min(near) <= 0.0:
        return None

    halves = []
    for (d, us, H), alpha in zip(sides, orders):
        t = np.sqrt(np.maximum(d, 0.0))  # a right piece may start a hair before z
        g = np.empty_like(t)
        g[1:] = 2.0 * t[1:] / np.sqrt(H[1:])
        # g ~ t^(-alpha) at the node: this g[0] makes the first trapezoid
        # cell exact, whatever a reads at the node point itself
        g[0] = g[1] * (1.0 + alpha) / (1.0 - alpha)
        halves.append((d, us, t, cumulative_trapezoid(g, t, initial=0.0)))

    (dl, ul, tl, wl), (dr, ur, tr, wr) = halves
    for k in range(1, 13):
        off = eta * 0.5 ** (k - 1)
        drop = float(np.interp(off, dl, ul) - np.interp(off, dr, ur))
        if drop <= 0:
            continue
        w = float(np.interp(math.sqrt(off), tl, wl) + np.interp(math.sqrt(off), tr, wr))
        if w <= 0.99 * drop:  # one percent slack
            return Witness(z - off, z + off, w, drop)
    return None
