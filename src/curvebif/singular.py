"""Regularity classification and direct construction of jump solutions.

Under a sign-split weight a bounded-variation solution can only fail to be
regular at the node z, where it develops vertical tangents and a downward
jump.  classify() implements the dichotomy: a smallness bound rules the
singularity out for small lam; divergence of either node integral of
(int_x^z a)^(-1/2) rules it out for every lam; and when both integrals are
finite a supplied solution trace can certify a jump through an explicit
witness inequality.

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

from .model import curvature_residual
from .quadrature import ExtendedReal, criterion_integral
from .shoot import _march
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

    reason: str  # smallness | regular-by-criterion | no-left-piece | no-right-piece | inadmissible-jump
    detail: str = ""


@dataclass
class SingularSolution:
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
    def sup_norm(self):
        return float(max(np.max(self.us_left), np.max(self.us_right)))

    @property
    def residual(self):
        return max(self.residual_left, self.residual_right)

    def u_at(self, x):
        x = np.asarray(x, dtype=float)
        left = np.interp(x, self.xs_left, self.us_left)
        right = np.interp(x, self.xs_right, self.us_right)
        out = np.where(x <= self.xs_left[-1], left, right)
        return float(out) if out.ndim == 0 else out

    def to_dict(self):
        mesh = [
            [float(x), float(u), float(d)]
            for x, u, d in zip(
                np.concatenate([self.xs_left, self.xs_right]),
                np.concatenate([self.us_left, self.us_right]),
                np.concatenate([self.dus_left, self.dus_right]),
            )
        ]
        return {
            "lambda": self.lam,
            "mesh": mesh,
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

# the backward right piece grows exponentially from heights that may sit
# hundreds of decades below one; error control on u must stay relative
_RIGHT_ATOL = (1e-12, 0.0, 1e-13)
# pieces carry vertical tangents; the reporting mesh needs fine angle
# grading for the trimmed piece residuals to resolve the steep layer
_PIECE_MESH = (1e-5, 1e-3)
_PIECE_SCAN = 96  # scan heights per piece


def _piece_value(pb, height, side):
    """Continuous classifier for the one-sided flux budget, as (value, exact).

    Zero exactly when the path from the outer boundary reaches the node
    with a vertical tangent; negative when the node is reached with flux to
    spare (an exact value); otherwise the signed gap between the node and
    the point where the tangent turned vertical, positive when it turned
    early.  Vertical events may land just past the node, so the gap keeps
    its sign: only a tangent formed within tolerance of the node converges.
    """
    z = pb.weight.z
    if side == "left":
        path = _march(pb, 0.0, height, 0.0, z, collect=None)
        gap = z - path.state_end[0]
    else:
        path = _march(pb, 1.0, height, 0.0, z, collect=None, atol=_RIGHT_ATOL)
        gap = path.state_end[0] - z
    if path.terminal == "reached":
        return -(1.0 + math.sin(path.state_end[2])), True
    if path.terminal == "vertical" and path.state_end[2] < 0.0:
        return gap, False
    return None, False


def _solve_piece(pb, side, *, n_scan):
    """Root-find the outer height of one vertical-tangent piece, or None."""
    z = pb.weight.z
    lam = pb.lam
    # the decaying tail of f bounds how high the budget can close
    mass = pb.weight.integral(0.0, z) if side == "left" else -pb.weight.integral(z, 1.0)
    s_budget = (lam * pb.f.h * mass) ** (1.0 / pb.f.q) if lam * mass > 0 else 1.0
    s_hi = 1e3 * max(pb.f.M, s_budget, 1.0)
    # outer heights of the right piece shrink exponentially in lam, so the
    # scan floor sits far below any polynomial scale
    s_lo = 1e-8 if side == "left" else 1e-60

    def value(s):
        return _piece_value(pb, s, side)

    brackets = scan_brackets(value, s_lo, s_hi, n_scan)
    if not brackets:
        return None
    lo, hi, lo_positive = brackets[-1] if side == "left" else brackets[0]
    return bisect_bracket(value, lo, hi, lo_positive, 1e-9, 1e-16, 220)


def _flux_quadrature(pb, path, side):
    """lam * int a f(u) along the piece, by Simpson in arclength."""
    from scipy.integrate import simpson

    sgn = 1.0 if side == "left" else -1.0
    wa = pb.weight.eval(np.clip(path.xs, 0.0, 1.0))
    integrand = pb.lam * wa * pb.f(path.us) * np.cos(path.thetas)
    # backward marches store decreasing x; ds is positive along the path
    val = float(simpson(integrand, x=path.ss))
    return sgn * val


def solve_singular(pb):
    """Construct the jump solution at the node, or report why there is none.

    Refuses under the smallness bound (the solution would be regular) and
    under a divergent criterion integral (regularity is forced for every
    lam).  Otherwise both one-sided pieces are root-found; if the left
    height at the node stays above the right one the assembled object is a
    bounded-variation solution with a downward jump.
    """
    if not (0 <= pb.lam < math.inf):
        raise ValueError("solvers accept finite lam >= 0 only")
    if not pb.weight.has_sign_split:
        raise ValueError("singular construction needs a sign-split weight")
    if smallness_guard(pb):
        return Absent("smallness", "lam ||f|| ||a||_1 < 1 forces regularity")
    i_left = criterion_integral(pb.weight, "left")
    i_right = criterion_integral(pb.weight, "right")
    if i_left.infinite or i_right.infinite:
        return Absent("regular-by-criterion", "a node integral diverges; solutions are regular")

    s_left = _solve_piece(pb, "left", n_scan=_PIECE_SCAN)
    if s_left is None:
        return Absent("no-left-piece", "no height closes the left flux budget")
    s_right = _solve_piece(pb, "right", n_scan=_PIECE_SCAN)
    if s_right is None:
        return Absent("no-right-piece", "no height closes the right flux budget")

    z = pb.weight.z
    left = _march(pb, 0.0, s_left, 0.0, z, collect=_PIECE_MESH)
    right = _march(pb, 1.0, s_right, 0.0, z, collect=_PIECE_MESH, atol=_RIGHT_ATOL)

    # the vertical events land within roundoff of -pi/2; clamp so the node
    # endpoints report the correct branch of the (infinite) slope
    xl, ul, tl = left.xs, left.us, np.clip(left.thetas, -math.pi / 2.0, math.pi / 2.0)
    xr, ur, tr = right.xs[::-1], right.us[::-1], np.clip(right.thetas[::-1], -math.pi / 2.0, math.pi / 2.0)
    if ul[-1] < ur[0] - 1e-9 * max(1.0, ul[-1]):
        return Absent("inadmissible-jump", "left height at the node fell below the right one")

    flux_left = _flux_quadrature(pb, left, "left")
    flux_right = _flux_quadrature(pb, right, "right")

    keep_l = np.concatenate([[True], np.diff(xl) > 1e-14])
    keep_r = np.concatenate([np.diff(xr) > 1e-14, [True]])
    xl, ul, tl = xl[keep_l], ul[keep_l], tl[keep_l]
    xr, ur, tr = xr[keep_r], ur[keep_r], tr[keep_r]

    eps = 1e-3
    res_l = _piece_residual(pb, xl, ul, np.tan(tl), 0.0, z - eps)
    res_r = _piece_residual(pb, xr, ur, np.tan(tr), z + eps, 1.0)

    return SingularSolution(
        lam=pb.lam,
        xs_left=xl,
        us_left=ul,
        dus_left=np.tan(tl),
        xs_right=xr,
        us_right=ur,
        dus_right=np.tan(tr),
        jump=float(ul[-1] - ur[0]),
        flux_left=flux_left,
        flux_right=flux_right,
        residual_left=res_l,
        residual_right=res_r,
    )


def _piece_residual(pb, xs, us, dus, lo, hi):
    m = (xs >= lo) & (xs <= hi)
    if np.count_nonzero(m) < 8:
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
    values; the verdict is then Inconclusive.  The trace is a
    SingularSolution or any object with increasing mesh arrays ``xs`` and
    ``us`` on both sides of the node (a regular solution, for one).
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
    """Per side, outward from the node: distance d, u, h = lam |a| f(u) and H.

    d is z - x on the left and x - z on the right (a piece end may lie a
    hair past z); a is taken on the side's own segment; H, the cumulative
    trapezoid of h in d, is lam |int_x^z a f(u)|.
    """
    z = pb.weight.z
    if isinstance(u, SingularSolution):
        xl, ul, xr, ur = u.xs_left, u.us_left, u.xs_right, u.us_right
    else:
        xs, us = np.asarray(u.xs, float), np.asarray(u.us, float)
        k = np.searchsorted(xs, z)
        xl, ul, xr, ur = xs[:k], us[:k], xs[k:], us[k:]
    if xl.size == 0 or xr.size == 0:
        raise ValueError("the trace must reach both sides of the node")
    below = np.nextafter(z, 0.0)  # Weight.eval looks up [lo, hi): keep x < z on the left
    left = (z - xl[::-1], ul[::-1], np.clip(xl[::-1], 0.0, below))
    right = (xr - z, ur, np.clip(xr, z, 1.0))
    sides = []
    for d, us, xa in (left, right):
        h = pb.lam * np.abs(pb.weight.eval(xa)) * pb.f(us)
        sides.append((d, us, h, cumulative_trapezoid(h, d, initial=0.0)))
    return sides


def _find_witness(pb, u):
    """Scan pairs z -+ off toward the node; the first certified pair wins.

    u is a SingularSolution, whose two pieces are used as they are, or a
    trace with increasing xs and us, split at z.  A pair is certified when
    int H^(-1/2) over it, with H(x) = lam |int_x^z a f(u)| integrated once
    per side by _trace_sides and each half graded as d = t^2, is at most
    0.99 of u(z - off) - u(z + off).
    """
    sides = _trace_sides(pb, u)
    z = pb.weight.z

    # flux lower bound near the node: needed to transfer integrability of
    # the weight integrals to the solution-weighted ones
    eta = 0.5 * min(z, 1.0 - z)
    near = np.concatenate([us[(d > 1e-12) & (d < eta)] for d, us, _, _ in sides])
    if near.size == 0 or np.min(pb.lam * pb.f(near)) <= 0.0:
        return None

    def outer(off):
        """int_{z-off}^{z+off} H^(-1/2), sqrt-graded at the node from both sides."""
        t = np.linspace(0.0, math.sqrt(off), 2001)
        total = 0.0
        for d, _, h, H in sides:
            Hq = np.interp(t[1:] ** 2, d, H)
            if np.any(Hq <= 0.0):
                return None
            grad = np.empty_like(t)
            grad[1:] = 2.0 * t[1:] / np.sqrt(Hq)
            # H ~ kappa d at the node, with kappa the node value of h
            grad[0] = 2.0 / math.sqrt(h[0]) if h[0] > 0 else grad[1]
            total += float(np.trapezoid(grad, t))
        return total

    (dl, ul, _, _), (dr, ur, _, _) = sides
    for k in range(1, 13):
        off = eta * 0.5 ** (k - 1)
        drop = float(np.interp(off, dl, ul) - np.interp(off, dr, ur))
        if drop <= 0:
            continue
        w = outer(off)
        if w is not None and w <= 0.99 * drop:  # one percent slack
            return Witness(z - off, z + off, w, drop)
    return None
