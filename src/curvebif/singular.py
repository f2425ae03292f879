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
    values; the verdict is then Inconclusive.
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


def _trace_arrays(u):
    if isinstance(u, SingularSolution):
        xs = np.concatenate([u.xs_left, u.xs_right])
        us = np.concatenate([u.us_left, u.us_right])
        return xs, us
    if hasattr(u, "xs") and hasattr(u, "us"):
        return np.asarray(u.xs, float), np.asarray(u.us, float)
    xs, us = u
    return np.asarray(xs, float), np.asarray(us, float)


def _find_witness(pb, u):
    """Scan witness pairs approaching the node; first certified pair wins."""
    xs, us = _trace_arrays(u)
    z = pb.weight.z
    lam = pb.lam

    # flux lower bound near the node: needed to transfer integrability of
    # the weight integrals to the solution-weighted ones
    eta = 0.5 * min(z, 1.0 - z)
    near = (np.abs(xs - z) < eta) & (np.abs(xs - z) > 1e-12)
    if not np.any(near):
        return None
    m_low = float(np.min(lam * pb.f(us[near])))
    if m_low <= 0.0:
        return None

    hvals = lam * pb.weight.eval(np.clip(xs, 0.0, 1.0)) * pb.f(us)

    def H(x):
        """lam int_x^z a f(u) from the trace, trapezoid on the mesh."""
        if x < z:
            m = xs >= x
            xm = np.concatenate([[x], xs[m & (xs <= z)]])
            hm = np.concatenate([[np.interp(x, xs, hvals)], hvals[m & (xs <= z)]])
            return float(np.trapezoid(hm, xm))
        m = xs <= x
        xm = np.concatenate([xs[m & (xs >= z)], [x]])
        hm = np.concatenate([hvals[m & (xs >= z)], [np.interp(x, xs, hvals)]])
        return -float(np.trapezoid(hm, xm))

    def outer(x1, x2, n=4001):
        """int_x1^x2 H^(-1/2), sqrt-graded at the node from both sides."""
        total = 0.0
        for lo, hi, left_side in ((x1, z, True), (z, x2, False)):
            width = hi - lo
            if width <= 0:
                continue
            t = np.linspace(0.0, math.sqrt(width), n)
            d = t ** 2
            xq = (z - d) if left_side else (z + d)
            Hq = np.array([H(float(v)) for v in xq[1:]])
            if np.any(Hq <= 0.0):
                return None
            grad = np.empty_like(t)
            grad[1:] = 2.0 * t[1:] / np.sqrt(Hq)
            kappa = abs(np.interp(z - 1e-9 if left_side else z + 1e-9, xs, hvals))
            grad[0] = 2.0 / math.sqrt(kappa) if kappa > 0 else grad[1]
            total += float(np.trapezoid(grad, t))
        return total

    u_of = lambda x: float(np.interp(x, xs, us))
    for k in range(1, 13):
        off = eta * 0.5 ** (k - 1)
        x1, x2 = z - off, z + off
        drop = u_of(x1) - u_of(x2)
        if drop <= 0:
            continue
        w = outer(x1, x2, n=2001)
        if w is None:
            continue
        if w <= 0.99 * drop:  # one percent slack
            return Witness(x1, x2, w, drop)
    return None
