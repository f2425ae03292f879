"""Large-parameter profile laws and small-branch scaling checks.

Families of solutions separated away from zero are collected over a lam
ladder (regular ones from the height scan where the graphs stay mild,
jump solutions from the two-sided construction otherwise) and their probe
values are fitted in log-log coordinates: growth like lam^(1/q) on the
positive side of the weight, decay like lam^(-1/p) on the negative side,
bounded slopes in between.  The small-branch scaling for p > 1 is checked
against a frozen semilinear limit problem shot on eigen's x-form march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# unused here, but bench/tracing.py wraps asymptotics.solve_ivp (ROADMAP item 3B)
from scipy.integrate import solve_ivp

from .eigen import _shoot_x
from .shoot import find_regular
from .singular import Absent, solve_singular
from .util import bisect_bracket, scan_brackets

__all__ = [
    "RateFit",
    "build_family",
    "max_slope_on",
    "level_crossing",
    "grow_decay_rates",
    "flatness_and_node",
    "small_branch_scaling",
    "semilinear_positive_solution",
]


@dataclass
class RateFit:
    lambdas: tuple
    probe_x: float
    slope: float
    intercept: float
    r2: float

    def to_dict(self):
        return {
            "lambdas": list(self.lambdas),
            "probe_x": self.probe_x,
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
        }


def max_slope_on(sol, lo, hi):
    """Largest |u'| of the solution's mesh points in [lo, hi], 0 when there are none."""
    best = 0.0
    for xs, _, dus in sol.pieces:
        m = (xs >= lo) & (xs <= hi)
        if np.any(m):
            best = max(best, float(np.max(np.abs(dus[m]))))
    return best


def level_crossing(sol, level):
    """Largest x with u(x) >= level, or the node when the jump spans the level.

    Walks the pieces from the right; each decreases in u.  A piece whose
    right end is at or above the level gives that end, one that starts
    above it gives the crossing, and a level above every piece gives x = 0.
    """
    for xs, us, _ in reversed(sol.pieces):
        if us[-1] >= level:
            return float(xs[-1])
        if us[0] > level:
            return float(np.interp(level, us[::-1], xs[::-1]))
    return float(sol.pieces[0][0][0])


def _loglog_fit(lams, vals):
    lx = np.log(np.asarray(lams, float))
    ly = np.log(np.asarray(vals, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def default_ladder():
    return tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))


def _rungs(ladder, n_min):
    """The ladder sorted, refused unless it holds n_min distinct positive rungs.

    A repeated rung would let a log-log fit through fewer points than it
    reports pass for a good one.
    """
    ladder = sorted(float(l) for l in ladder)
    if len(ladder) < n_min:
        raise ValueError(f"need at least {n_min} ladder rungs")
    if any(l <= 0 for l in ladder):
        raise ValueError("ladder entries must be positive")
    if any(a == b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"ladder rungs must be distinct, got {ladder}")
    return ladder


def build_family(pb_family, ladder):
    """One separated-from-zero solution per ladder rung.

    Tries the regular height scan above 2 M first (warm bounds carried
    along the ladder), then falls back to the jump construction when the
    weight admits it.  Raises when a rung yields nothing, since rate fits
    need every member.
    """
    ladder = _rungs(ladder, 2)
    members = []
    prev_sup = None
    q = pb_family.f.q
    for lam in ladder:
        pb = pb_family.at(lam)
        lo = 2.0 * pb_family.f.M
        if prev_sup is None:
            hi = max(1e6, (lam * pb_family.f.h * pb_family.weight.abs_integral) ** (1.0 / q) * 1e2)
        else:
            hi = prev_sup * (lam / members[-1].lam) ** (1.0 / q) * 1e2
        hi = max(hi, 10 * lo)
        sols = find_regular(pb, s_min=lo, s_max=hi, n_scan=48)
        sols = [s for s in sols if np.all(np.diff(s.us) <= 1e-9 * max(1.0, s.sup_norm))]
        member = sols[-1] if sols else solve_singular(pb)
        if isinstance(member, Absent):
            raise RuntimeError(f"no solution separated from zero at lam = {lam}")
        members.append(member)
        prev_sup = member.sup_norm
    return members


def _probes(z):
    """(eta, x_left, x_right): eta = 0.1 min(z, 1 - z), and the midpoints of [0, z - eta] and [z + eta, 1]."""
    eta = 0.1 * min(z, 1.0 - z)
    return eta, (z - eta) / 2.0, z + eta + (1.0 - z - eta) / 2.0


def grow_decay_rates(members, z):
    """Log-log slopes of u at one probe point per side of the node z.

    The probes are the midpoints of [0, z - eta] and [z + eta, 1], with
    eta = 0.1 min(z, 1 - z).  Returns (slope_left, slope_right, fits) where
    fits carry the r^2 diagnostics; a fit below r^2 = 0.98 should be
    treated as inconclusive, never as a pass.
    """
    if len(members) < 4:
        raise ValueError("rate fits need at least four ladder rungs")
    lams = [m.lam for m in members]
    _, x_left, x_right = _probes(z)
    u_left = [m.u_at(x_left) for m in members]
    u_right = [m.u_at(x_right) for m in members]
    sl, il, r2l = _loglog_fit(lams, u_left)
    sr, ir, r2r = _loglog_fit(lams, u_right)
    fits = {
        "left": RateFit(tuple(lams), x_left, sl, il, r2l),
        "right": RateFit(tuple(lams), x_right, sr, ir, r2r),
    }
    return sl, sr, fits


def flatness_and_node(members, z, M):
    """Per-rung flatness and level-crossing report on the lam ladder.

    For each member: the largest |u'| on the outer region |x - z| >= eta,
    the point where u crosses the peak level M, and the plateau ratio
    u((z-eta)/2)/u(0) at grow_decay_rates' left probe, with
    eta = 0.1 min(z, 1 - z).  Trend lines over the ladder are fitted in
    log-log coordinates.
    """
    eta, x_left, _ = _probes(z)
    lams = [m.lam for m in members]
    slopes = [max_slope_on(m, 0.0, z - eta) for m in members]
    slopes_r = [max_slope_on(m, z + eta, 1.0) for m in members]
    outer = [max(a, b) for a, b in zip(slopes, slopes_r)]
    crossings = [level_crossing(m, M) for m in members]
    ratios = [m.u_at(x_left) / m.u_at(0.0) for m in members]
    trend_slope, _, trend_r2 = _loglog_fit(lams, [max(v, 1e-30) for v in outer])
    return {
        "lambdas": lams,
        "max_slope_outer": outer,
        "slope_trend": trend_slope,
        "slope_trend_r2": trend_r2,
        "level_crossing": crossings,
        "crossing_gap_first": abs(crossings[0] - z),
        "crossing_gap_last": abs(crossings[-1] - z),
        "plateau_ratio": ratios,
    }


# ---------------------------------------------------------------------------
# small-branch scaling for p > 1

def semilinear_positive_solution(weight, p):
    """Positive Neumann solution of the frozen limit problem -v'' = a |v|^p sgn v.

    Shot on eigen's x-form march from v(0) = sigma, v'(0) = 0, with a
    shot that crosses zero counted as negative.
    util.scan_brackets walks 160 log-spaced sigma up from 1e-4 toward 1e4,
    and util.bisect_bracket refines each bracket as the walk yields it, by
    brentq in log sigma once both ends are exact (bisection before that),
    until |v'(1)| <= 1e-11;
    returns sigma at the first root, and shoots no sigma above its bracket.
    This is an independent oracle: it never touches the arclength
    machinery.
    """

    def value(sigma):
        _, dv, crossed, _ = _shoot_x(weight, 1.0, p, sigma, 1e-11, 1e-13)
        return (-1.0, False) if crossed else (dv, True)  # a crossing is not a positive solution

    for lo, hi, lo_positive in scan_brackets(value, 1e-4, 1e4, 160):
        root = bisect_bracket(value, lo, hi, lo_positive, 1e-11)
        if root is not None:
            return root
    raise RuntimeError("no positive solution of the limit problem found in range")


def small_branch_scaling(pb_family, ladder):
    """Scaling of the smallest solution for p > 1 and the limit-problem match.

    Near zero f = c u^p, so u = (c lam)^(-1/(p-1)) v carries the limit
    problem's solution v onto the small branch.  Returns a report with the
    log-log slope of the smallest sup norm (expected -1/(p-1)), its fit
    quality, the ratio of the rescaled heights to the limit problem's
    height, and the smallest solution at each rung of the sorted ladder.
    """
    p, c = pb_family.f.p, pb_family.f.c
    if p <= 1.0:
        raise ValueError("small-branch scaling needs p > 1")
    ladder = _rungs(ladder, 4)

    def smallest(lam):
        sols = find_regular(pb_family.at(lam), s_min=1e-8, s_max=1e3, n_scan=64)
        if not sols:
            raise RuntimeError(f"no small solution found at lam = {lam}")
        return sols[0]

    sols = [smallest(lam) for lam in ladder]
    sups = [s.sup_norm for s in sols]
    slope, intercept, r2 = _loglog_fit(ladder, sups)
    v_height = semilinear_positive_solution(pb_family.weight, p)
    scaled = [s * (c * lam) ** (1.0 / (p - 1.0)) for s, lam in zip(sups, ladder)]
    return {
        "ladder": ladder,
        "sup_norms": sups,
        "slope": slope,
        "expected_slope": -1.0 / (p - 1.0),
        "r2": r2,
        "limit_height": v_height,
        "scaled_heights": scaled,
        "limit_ratio_last": scaled[-1] / v_height,
        "solutions": sols,
    }
