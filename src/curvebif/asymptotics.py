"""Large-parameter profile laws and small-branch scaling checks.

Families of solutions separated away from zero are collected over a lam
ladder (regular ones from the height scan where the graphs stay mild,
jump solutions from the two-sided construction otherwise) and their probe
values are fitted in log-log coordinates: growth like lam^(1/q) on the
positive side of the weight, decay like lam^(-1/p) on the negative side,
bounded slopes in between.  The small-branch scaling for p > 1 is checked
against a frozen semilinear limit problem solved by its own shooting
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .shoot import find_regular
from .singular import Absent, SingularSolution, solve_singular

__all__ = [
    "RateFit",
    "FamilyMember",
    "build_family",
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


@dataclass
class FamilyMember:
    lam: float
    kind: str  # "regular" | "singular"
    solution: object
    node: float = 0.5

    def u_at(self, x):
        return self.solution.u_at(x)

    @property
    def sup_norm(self):
        return self.solution.sup_norm

    def max_slope_on(self, lo, hi):
        if isinstance(self.solution, SingularSolution):
            best = 0.0
            for xs, dus in (
                (self.solution.xs_left, self.solution.dus_left),
                (self.solution.xs_right, self.solution.dus_right),
            ):
                m = (xs >= lo) & (xs <= hi)
                if np.any(m):
                    best = max(best, float(np.max(np.abs(dus[m]))))
            return best
        m = (self.solution.xs >= lo) & (self.solution.xs <= hi)
        return float(np.max(np.abs(self.solution.dus[m]))) if np.any(m) else 0.0

    def level_crossing(self, level):
        """Largest x with u(x) >= level (the node itself when the jump spans it)."""
        if isinstance(self.solution, SingularSolution):
            s = self.solution
            if s.us_left[-1] >= level >= s.us_right[0]:
                return float(s.xs_left[-1])
            xs, us = (s.xs_left, s.us_left) if s.us_left[-1] > level else (s.xs_right, s.us_right)
        else:
            xs, us = self.solution.xs, self.solution.us
        rev_u = us[::-1]
        rev_x = xs[::-1]
        return float(np.interp(level, rev_u, rev_x))


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


def build_family(pb_family, ladder):
    """One separated-from-zero solution per ladder rung.

    Tries the regular height scan above 2 M first (warm bounds carried
    along the ladder), then falls back to the jump construction when the
    weight admits it.  Raises when a rung yields nothing, since rate fits
    need every member.
    """
    ladder = sorted(float(l) for l in ladder)
    if len(ladder) < 2:
        raise ValueError("need at least two ladder rungs")
    if any(l <= 0 for l in ladder):
        raise ValueError("ladder entries must be positive")
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
        member = None
        sols = find_regular(pb, s_min=lo, s_max=hi, n_scan=48)
        sols = [s for s in sols if np.all(np.diff(s.us) <= 1e-9 * max(1.0, s.sup_norm))]
        if sols:
            member = FamilyMember(lam, "regular", sols[-1], node=pb_family.weight.z)
        else:
            sing = solve_singular(pb)
            if not isinstance(sing, Absent):
                member = FamilyMember(lam, "singular", sing, node=pb_family.weight.z)
        if member is None:
            raise RuntimeError(f"no solution separated from zero at lam = {lam}")
        members.append(member)
        prev_sup = member.sup_norm
    return members


def grow_decay_rates(members, eta=None):
    """Log-log slopes of u at one probe point per side of the node.

    Returns (slope_left, slope_right, fits) where fits carry the r^2
    diagnostics; a fit below r^2 = 0.98 should be treated as inconclusive,
    never as a pass.
    """
    if len(members) < 4:
        raise ValueError("rate fits need at least four ladder rungs")
    z = members[0].node
    if eta is None:
        eta = 0.1 * min(z, 1.0 - z)
    if not (0 < eta < min(z, 1.0 - z) / 2):
        raise ValueError("eta must lie in (0, min(z, 1-z)/2)")
    lams = [m.lam for m in members]
    x_left = (z - eta) / 2.0
    x_right = z + eta + (1.0 - z - eta) / 2.0
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
    u((z-eta)/2)/u(0), with eta = 0.1 min(z, 1 - z).  Trend lines over the
    ladder are fitted in log-log coordinates.
    """
    eta = 0.1 * min(z, 1.0 - z)
    lams = [m.lam for m in members]
    slopes = [m.max_slope_on(0.0, z - eta) for m in members]
    slopes_r = [m.max_slope_on(z + eta, 1.0) for m in members]
    outer = [max(a, b) for a, b in zip(slopes, slopes_r)]
    crossings = [m.level_crossing(M) for m in members]
    ratios = [m.u_at((z - eta) / 2.0) / m.u_at(0.0) for m in members]
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

    Shot directly in x from v(0) = sigma, v'(0) = 0 for 160 log-spaced sigma
    in [1e-4, 1e4]; returns sigma at the first bracketed root of v'(1).
    This is an independent oracle:
    it never touches the arclength machinery.
    """
    z = weight.z

    def shoot(sigma):
        y = np.array([sigma, 0.0])
        crossed = False
        for seg in weight.segments:
            def rhs(x, yv, form=seg.form):
                a = float(form.value(x, z))
                return [yv[1], -a * abs(yv[0]) ** p * math.copysign(1.0, yv[0])]

            def ev_zero(x, yv):
                return yv[0]

            ev_zero.terminal = True
            ev_zero.direction = -1.0
            out = solve_ivp(rhs, (seg.lo, seg.hi), y, method="DOP853", rtol=1e-11, atol=1e-13, events=ev_zero)
            y = out.y[:, -1]
            if out.status == 1:
                crossed = True
                break
        return (None if crossed else float(y[1])), crossed

    sigmas = np.geomspace(1e-4, 1e4, 160)
    residuals = []
    for s in sigmas:
        r, crossed = shoot(float(s))
        residuals.append(-1.0 if crossed else (1.0 if r >= 0 else -1.0) if r is not None else None)
    root = None
    for i in range(len(sigmas) - 1):
        if residuals[i] is None or residuals[i + 1] is None:
            continue
        if residuals[i] != residuals[i + 1]:
            lo, hi = sigmas[i], sigmas[i + 1]
            lo_sign = residuals[i]
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                r, crossed = shoot(mid)
                sgn = -1.0 if crossed or r is None else (1.0 if r >= 0 else -1.0)
                if not crossed and r is not None and abs(r) <= 1e-11:
                    root = mid
                    break
                if sgn == lo_sign:
                    lo = mid
                else:
                    hi = mid
            if root is not None:
                break
    if root is None:
        raise RuntimeError("no positive solution of the limit problem found in range")
    return root


def small_branch_scaling(pb_family, ladder):
    """Scaling of the smallest solution for p > 1 and the limit-problem match.

    Returns a report with the log-log slope of the smallest sup norm
    (expected -1/(p-1)), its fit quality, the ratio of the rescaled
    heights to the limit problem's height, and the smallest solution at
    each rung of the sorted ladder.
    """
    p = pb_family.f.p
    if p <= 1.0:
        raise ValueError("small-branch scaling needs p > 1")
    ladder = sorted(float(l) for l in ladder)
    if len(ladder) < 4:
        raise ValueError("need at least four ladder rungs")

    def smallest(lam):
        sols = find_regular(pb_family.at(lam), s_min=1e-8, s_max=1e3, n_scan=64)
        if not sols:
            raise RuntimeError(f"no small solution found at lam = {lam}")
        return sols[0]

    sols = [smallest(lam) for lam in ladder]
    sups = [s.sup_norm for s in sols]
    slope, intercept, r2 = _loglog_fit(ladder, sups)
    v_height = semilinear_positive_solution(pb_family.weight, p)
    scaled = [s * lam ** (1.0 / (p - 1.0)) for s, lam in zip(sups, ladder)]
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
