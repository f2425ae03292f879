"""Scan-and-refine root search in a positive height.

Regular heights and jump-piece heights are both found this way: walk a
classifier over log-spaced heights, bracket its sign changes, then refine a
bracket in log height, interpolating between exact values and bisecting
while an end is a surrogate.  The walk is lazy, so a caller that needs only
the first bracket from one end stops evaluating heights there, and a caller
that can tell which heights hold no bracket skips them by bisection.  A
classifier value(s) returns (v, exact, ...): v is the signed value, or None
where s gives no sign; exact is False for a surrogate, which is read only
for its sign and so is never a root; later items are the caller's own, read
only by a settled predicate.  v >= 0 counts as positive.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["scan_brackets", "bisect_bracket"]

# a bracket with hi - lo <= COLLAPSE_RTOL * hi has collapsed: a few ulp wide
COLLAPSE_RTOL = 1e-15
# heights one refinement evaluates at most
MAX_EVALS = 200
# a collapsed bracket keeps its best exact point only this close to a root
FALLBACK_TOL = 1e-6
# an interpolated height stays this share of the log width inside the bracket
_CLIP = 1e-3


def scan_brackets(value, start, stop, n, *, settled=None):
    """Yield sign-change brackets (a, b, a_positive), a < b, walking n log-spaced heights.

    The grid is geomspace(min, max, n) of the two ends, walked from start
    toward stop: downward, when start > stop, over the same floats in
    reverse.  Each bracket is yielded as soon as both its ends are
    evaluated, and no height past it is evaluated until the caller asks
    for the next one.  Neighbours of a height with no sign form no bracket.

    settled(r), when given, reads a classifier result r = value(s).  It
    must hold on a prefix of the walk whose values share one sign, so that
    no bracket lies there.  If it holds at the first height, the walk
    bisects the grid index for the last settled height, in at most
    ceil(log2 n) + 1 evaluations that may lie past the first bracket, and
    walks on from there.  Each height is evaluated at most once, and the
    walk yields the plain walk's brackets.
    """
    heights = [float(s) for s in np.geomspace(min(start, stop), max(start, stop), n)]
    # geomspace(start, stop, n) itself would round interior heights differently
    if start > stop:
        heights.reverse()
    seen = {}  # grid index -> classifier result

    def at(i):
        if i not in seen:
            seen[i] = value(heights[i])
        return seen[i]

    first = 0
    if settled is not None and heights and settled(at(0)):
        hi = len(heights)  # settled holds at first; hi is unsettled or past the grid
        while hi - first > 1:
            mid = (first + hi) // 2
            if settled(at(mid)):
                first = mid
            else:
                hi = mid
    s_prev = v_prev = None
    for i in range(first, len(heights)):
        s = heights[i]
        v = at(i)[0]
        if v_prev is not None and v is not None and (v_prev >= 0.0) != (v >= 0.0):
            yield (s_prev, s, v_prev >= 0.0) if s_prev < s else (s, s_prev, v >= 0.0)
        s_prev, v_prev = s, v


def bisect_bracket(value, lo, hi, lo_positive, tol):
    """Refine a bracket in heights 0 < lo < hi by Brent-style interpolation.

    While both ends hold exact values the routine evaluated itself, the next
    height interpolates in log height: inversely quadratic through the two
    ends and the last exact end dropped from the bracket, or the secant of
    the ends where that point is missing, shares a value with an end, or
    interpolates outside the bracket (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4).  The step is clipped away from the
    ends.  While either end is a surrogate or not yet evaluated, and after
    two interpolation steps in a row that fail to halve the log width, it
    takes the geometric midpoint.  Returns the first exact height with
    |v| <= tol, and None as soon as a height has no sign.  When the bracket
    collapses to hi - lo <= COLLAPSE_RTOL * hi or MAX_EVALS heights are
    spent, returns the exact height with the smallest |v| if that is within
    FALLBACK_TOL, else None.  Every height it evaluates lies strictly inside
    the bracket of the moment, so none is evaluated twice.
    """
    best = None
    v_lo = v_hi = None  # exact values at the ends, None for surrogate or unseen
    dropped = None  # (height, value) of the last exact end dropped from the bracket
    slow = 0  # interpolation steps in a row that failed to halve the log width
    for _ in range(MAX_EVALS):
        if hi - lo <= COLLAPSE_RTOL * hi:
            break
        width = math.log(hi / lo)
        interpolate = v_lo is not None and v_hi is not None and slow < 2
        if interpolate:
            t = _interpolant(v_lo, v_hi, dropped, lo, width)
            t = min(max(t, _CLIP), 1.0 - _CLIP)
            mid = lo * math.exp(t * width)
            # a bracket a few ulp wide can round the step onto an end
            interpolate = lo < mid < hi
        if not interpolate:
            # lo * hi underflows for heights below about 1e-154
            mid = math.sqrt(lo * hi) if lo * hi >= sys.float_info.min else math.sqrt(lo) * math.sqrt(hi)
            slow = 0
        v, exact = value(mid)[:2]
        if v is None:
            return None
        if exact:
            if abs(v) <= tol:
                return mid
            if best is None or abs(v) < abs(best[0]):
                best = (v, mid)
        if (v >= 0.0) == lo_positive:
            if v_lo is not None:
                dropped = (lo, v_lo)
            lo, v_lo = mid, v if exact else None
        else:
            if v_hi is not None:
                dropped = (hi, v_hi)
            hi, v_hi = mid, v if exact else None
        if interpolate:
            slow = slow + 1 if math.log(hi / lo) > 0.5 * width else 0
    if best is not None and abs(best[0]) <= FALLBACK_TOL:
        return best[1]
    return None


def _interpolant(v_lo, v_hi, dropped, lo, width):
    """The zero of the values' interpolant, as a share t of the log width above lo."""
    secant = v_lo / (v_lo - v_hi)
    if dropped is None or dropped[1] in (v_lo, v_hi):
        return secant
    s_c, v_c = dropped
    t_c = math.log(s_c / lo) / width
    # Lagrange form of t(v) through (0, v_lo), (1, v_hi), (t_c, v_c), at v = 0
    t = v_lo * v_c / ((v_hi - v_lo) * (v_hi - v_c)) + t_c * v_lo * v_hi / ((v_c - v_lo) * (v_c - v_hi))
    return t if 0.0 < t < 1.0 else secant
