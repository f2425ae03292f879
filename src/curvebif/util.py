"""Scan-and-refine root search in a positive height.

Regular heights and jump-piece heights are both found this way: walk a
classifier over log-spaced heights, bracket its sign changes, then refine a
bracket: bisect while an end is a surrogate, then run scipy's brentq in log
height between exact ends.  The walk is lazy, so a caller that needs only
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
from scipy.optimize import brentq

__all__ = ["scan_brackets", "bisect_bracket"]

# a bracket with hi - lo <= COLLAPSE_RTOL * hi has collapsed: a few ulp wide
COLLAPSE_RTOL = 1e-15
# heights one refinement evaluates at most
MAX_EVALS = 200
# a collapsed bracket keeps its best exact point only this close to a root
FALLBACK_TOL = 1e-6
_BRENTQ_RTOL = 4.0 * sys.float_info.epsilon  # the smallest rtol brentq accepts


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


class _Leave(Exception):
    """Ends a brentq pass: a surrogate became an end, and bisection resumes."""


class _Done(Exception):
    """Ends the refinement early with args[0]: an exact root, or None for a height with no sign."""


def bisect_bracket(value, lo, hi, lo_positive, tol):
    """Refine a bracket in heights 0 < lo < hi: bisection, then brentq in log height.

    While either end is a surrogate or not yet evaluated, the next height is
    the geometric midpoint.  Once both ends hold exact values the routine
    evaluated itself, scipy.optimize.brentq runs in log height, served the
    known ends without an evaluation; a surrogate it meets becomes an end,
    and bisection resumes.  Returns the first exact height with |v| <= tol,
    and None as soon as a height has no sign.  When the bracket collapses to
    hi - lo <= COLLAPSE_RTOL * hi, brentq stops on its own (at a log width
    below xtol + 4 eps |log s|, xtol = COLLAPSE_RTOL) or MAX_EVALS heights
    are spent, returns the exact height with the smallest |v| if that is
    within FALLBACK_TOL, else None.  Every height lies strictly inside the
    bracket of the moment, brentq's at least xtol/2 + 2 eps |log s| in log
    height from either end, so none is evaluated twice.
    """
    best = None
    v_lo = v_hi = None  # exact values at the ends, None for surrogate or unseen
    evals = 0

    def step(s):  # evaluate s inside the bracket, shrink the bracket onto it, return its exact value or None
        nonlocal lo, v_lo, hi, v_hi, best, evals
        evals += 1
        v, exact = value(s)[:2]
        if v is None:
            raise _Done(None)
        if exact:
            if abs(v) <= tol:
                raise _Done(s)
            if best is None or abs(v) < abs(best[0]):
                best = (v, s)
        if (v >= 0.0) == lo_positive:
            lo, v_lo = s, v if exact else None
        else:
            hi, v_hi = s, v if exact else None
        return v if exact else None

    def in_log(t):  # brentq's function of the log height
        if t in ends:
            return ends[t]
        v = step(math.exp(t))
        if v is None:
            raise _Leave
        return v

    try:
        while evals < MAX_EVALS and hi - lo > COLLAPSE_RTOL * hi:
            t_lo, t_hi = math.log(lo), math.log(hi)
            if v_lo is None or v_hi is None or t_lo == t_hi:
                step(_midpoint(lo, hi))
                continue
            ends = {t_lo: v_lo, t_hi: v_hi}  # brentq starts from the known ends, which cost no evaluation
            try:
                brentq(in_log, t_lo, t_hi, xtol=COLLAPSE_RTOL, rtol=_BRENTQ_RTOL, maxiter=MAX_EVALS - evals, disp=False)
                break
            except _Leave:
                pass
    except _Done as done:
        return done.args[0]
    return best[1] if best is not None and abs(best[0]) <= FALLBACK_TOL else None


def _midpoint(lo, hi):
    # lo * hi underflows for heights below about 1e-154 and overflows above 1e154
    return math.sqrt(lo * hi) if sys.float_info.min <= lo * hi < math.inf else math.sqrt(lo) * math.sqrt(hi)
