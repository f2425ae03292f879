"""Scan-and-bisect root search in a positive height.

Regular heights and jump-piece heights are both found this way: sample a
classifier on log-spaced heights, bracket its sign changes, then bisect a
bracket geometrically.  A classifier value(s) returns (v, exact): v is the
signed value, or None where s gives no sign; exact is False for surrogate
values that only steer the bisection.  v >= 0 counts as positive.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["scan_brackets", "bisect_bracket"]

# a collapsed bracket keeps its best exact point only this close to a root
FALLBACK_TOL = 1e-6


def scan_brackets(value, lo, hi, n):
    """Sign-change brackets (a, b, a_positive) over n log-spaced heights.

    Every height is evaluated before the brackets are formed; neighbours
    with no sign form no bracket.
    """
    heights = [float(s) for s in np.geomspace(lo, hi, n)]
    vals = [value(s)[0] for s in heights]
    brackets = []
    for a, b, va, vb in zip(heights, heights[1:], vals, vals[1:]):
        if va is not None and vb is not None and (va >= 0.0) != (vb >= 0.0):
            brackets.append((a, b, va >= 0.0))
    return brackets


def bisect_bracket(value, lo, hi, lo_positive, tol, rtol, max_iter):
    """Geometric bisection of a bracket in heights 0 < lo < hi.

    Returns the first midpoint with |v| <= tol, and None as soon as a
    midpoint has no sign.  When the bracket collapses to hi - lo <= rtol * hi
    or max_iter midpoints are spent, returns the exact midpoint with the
    smallest |v| if that is within FALLBACK_TOL, else None.
    """
    best = None
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)
        v, exact = value(mid)
        if v is None:
            return None
        if abs(v) <= tol:
            return mid
        if exact and (best is None or abs(v) < abs(best[0])):
            best = (v, mid)
        if (v >= 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    if best is not None and abs(best[0]) <= FALLBACK_TOL:
        return best[1]
    return None
