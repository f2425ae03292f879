"""Adaptive quadrature and the node-singular criterion integrals.

The regularity criterion needs integrals of (int_x^z a)^(-1/2) up to the
node z, where the inner integral vanishes.  One law covers every weight
form: near the node, a is the sum of terms c d^e in the distance
d = |x - z| (the node segment's node_terms).  The leading term gives the
vanishing order, from which divergence is decided symbolically.  A
convergent side with one term has a closed form; with more terms, a graded
substitution removes the endpoint singularity before the adaptive rule
sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ExtendedReal", "QuadratureBudgetError", "integrate", "criterion_integral", "criterion_pair"]

_CRITERION_TOL = 1e-6  # absolute error target of the criterion integrals


class QuadratureBudgetError(RuntimeError):
    """Raised when the adaptive rule runs out of subdivision depth."""


@dataclass(frozen=True)
class ExtendedReal:
    """A finite value or a certified divergence with its exponent witness.

    ``exponent`` is the local power e >= 1 such that the integrand behaves
    like |x - z|^(-e) at the node, which proves the divergence.
    """

    value: float
    infinite: bool = False
    exponent: float | None = None

    @classmethod
    def finite(cls, v):
        return cls(float(v), False, None)

    @classmethod
    def diverging(cls, exponent):
        return cls(math.inf, True, float(exponent))

    def __float__(self):
        return self.value

    def to_dict(self):
        if self.infinite:
            return {"finite": False, "exponent": self.exponent}
        return {"finite": True, "value": self.value}


def _adaptive(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise QuadratureBudgetError("non-finite integrand")
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureBudgetError("adaptive quadrature budget exhausted")
    return _adaptive(g, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive(
        g, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def integrate(g, x0, x1, tol=1e-8, max_depth=48):
    """Adaptive Simpson estimate of int_x0^x1 g with absolute error <= tol."""
    x0 = float(x0)
    x1 = float(x1)
    if x0 == x1:
        return 0.0
    sign = 1.0
    if x1 < x0:
        x0, x1 = x1, x0
        sign = -1.0
    fa, fb = g(x0), g(x1)
    fm = g(0.5 * (x0 + x1))
    whole = (x1 - x0) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _adaptive(g, x0, x1, fa, fm, fb, whole, tol, max_depth)


# ---------------------------------------------------------------------------
# criterion integrals

def _inner(w, side):
    """int_x^z a as an exact function of x on the requested side."""
    z = w.z
    if side == "left":
        return lambda x: w.integral(x, z)
    return lambda x: -w.integral(z, x)


def _near_closed_form(terms, length):
    """Exact near-node part when a is one term c d^e there, else None."""
    if len(terms) != 1:
        return None
    ((c, e),) = terms
    if e == 0.0:  # the same value with fewer roundings
        return 2.0 * math.sqrt(length / abs(c))
    return math.sqrt((e + 1.0) / abs(c)) * 2.0 / (1.0 - e) * length ** ((1.0 - e) / 2.0)


def _inner_from_distance(terms):
    """|int over the last d units before the node| as an exact function of d.

    a = sum c d^e near the node gives sum c d^(e+1) / (e+1); working in
    distance coordinates, no cancellation occurs for tiny d.
    """
    lifted = [(c, e + 1.0) for c, e in terms]
    return lambda d: abs(math.fsum(c * d ** e1 / e1 for c, e1 in lifted))


def _near_graded(terms, length, order, coeff, tol):
    """Near-node part via the graded substitution t = |x - z|^((1-order)/2).

    The terms are divided by the leading amplitude |coeff| before the
    adaptive rule sees them, so its refinement does not depend on the scale
    of a and the value follows the law near(k a) = near(a) / sqrt(k).
    """
    gamma = (1.0 - order) / 2.0
    amp = abs(coeff)
    inner_d = _inner_from_distance([(c / amp, e) for c, e in terms])
    limit = math.sqrt(order + 1.0) / gamma

    def integrand(t):
        if t <= 0.0:
            return limit
        d = t ** (1.0 / gamma)
        if d < 1e-130:
            # below this the inner power underflows; leading order is exact
            return limit
        val = inner_d(d)
        if val <= 0.0:
            raise QuadratureBudgetError("inner integral not positive near the node")
        return val ** -0.5 * (1.0 / gamma) * t ** (1.0 / gamma - 1.0)

    return integrate(integrand, 0.0, length ** gamma, tol=tol) / math.sqrt(amp)


def criterion_integral(w, side, method="auto"):
    """int over one side of (int_x^z a)^(-1/2), or a divergence certificate.

    side "left" integrates over (0, z), side "right" over (z, 1).  The weight
    must be positive left of its node and negative right of it.  Divergence
    is decided from the vanishing order of a at the node: local order alpha
    gives integrand exponent (alpha + 1)/2, infinite iff that is >= 1.

    method "closed" forces the closed form, which needs a node segment with
    one term; "adaptive" forces the graded-substitution quadrature; "auto"
    prefers the closed form when available.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not w.has_sign_split:
        raise ValueError("criterion integrals need a sign-split weight")
    order, coeff = w.node_order(side)
    if math.isinf(order):
        raise ValueError("weight vanishes identically near the node")
    e = (order + 1.0) / 2.0
    if e >= 1.0 - 1e-14:
        return ExtendedReal.diverging(e)

    z = w.z
    near_seg = w.node_segment(side)
    if side == "left":
        length = z - near_seg.lo
        far = w.spans(0.0, near_seg.lo)
    else:
        length = near_seg.hi - z
        far = w.spans(near_seg.hi, 1.0)

    terms = near_seg.form.node_terms(side, z)
    closed = _near_closed_form(terms, length)
    if method == "closed":
        if closed is None:
            raise ValueError("no closed form for this adjacent segment")
        near = closed
    elif method == "adaptive" or closed is None:
        near = _near_graded(terms, length, order, coeff, tol=_CRITERION_TOL * 1e-3)
    else:
        near = closed

    inner = _inner(w, side)
    far_total = 0.0
    abs_tol = max(1e-13, _CRITERION_TOL * max(near, 1.0) * 1e-2)
    for lo, hi, _ in far:
        far_total += integrate(lambda x: inner(x) ** -0.5, lo, hi, tol=abs_tol)
    return ExtendedReal.finite(near + far_total)


def criterion_pair(w):
    return criterion_integral(w, "left"), criterion_integral(w, "right")
