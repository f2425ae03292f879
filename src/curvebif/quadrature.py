"""The node-singular criterion integrals.

The regularity criterion needs integrals of (int_x^z a)^(-1/2) up to the
node z, where the inner integral vanishes.  One law covers every weight
form: near the node, a is the sum of terms c d^e in the distance
d = |x - z| (the node segment's node_terms).  The leading term gives the
vanishing order, from which divergence is decided symbolically.  Every
convergent side takes one path: on the node segment the integrand is
d^(-(e0+1)/2) times a smooth factor, which QUADPACK's QAWS rule integrates
with the power as its weight; each far segment is a plain QAGS integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

__all__ = ["ExtendedReal", "criterion_integral"]

_EPSABS, _EPSREL, _LIMIT = 1e-13, 1e-12, 200  # QUADPACK targets of every criterion integral


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


def _quad(g, lo, hi, side, **weight):
    """QUADPACK's estimate of int_lo^hi g; a reported failure is a ValueError."""
    value, _, _, *message = quad(
        g, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, limit=_LIMIT, full_output=1, **weight
    )
    if message:
        raise ValueError(f"{side} criterion integral failed: {message[0]}")
    return value


def _inner(w, side):
    """int_x^z a as an exact function of x on the requested side."""
    z = w.z
    if side == "left":
        return lambda x: w.integral(x, z)
    return lambda x: -w.integral(z, x)


def _inner_from_distance(terms):
    """|int over the last d units before the node| as an exact function of d.

    a = sum c d^e near the node gives sum c d^(e+1) / (e+1); working in
    distance coordinates, no cancellation occurs for tiny d.
    """
    lifted = [(c, e + 1.0) for c, e in terms]
    return lambda d: abs(math.fsum(c * d ** e1 / e1 for c, e1 in lifted))


def _near(terms, length, order, coeff, side):
    """int_0^length of inner(d)^(-1/2) by QAWS with the weight d^(-(order+1)/2).

    The terms are divided by the leading amplitude |coeff| first, so the
    smooth factor is sqrt(order + 1) at the node whatever the scale of a,
    and the value follows the law near(k a) = near(a) / sqrt(k).
    """
    amp = abs(coeff)
    inner_d = _inner_from_distance([(c / amp, e) for c, e in terms])
    at_node = math.sqrt(order + 1.0)

    def smooth(d):
        return (inner_d(d) / d ** (order + 1.0)) ** -0.5 if d > 0.0 else at_node

    wvar = (-(order + 1.0) / 2.0, 0.0)
    return _quad(smooth, 0.0, length, side, weight="alg", wvar=wvar) / math.sqrt(amp)


def criterion_integral(w, side):
    """int over one side of (int_x^z a)^(-1/2), or a divergence certificate.

    side "left" integrates over (0, z), side "right" over (z, 1).  The weight
    must be positive left of its node and negative right of it.  Divergence
    is decided from the vanishing order of a at the node: local order alpha
    gives integrand exponent (alpha + 1)/2, infinite iff that is >= 1.  A
    finite side is the QAWS integral over the node segment plus one QAGS
    integral per far segment; a QUADPACK failure raises ValueError.
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

    near = _near(near_seg.form.node_terms(side, z), length, order, coeff, side)
    inner = _inner(w, side)
    far_total = sum(_quad(lambda x: inner(x) ** -0.5, lo, hi, side) for lo, hi, _ in far)
    return ExtendedReal.finite(near + far_total)
