"""Problem data for the curvature Neumann problem.

The governing equation is

    -(u' / sqrt(1 + u'^2))' = lam * a(x) * f(u),   u'(0) = u'(1) = 0,

on (0, 1).  ``Weight`` describes the sign-changing coefficient a(x) as an
ordered list of segments, each with an exact antiderivative, so that
integrals of a are never approximated.  ``Nonlinearity`` describes the bump
nonlinearity f (power growth at zero, power decay at infinity), and
``ProblemInstance`` bundles both with the parameter ``lam``.

Pointwise residual diagnostics live here as well: ``curvature_residual``
(L1 defect of the second-order form) and ``neumann_balance`` (the integral
identity any Neumann solution must satisfy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "ConstantForm",
    "PolynomialForm",
    "PowerForm",
    "Segment",
    "Weight",
    "TableWeight",
    "Nonlinearity",
    "ProblemInstance",
    "two_constant_weight",
    "power_weight",
    "curvature_residual",
    "neumann_balance",
]


# ---------------------------------------------------------------------------
# segment forms: each states its value, antiderivative, scaling, checks and
# node_terms, the expansion a = sum c d^e in the distance d = |x - z| to the node

def _check_finite(*numbers):
    if not all(math.isfinite(v) for v in numbers):
        raise ValueError("form parameters must be finite")


@dataclass(frozen=True)
class ConstantForm:
    """a(x) = c on the segment."""

    c: float

    kind = "constant"

    def __post_init__(self):
        _check_finite(self.c)

    def value(self, x, z):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def anti(self, x, z):
        return self.c * np.asarray(x, dtype=float)

    def node_terms(self, side, z):
        return [(self.c, 0.0)]

    def scaled(self, k):
        return ConstantForm(k * self.c)

    def to_dict(self):
        return {"kind": "constant", "c": self.c}


def _poly_compose_affine(coeffs, shift, sgn):
    """Coefficients of p(shift + sgn*d) in powers of d."""
    out = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        # (shift + sgn d)^k expanded by binomial
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * shift ** (k - j) * sgn ** j
    return out.tolist()


@dataclass(frozen=True)
class PolynomialForm:
    """a(x) = sum_k coeffs[k] * x^k on the segment."""

    coeffs: tuple

    kind = "poly"

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        _check_finite(*self.coeffs)

    def value(self, x, z):
        return npoly.polyval(np.asarray(x, dtype=float), self.coeffs)

    def anti(self, x, z):
        return npoly.polyval(np.asarray(x, dtype=float), npoly.polyint(self.coeffs))

    def node_terms(self, side, z):
        sgn = -1.0 if side == "left" else 1.0
        return [(c, float(k)) for k, c in enumerate(_poly_compose_affine(self.coeffs, z, sgn))]

    def scaled(self, k):
        return PolynomialForm(tuple(k * c for c in self.coeffs))

    def to_dict(self):
        return {"kind": "poly", "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class PowerForm:
    """Power-law profile anchored at the node z.

    The value is sign * amplitude * d^exponent in the distance d = |x - z|,
    clipped at 0 on the far side.  The amplitude is always stored positive;
    the side fixes the sign, +1 left of the node and -1 right of it.
    """

    amplitude: float
    exponent: float
    side: str  # "left" | "right"

    kind = "power"

    def __post_init__(self):
        _check_finite(self.amplitude, self.exponent)
        if not (self.amplitude > 0.0 and self.exponent > -1.0 and self.side in ("left", "right")):
            raise ValueError("a power form needs amplitude > 0, exponent > -1 and side 'left' or 'right'")

    @property
    def sign(self):
        return 1.0 if self.side == "left" else -1.0

    def _distance(self, x, z):
        x = np.asarray(x, dtype=float)
        return np.maximum(z - x if self.side == "left" else x - z, 0.0)

    def value(self, x, z):
        return self.sign * self.amplitude * self._distance(x, z) ** self.exponent

    def anti(self, x, z):
        e1 = self.exponent + 1.0
        return -self.amplitude * self._distance(x, z) ** e1 / e1

    def node_terms(self, side, z):
        return [(self.sign * self.amplitude, self.exponent)]

    def scaled(self, k):
        return PowerForm(k * self.amplitude, self.exponent, self.side)

    def to_dict(self):
        return {"kind": "power", "amplitude": self.amplitude, "exponent": self.exponent}


def _form_from_dict(d, lo, hi, z):
    kind = d["kind"]
    if kind == "constant":
        return ConstantForm(float(d["c"]))
    if kind == "poly":
        if not isinstance(d["coeffs"], (list, tuple)):
            raise ValueError("poly coeffs must be a list of numbers")
        return PolynomialForm(tuple(float(c) for c in d["coeffs"]))
    if kind == "power":
        side = "left" if hi <= z + 1e-12 else "right"
        return PowerForm(float(d["amplitude"]), float(d["exponent"]), side)
    raise ValueError(f"unknown weight form kind {kind!r}")


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    form: object


@dataclass(frozen=True)
class Weight:
    """Piecewise-analytic sign-changing coefficient on [0, 1].

    Segments must partition [0, 1] and the node z must be a segment
    boundary.  All integrals are exact (per-segment antiderivatives).
    spans(lo, hi) is the one walk over the segments: every shot, quadrature
    and residual that must not straddle a jump of a iterates its pieces.
    """

    z: float
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("weight needs at least one segment")
        for s in segs:
            if not (math.isfinite(s.lo) and math.isfinite(s.hi)):
                raise ValueError("segment ends must be finite")
            if not s.lo < s.hi:
                raise ValueError("segment intervals must have lo < hi")
        if abs(segs[0].lo) > 1e-12 or abs(segs[-1].hi - 1.0) > 1e-12:
            raise ValueError("segments must cover [0, 1]")
        for a, b in zip(segs, segs[1:]):
            if abs(a.hi - b.lo) > 1e-12:
                raise ValueError("segments must be contiguous")
        if not any(abs(s.hi - self.z) <= 1e-12 for s in segs[:-1]):
            raise ValueError("node z must be a segment boundary")
        if not 0.0 < self.z < 1.0:
            raise ValueError("node z must lie in (0, 1)")
        for s in segs:
            if isinstance(s.form, PowerForm):
                end = s.hi if s.form.side == "left" else s.lo
                if abs(end - self.z) > 1e-12:
                    raise ValueError("a power segment must end (left) or start (right) at the node")

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _his(self):
        return np.array([s.hi for s in self.segments])

    @property
    def breakpoints(self):
        """Interior segment boundaries, including the node."""
        return tuple(s.hi for s in self.segments[:-1])

    def spans(self, lo, hi):
        """(a, b, form) for each segment met on [lo, hi], clipped, in increasing x.

        Pieces no wider than 1e-15 are dropped, so a walk that starts or
        ends on a segment boundary never integrates an empty piece.  As in
        eval, the first and last segments reach past 0 and 1, so a mesh
        that overruns an end by roundoff keeps its end points.
        """
        out = []
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            a = lo if i == 0 else max(seg.lo, lo)
            b = hi if i == last else min(seg.hi, hi)
            if b > a + 1e-15:
                out.append((a, b, seg.form))
        return out

    def eval(self, x):
        xs = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self._his, xs, side="right"), 0, len(self.segments) - 1)
        out = np.empty_like(xs, dtype=float)
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = seg.form.value(xs[m], self.z)
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def integral(self, x0, x1):
        """Exact integral of a over [x0, x1], 0 <= x0 <= x1 <= 1."""
        if x1 < x0:
            raise ValueError("need x0 <= x1")
        total = 0.0
        for lo, hi, form in self.spans(x0, x1):
            total += float(form.anti(hi, self.z) - form.anti(lo, self.z))
        return total

    @cached_property
    def mean(self):
        return self.integral(0.0, 1.0)

    @cached_property
    def abs_integral(self):
        """Exact L1 norm of a on [0, 1]."""
        total = 0.0
        for seg in self.segments:
            for lo, hi in self._sign_constant_pieces(seg):
                total += abs(float(seg.form.anti(hi, self.z) - seg.form.anti(lo, self.z)))
        return total

    def _sign_constant_pieces(self, seg):
        if isinstance(seg.form, PolynomialForm):
            coeffs = seg.form.coeffs
            roots = npoly.polyroots(coeffs) if len(coeffs) > 1 else []
            cuts = sorted(
                float(r.real)
                for r in np.atleast_1d(roots)
                if abs(r.imag) < 1e-12 and seg.lo + 1e-12 < r.real < seg.hi - 1e-12
            )
            pts = [seg.lo] + cuts + [seg.hi]
            return list(zip(pts, pts[1:]))
        return [(seg.lo, seg.hi)]

    # -- structure checks ----------------------------------------------------

    def _segment_sign(self, seg):
        xs = np.linspace(seg.lo, seg.hi, 129)[1:-1]
        vals = seg.form.value(xs, self.z)
        if np.all(vals > 1e-14):
            return 1
        if np.all(vals < -1e-14):
            return -1
        return 0

    @cached_property
    def has_sign_split(self):
        """True when a > 0 a.e. left of the node, a < 0 right of it, mean < 0."""
        if self.mean >= 0.0:
            return False
        for seg in self.segments:
            if seg.hi <= self.z + 1e-12:
                if self._segment_sign(seg) != 1:
                    return False
            elif seg.lo >= self.z - 1e-12:
                if self._segment_sign(seg) != -1:
                    return False
            else:
                return False
        return True

    def node_segment(self, side):
        """The segment that ends (side "left") or starts ("right") at the node."""
        if side == "left":
            return next(s for s in self.segments if abs(s.hi - self.z) <= 1e-12)
        return next(s for s in self.segments if abs(s.lo - self.z) <= 1e-12)

    def node_order(self, side):
        """Local vanishing order and leading coefficient of |a| at the node.

        Returns (order, coeff) with a(x) ~ coeff * |x - z|^order near z on the
        requested side; coeff keeps the sign of a there.  This is the first
        of the node segment's node_terms whose coefficient is not roundoff
        (above 1e-13 times the largest); (inf, 0) when a vanishes there.
        """
        terms = self.node_segment(side).form.node_terms(side, self.z)
        scale = max(abs(c) for c, _ in terms) or 1.0
        for c, e in terms:
            if abs(c) > 1e-13 * scale:
                return float(e), float(c)
        return math.inf, 0.0

    def sup_positive_part(self):
        best = 0.0
        for seg in self.segments:
            xs = np.linspace(seg.lo, seg.hi, 65)
            best = max(best, float(np.max(seg.form.value(xs, self.z))))
        return best

    def scaled(self, c):
        """Weight c * a for c > 0."""
        if c <= 0:
            raise ValueError("scale must be positive")
        return Weight(self.z, tuple(Segment(s.lo, s.hi, s.form.scaled(c)) for s in self.segments))

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "z": self.z,
            "segments": [
                {"interval": [s.lo, s.hi], "form": s.form.to_dict()} for s in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, d):
        z = float(d["z"])
        segs = []
        for sd in d["segments"]:
            lo, hi = (float(v) for v in sd["interval"])
            segs.append(Segment(lo, hi, _form_from_dict(sd["form"], lo, hi, z)))
        return cls(z, tuple(segs))


def two_constant_weight(pos, neg, z):
    """a = pos on [0, z), a = -neg on (z, 1]; pos, neg > 0."""
    return Weight(
        z,
        (
            Segment(0.0, z, ConstantForm(float(pos))),
            Segment(z, 1.0, ConstantForm(-float(neg))),
        ),
    )


def power_weight(amp_left, exp_left, amp_right, exp_right, z):
    """Power-law weight vanishing (or blowing up) at the node from both sides."""
    return Weight(
        z,
        (
            Segment(0.0, z, PowerForm(float(amp_left), float(exp_left), "left")),
            Segment(z, 1.0, PowerForm(float(amp_right), float(exp_right), "right")),
        ),
    )


class TableWeight:
    """Sampled coefficient for curvature_residual only.

    Evaluation interpolates linearly between the samples.  The table is a
    single piece: spans returns the table itself as that piece's form.
    """

    def __init__(self, xs, values, z=0.5):
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.z = float(z)

    def eval(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)

    def value(self, x, z):
        return self.eval(x)

    def spans(self, lo, hi):
        return [(lo, hi, self)]


# ---------------------------------------------------------------------------
# nonlinearity

_GAUSS4_NODES = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GAUSS4_WEIGHTS = (0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538)


@dataclass(frozen=True)
class Nonlinearity:
    """Bump nonlinearity: power p growth at zero, power q decay at infinity.

    Every kind is one three-piece law for u >= 0: f(u) = c u^p below a, a
    middle piece on [a, b], and h u^(-q) above b.  kind "prototype":
    a = b = M, c = 1 and no middle piece (f is continuous at M, kinked).
    kind "smoothed": a = M - delta, b = M + delta, c = 1, and a cubic
    Hermite blend in the middle, so f is C1 across the peak.  kind "table":
    a and b are the first and last u nodes, c = f_0 / u_0^p, and the middle
    interpolates the nodes linearly.  The potential F is the exact integral
    of f from 0.  For u < 0 the odd extension of f is used and F is
    extended evenly.
    """

    kind: str = "prototype"
    p: float = 1.0
    q: float = 0.5
    M: float = 1.0
    delta: float | None = None
    u_nodes: tuple | None = None
    f_nodes: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("prototype", "smoothed", "table"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.p, self.q, self.M, self.delta or 0.0)):
            raise ValueError("p, q, M and delta must be finite")
        if self.p <= 0 or not (0 < self.q < 1) or self.M <= 0:
            raise ValueError("need p > 0, q in (0, 1), M > 0")
        if self.kind == "smoothed" and self.delta is None:
            object.__setattr__(self, "delta", self.M / 10.0)
        if self.kind == "smoothed" and not (0 < self.delta < self.M):
            raise ValueError("smoothing width must lie in (0, M)")
        if self.kind == "table":
            if self.u_nodes is None or self.f_nodes is None:
                raise ValueError("table kind needs u_nodes and f_nodes")
            u = np.asarray(self.u_nodes, float)
            f = np.asarray(self.f_nodes, float)
            if u.ndim != 1 or u.shape != f.shape or len(u) < 2:
                raise ValueError("table nodes must be two equal-length vectors")
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(f))):
                raise ValueError("table nodes must be finite")
            if np.any(np.diff(u) <= 0) or np.any(u <= 0) or np.any(f <= 0):
                raise ValueError("table nodes must be positive and increasing in u")

    # -- derived scales ------------------------------------------------------

    @cached_property
    def h(self):
        """Decay scale: f(u) ~ h u^(-q) at infinity."""
        if self.kind == "table":
            return float(self.f_nodes[-1] * self.u_nodes[-1] ** self.q)
        return self.M ** (self.p + self.q)

    @cached_property
    def _law(self):
        """(a, b, c, middle f, middle F, peak candidates) of the three-piece law.

        The middle F integrates the middle f from a; both are None when the
        law has no middle piece.  The peak candidates are points that
        include a maximizer of f.
        """
        if self.kind == "prototype":
            return self.M, self.M, 1.0, None, None, (self.M,)
        if self.kind == "table":
            un = np.asarray(self.u_nodes, float)
            fn = np.asarray(self.f_nodes, float)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(un))])
            # slope per cell, padded so the last node is a cell of its own
            slope = np.append(np.diff(fn) / np.diff(un), 0.0)

            def mid_F(u):
                # exact integral of the linear interpolant: node sum plus partial cell
                j = np.searchsorted(un, u, side="right") - 1
                s = u - un[j]
                return cum[j] + s * (fn[j] + 0.5 * s * slope[j])

            return (
                un[0],
                un[-1],
                fn[0] / un[0] ** self.p,
                lambda u: np.interp(u, un, fn),
                mid_F,
                (*self.u_nodes, self.M),
            )
        # cubic Hermite blend in s = u - a, matching value and slope at a and b
        a = self.M - self.delta
        b = self.M + self.delta
        w = b - a
        fa = a ** self.p
        fb = self.h * b ** (-self.q)
        da = self.p * a ** (self.p - 1.0)
        db = -self.q * self.h * b ** (-self.q - 1.0)
        c2 = (3.0 * (fb - fa) / w - 2.0 * da - db) / w
        c3 = (da + db - 2.0 * (fb - fa) / w) / w ** 2

        def mid_f(u):
            s = u - a
            return fa + s * (da + s * (c2 + s * c3))

        def mid_F(u):
            s = u - a
            return s * (fa + s * (da / 2 + s * (c2 / 3 + s * c3 / 4)))

        # the blend peaks at a root of its derivative inside (a, b)
        roots = np.roots([3.0 * c3, 2.0 * c2, da])
        peaks = [a + r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < w]
        return a, b, 1.0, mid_f, mid_F, (a, b, *peaks)

    @cached_property
    def sup_norm(self):
        *_, peaks = self._law
        return float(np.max(self._f_pos(np.array(peaks))))

    @property
    def d2_zero(self):
        """f''(0), available for the p = 1 families (identically zero there)."""
        if self.kind in ("prototype", "smoothed") and self.p == 1.0:
            return 0.0
        return None

    @property
    def d3_zero(self):
        if self.kind in ("prototype", "smoothed") and self.p == 1.0:
            return 0.0
        return None

    # -- evaluation ----------------------------------------------------------

    def _f_pos(self, u):
        a, b, c, mid_f, _, _ = self._law
        u = np.asarray(u)
        # the head on the whole array, capped at b so that the part the tail
        # overwrites cannot overflow; the base stays an ndarray, because a
        # numpy scalar's ** calls libm pow where the array power squares exactly
        out = np.asarray(c * np.asarray(np.minimum(u, b)) ** self.p)
        m = u > b
        out[m] = self.h * u[m] ** (-self.q)
        if mid_f is not None:
            m = (a <= u) & (u <= b)
            out[m] = mid_f(u[m])
        return out

    def __call__(self, u):
        """f(u), extended to u < 0 as an odd function."""
        arr = np.asarray(u, dtype=float)
        val = np.sign(arr) * self._f_pos(np.abs(arr))
        return float(val) if np.isscalar(u) or val.ndim == 0 else val

    def _F_pos(self, u):
        a, b, c, _, mid_F, _ = self._law
        p1 = self.p + 1.0
        q1 = 1.0 - self.q
        u = np.asarray(u)
        out = np.asarray(c * np.asarray(np.minimum(u, b)) ** p1 / p1)
        Fa = c * a ** p1 / p1
        Fb = Fa if mid_F is None else Fa + mid_F(b)
        m = u > b
        out[m] = Fb + self.h * (u[m] ** q1 - b ** q1) / q1
        if mid_F is not None:
            m = (a <= u) & (u <= b)
            out[m] = Fa + mid_F(u[m])
        return out

    def potential(self, u):
        """F(u) = integral of f from 0 to u, extended evenly to u < 0."""
        arr = np.abs(np.asarray(u, dtype=float))
        val = self._F_pos(arr)
        return float(val) if np.isscalar(u) or val.ndim == 0 else val

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "p": self.p, "q": self.q, "M": self.M}
        if self.kind == "smoothed":
            d["delta"] = self.delta
        if self.kind == "table":
            d["u"] = list(self.u_nodes)
            d["f"] = list(self.f_nodes)
        return d

    @classmethod
    def from_dict(cls, d):
        kind = d.get("kind", "prototype")
        kw = dict(
            kind=kind,
            p=float(d.get("p", 1.0)),
            q=float(d.get("q", 0.5)),
            M=float(d.get("M", 1.0)),
        )
        if kind == "smoothed" and "delta" in d:
            kw["delta"] = float(d["delta"])
        if kind == "table":
            kw["u_nodes"] = tuple(float(v) for v in d["u"])
            kw["f_nodes"] = tuple(float(v) for v in d["f"])
        return cls(**kw)


# ---------------------------------------------------------------------------
# problem instance and residuals

@dataclass(frozen=True)
class ProblemInstance:
    """Parameter, weight and nonlinearity.

    lam < 0 is representable (the residual evaluator accepts it) but every
    solver in the package refuses it.
    """

    lam: float
    weight: Weight
    f: Nonlinearity

    def at(self, lam):
        return ProblemInstance(float(lam), self.weight, self.f)

    def to_dict(self):
        return {"lambda": self.lam, "weight": self.weight.to_dict(), "f": self.f.to_dict()}

    @classmethod
    def from_dict(cls, d, lam=None):
        if lam is None:
            lam = float(d.get("lambda", 0.0))
        return cls(float(lam), Weight.from_dict(d["weight"]), Nonlinearity.from_dict(d["f"]))


@dataclass(frozen=True)
class ProblemFamily:
    """Weight plus nonlinearity, with the parameter left free."""

    weight: Weight
    f: Nonlinearity

    def at(self, lam):
        return ProblemInstance(float(lam), self.weight, self.f)


def curvature_residual(pb, xs, us, dus=None):
    """L1 norm over the mesh span of u'' + lam a f(u) (1 + u'^2)^(3/2).

    Second derivatives come from centered differences on the supplied mesh
    (of dus when given, of us otherwise), so the value is a diagnostic that
    does not reuse the ODE right-hand side.  The mesh (increasing xs) is cut
    at the pieces of pb.weight.spans, and a is evaluated with each piece's
    own form: stencils never straddle a weight breakpoint, because u''
    genuinely jumps where a does and a difference across the jump would
    report discretization noise as defect.  Mesh points on a breakpoint
    belong to both pieces; a piece with fewer than 4 points is skipped.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if len(xs) < 8:
        raise ValueError("mesh too coarse for a residual estimate (need >= 8 points)")
    if dus is None:
        dus = np.gradient(us, xs, edge_order=2)
    else:
        dus = np.asarray(dus, dtype=float)

    total = 0.0
    for lo, hi, form in pb.weight.spans(xs[0], xs[-1]):
        m = (xs >= lo) & (xs <= hi)
        if np.count_nonzero(m) < 4:
            continue
        xp, up, dp = xs[m], us[m], dus[m]
        d2 = np.gradient(dp, xp, edge_order=2)
        g = (1.0 + dp ** 2) ** 1.5
        a_vals = np.asarray(form.value(xp, pb.weight.z), dtype=float)
        r = d2 + pb.lam * a_vals * pb.f(up) * g
        total += float(np.trapezoid(np.abs(r), xp))
    return total


def neumann_balance(pb, xs, us):
    """Integral of a(x) f(u(x)) over [0, 1] (zero for any Neumann solution).

    u is interpolated linearly between mesh points; each cell is split at
    the weight's breakpoints and integrated with 4-point Gauss quadrature,
    so jumps in a cost no accuracy.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    pts = np.unique(np.concatenate([xs, np.asarray(pb.weight.breakpoints, dtype=float)]))
    pts = pts[(pts >= xs[0] - 1e-15) & (pts <= xs[-1] + 1e-15)]
    lo, hi = pts[:-1], pts[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = 0.0
    for node, wgt in zip(_GAUSS4_NODES, _GAUSS4_WEIGHTS):
        xg = mid + node * half
        total += wgt * np.sum(half * pb.weight.eval(xg) * pb.f(np.interp(xg, xs, us)))
    return float(total)
