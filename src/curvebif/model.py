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
# segment forms

@dataclass(frozen=True)
class ConstantForm:
    """a(x) = c on the segment."""

    c: float

    kind = "constant"

    def value(self, x, z):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def anti(self, x, z):
        return self.c * np.asarray(x, dtype=float)

    def to_dict(self):
        return {"kind": "constant", "c": self.c}


@dataclass(frozen=True)
class PolynomialForm:
    """a(x) = sum_k coeffs[k] * x^k on the segment."""

    coeffs: tuple

    kind = "poly"

    def value(self, x, z):
        return npoly.polyval(np.asarray(x, dtype=float), self.coeffs)

    def anti(self, x, z):
        return npoly.polyval(np.asarray(x, dtype=float), npoly.polyint(self.coeffs))

    def to_dict(self):
        return {"kind": "poly", "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class PowerForm:
    """Power-law profile anchored at the node z.

    On the left of the node the value is amplitude * (z - x)^exponent > 0,
    on the right it is -amplitude * (x - z)^exponent < 0.  The amplitude is
    always stored positive; the side fixes the sign.
    """

    amplitude: float
    exponent: float
    side: str  # "left" | "right"

    kind = "power"

    def value(self, x, z):
        x = np.asarray(x, dtype=float)
        if self.side == "left":
            d = np.maximum(z - x, 0.0)
            return self.amplitude * d ** self.exponent
        d = np.maximum(x - z, 0.0)
        return -self.amplitude * d ** self.exponent

    def anti(self, x, z):
        x = np.asarray(x, dtype=float)
        e1 = self.exponent + 1.0
        if self.side == "left":
            d = np.maximum(z - x, 0.0)
            return -self.amplitude * d ** e1 / e1
        d = np.maximum(x - z, 0.0)
        return -self.amplitude * d ** e1 / e1

    def to_dict(self):
        return {"kind": "power", "amplitude": self.amplitude, "exponent": self.exponent}


def _form_from_dict(d, lo, hi, z):
    kind = d["kind"]
    if kind == "constant":
        return ConstantForm(float(d["c"]))
    if kind == "poly":
        return PolynomialForm(tuple(float(c) for c in d["coeffs"]))
    if kind == "power":
        side = "left" if hi <= z + 1e-12 else "right"
        return PowerForm(float(d["amplitude"]), float(d["exponent"]), side)
    raise ValueError(f"unknown weight form kind {kind!r}")


def _form_numbers(form):
    if isinstance(form, ConstantForm):
        return (form.c,)
    if isinstance(form, PolynomialForm):
        return form.coeffs
    return (form.amplitude, form.exponent)


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
    """

    z: float
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("weight needs at least one segment")
        for s in segs:
            if not all(math.isfinite(v) for v in (s.lo, s.hi, *_form_numbers(s.form))):
                raise ValueError("segment ends and form parameters must be finite")
            if not s.lo < s.hi:
                raise ValueError("segment intervals must have lo < hi")
        if abs(segs[0].lo) > 1e-12 or abs(segs[-1].hi - 1.0) > 1e-12:
            raise ValueError("segments must cover [0, 1]")
        for a, b in zip(segs, segs[1:]):
            if abs(a.hi - b.lo) > 1e-12:
                raise ValueError("segments must be contiguous")
        if not any(abs(s.hi - self.z) <= 1e-12 for s in segs[:-1]) and not (
            abs(segs[-1].hi - self.z) <= 1e-12
        ):
            raise ValueError("node z must be a segment boundary")
        if not 0.0 < self.z < 1.0:
            raise ValueError("node z must lie in (0, 1)")
        for s in segs:
            if isinstance(s.form, PowerForm):
                if s.form.exponent <= -1.0:
                    raise ValueError("power exponent must exceed -1")
                if s.form.amplitude <= 0.0:
                    raise ValueError("power amplitude must be positive")
                if s.form.side == "left" and abs(s.hi - self.z) > 1e-12:
                    raise ValueError("left power segment must end at the node")
                if s.form.side == "right" and abs(s.lo - self.z) > 1e-12:
                    raise ValueError("right power segment must start at the node")

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _his(self):
        return np.array([s.hi for s in self.segments])

    @property
    def breakpoints(self):
        """Interior segment boundaries, including the node."""
        return tuple(s.hi for s in self.segments[:-1])

    def segment_at(self, x):
        """Segment whose interval contains x ([lo, hi) convention)."""
        i = int(np.searchsorted(self._his, x, side="right"))
        return self.segments[min(max(i, 0), len(self.segments) - 1)]

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
        for seg in self.segments:
            lo = max(seg.lo, x0)
            hi = min(seg.hi, x1)
            if hi > lo:
                total += float(seg.form.anti(hi, self.z) - seg.form.anti(lo, self.z))
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

    @property
    def is_admissible(self):
        """Negative mean with a genuine positive part."""
        return self.mean < 0.0 and any(self._segment_sign(s) >= 0 and
                                       np.max(s.form.value(np.linspace(s.lo, s.hi, 65), self.z)) > 0
                                       for s in self.segments)

    def node_order(self, side):
        """Local vanishing order and leading coefficient of |a| at the node.

        Returns (order, coeff) with a(x) ~ coeff * |x - z|^order near z on the
        requested side; coeff keeps the sign of a there.
        """
        if side == "left":
            seg = next(s for s in self.segments if abs(s.hi - self.z) <= 1e-12)
        else:
            seg = next(s for s in self.segments if abs(s.lo - self.z) <= 1e-12)
        form = seg.form
        if isinstance(form, ConstantForm):
            if form.c == 0.0:
                return math.inf, 0.0
            return 0.0, form.c
        if isinstance(form, PowerForm):
            amp = form.amplitude if side == "left" else -form.amplitude
            return form.exponent, amp
        # polynomial: expand in powers of the distance to the node
        sgn = -1.0 if side == "left" else 1.0
        shifted = _poly_compose_affine(form.coeffs, self.z, sgn)
        scale = max(abs(c) for c in shifted) or 1.0
        for k, c in enumerate(shifted):
            if abs(c) > 1e-13 * scale:
                return float(k), float(c)
        return math.inf, 0.0

    def zero_mean_point(self):
        """Unique x in (z, 1) where the running integral of a vanishes."""
        if not self.has_sign_split:
            raise ValueError("defined for sign-split weights only")
        from scipy.optimize import brentq

        f = lambda x: self.integral(0.0, x)
        return float(brentq(f, self.z, 1.0, xtol=1e-14))

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
        segs = []
        for s in self.segments:
            f = s.form
            if isinstance(f, ConstantForm):
                nf = ConstantForm(c * f.c)
            elif isinstance(f, PolynomialForm):
                nf = PolynomialForm(tuple(c * k for k in f.coeffs))
            else:
                nf = PowerForm(c * f.amplitude, f.exponent, f.side)
            segs.append(Segment(s.lo, s.hi, nf))
        return Weight(self.z, tuple(segs))

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


def _poly_compose_affine(coeffs, shift, sgn):
    """Coefficients of p(shift + sgn*d) in powers of d."""
    out = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        # (shift + sgn d)^k expanded by binomial
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * shift ** (k - j) * sgn ** j
    return out.tolist()


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
    """Sampled coefficient for residual diagnostics only.

    Evaluation interpolates linearly between the samples; integrals use the
    trapezoid rule.  Not usable for criterion integrals, which need exact
    antiderivatives.
    """

    def __init__(self, xs, values, z=0.5):
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.z = float(z)
        self.breakpoints = ()

    def eval(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)

    def integral(self, x0, x1):
        grid = np.linspace(x0, x1, 2049)
        return float(np.trapezoid(self.eval(grid), grid))

    @property
    def abs_integral(self):
        grid = np.linspace(0.0, 1.0, 4097)
        return float(np.trapezoid(np.abs(self.eval(grid)), grid))


# ---------------------------------------------------------------------------
# nonlinearity

_GAUSS4_NODES = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GAUSS4_WEIGHTS = (0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538)


@dataclass(frozen=True)
class Nonlinearity:
    """Bump nonlinearity: power p growth at zero, power q decay at infinity.

    kind "prototype":  f(u) = u^p for u <= M, M^(p+q) u^(-q) beyond (continuous
    at M, kinked).  kind "smoothed": same tails, cubic Hermite blend on
    [M - delta, M + delta] so f is C1 across the peak.  kind "table": sampled
    values with power tails glued on.  For u < 0 the odd extension is used;
    the potential F is extended evenly.
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
    def _blend(self):
        """(a, b, cubic coefficients in (u - a)) for the smoothed peak."""
        a = self.M - self.delta
        b = self.M + self.delta
        w = b - a
        fa = a ** self.p
        fb = self.h * b ** (-self.q)
        da = self.p * a ** (self.p - 1.0)
        db = -self.q * self.h * b ** (-self.q - 1.0)
        c0 = fa
        c1 = da
        c2 = (3.0 * (fb - fa) / w - 2.0 * da - db) / w
        c3 = (da + db - 2.0 * (fb - fa) / w) / w ** 2
        return a, b, (c0, c1, c2, c3)

    @cached_property
    def sup_norm(self):
        if self.kind == "prototype":
            return self.M ** self.p
        if self.kind == "table":
            top = float(np.max(self.f_nodes))
            return max(top, self._f_pos(np.array([self.M]))[0])
        a, b, (c0, c1, c2, c3) = self._blend
        # peak of the cubic blend: root of the derivative inside (a, b)
        roots = np.roots([3.0 * c3, 2.0 * c2, c1])
        cand = [a, b]
        for r in roots:
            if abs(r.imag) < 1e-12 and 0 < r.real < b - a:
                cand.append(a + r.real)
        return float(max(self._f_pos(np.array([c]))[0] for c in cand))

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
        out = np.zeros_like(u)
        if self.kind == "prototype":
            m = u <= self.M
            out[m] = u[m] ** self.p
            out[~m] = self.h * u[~m] ** (-self.q)
            return out
        if self.kind == "smoothed":
            a, b, (c0, c1, c2, c3) = self._blend
            m0 = u < a
            m2 = u > b
            m1 = ~(m0 | m2)
            out[m0] = u[m0] ** self.p
            s = u[m1] - a
            out[m1] = c0 + s * (c1 + s * (c2 + s * c3))
            out[m2] = self.h * u[m2] ** (-self.q)
            return out
        un = np.asarray(self.u_nodes, float)
        fn = np.asarray(self.f_nodes, float)
        lo, hi = un[0], un[-1]
        m0 = u < lo
        m2 = u > hi
        m1 = ~(m0 | m2)
        out[m0] = (fn[0] / lo ** self.p) * u[m0] ** self.p
        out[m1] = np.interp(u[m1], un, fn)
        out[m2] = self.h * u[m2] ** (-self.q)
        return out

    def __call__(self, u):
        """f(u), extended to u < 0 as an odd function."""
        arr = np.asarray(u, dtype=float)
        val = np.sign(arr) * self._f_pos(np.abs(arr))
        return float(val) if np.isscalar(u) or val.ndim == 0 else val

    def _F_pos(self, u):
        out = np.zeros_like(u)
        p1 = self.p + 1.0
        q1 = 1.0 - self.q
        if self.kind == "prototype":
            FM = self.M ** p1 / p1
            m = u <= self.M
            out[m] = u[m] ** p1 / p1
            out[~m] = FM + self.h * (u[~m] ** q1 - self.M ** q1) / q1
            return out
        if self.kind == "smoothed":
            a, b, (c0, c1, c2, c3) = self._blend
            Fa = a ** p1 / p1
            s_full = b - a
            Fb = Fa + s_full * (c0 + s_full * (c1 / 2 + s_full * (c2 / 3 + s_full * c3 / 4)))
            m0 = u < a
            m2 = u > b
            m1 = ~(m0 | m2)
            out[m0] = u[m0] ** p1 / p1
            s = u[m1] - a
            out[m1] = Fa + s * (c0 + s * (c1 / 2 + s * (c2 / 3 + s * c3 / 4)))
            out[m2] = Fb + self.h * (u[m2] ** q1 - b ** q1) / q1
            return out
        return self._table_potential(u)

    def _table_potential(self, u):
        un = np.asarray(self.u_nodes, float)
        fn = np.asarray(self.f_nodes, float)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(un))])
        F0 = (fn[0] / un[0] ** self.p) * un[0] ** (self.p + 1.0) / (self.p + 1.0)
        out = np.zeros_like(u)
        lo, hi = un[0], un[-1]
        m0 = u < lo
        m2 = u > hi
        m1 = ~(m0 | m2)
        out[m0] = (fn[0] / lo ** self.p) * u[m0] ** (self.p + 1.0) / (self.p + 1.0)
        out[m1] = F0 + np.interp(u[m1], un, cum)
        q1 = 1.0 - self.q
        out[m2] = F0 + cum[-1] + self.h * (u[m2] ** q1 - hi ** q1) / q1
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
    does not reuse the ODE right-hand side.  Stencils never straddle a
    weight breakpoint: u'' genuinely jumps where a does, and a difference
    across the jump would report discretization noise as defect.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if len(xs) < 8:
        raise ValueError("mesh too coarse for a residual estimate (need >= 8 points)")
    if dus is None:
        dus = np.gradient(us, xs, edge_order=2)
    else:
        dus = np.asarray(dus, dtype=float)

    breaks = [b for b in getattr(pb.weight, "breakpoints", ()) if xs[0] < b < xs[-1]]
    cuts = [xs[0] - 1.0] + breaks + [xs[-1] + 1.0]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = (xs >= lo) & (xs <= hi)
        if np.count_nonzero(m) < 4:
            continue
        xp, up, dp = xs[m], us[m], dus[m]
        d2 = np.gradient(dp, xp, edge_order=2)
        g = (1.0 + dp ** 2) ** 1.5
        # evaluate a with the form owning this piece, not the boundary lookup
        if hasattr(pb.weight, "segment_at"):
            form = pb.weight.segment_at(0.5 * (xp[0] + xp[-1])).form
            a_vals = np.asarray(form.value(xp, pb.weight.z), dtype=float)
        else:
            a_vals = np.asarray(pb.weight.eval(xp), dtype=float)
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
