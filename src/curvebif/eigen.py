"""Principal eigenvalues of the weighted linear problem, by shooting.

principal_neumann finds the unique positive lam0 for which

    -phi'' = lam a(x) phi,   phi'(0) = phi'(1) = 0

admits a positive eigenfunction; principal_dirichlet does the same for
Dirichlet conditions on a subinterval where a is positive.  Both shoot the
linear ODE from one endpoint and bisect on the parameter, restricted to the
window where the solution stays positive.  bif_direction evaluates the
closed-form quadratures that give the slope and curvature of the branch of
nontrivial solutions leaving the trivial line at lam0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp

__all__ = ["EigenPair", "principal_neumann", "principal_dirichlet", "bif_direction", "rayleigh_identity"]

_RTOL = 1e-12
_ATOL = 1e-14


@dataclass
class EigenPair:
    """Principal eigenvalue with its normalized eigenfunction samples."""

    eigenvalue: float
    xs: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    boundary: str  # "neumann" | "dirichlet"
    interval: tuple
    residual: float
    mesh_size: int
    segment_slices: tuple
    a_vals: np.ndarray  # weight sampled segment-correctly at xs

    def quad(self, values):
        """Simpson quadrature of nodal values over the stored grid."""
        total = 0.0
        for sl in self.segment_slices:
            total += simpson(values[sl], x=self.xs[sl])
        return float(total)


def _segment_spans(weight, r, s):
    spans = []
    for seg in weight.segments:
        lo, hi = max(seg.lo, r), min(seg.hi, s)
        if hi > lo + 1e-15:
            spans.append((lo, hi, seg.form))
    return spans


def _shoot_linear(weight, lam, r, s, y0, max_step_frac=1.0 / 16.0):
    """Integrate phi'' = -lam a phi across [r, s] with breakpoint hygiene.

    Returns (phi(s), dphi(s), crossed_zero, solutions) where solutions is a
    list of (lo, hi, OdeSolution) for dense evaluation.
    """
    z = weight.z
    spans = _segment_spans(weight, r, s)
    y = np.array(y0, dtype=float)
    crossed = False
    sols = []
    max_step = (s - r) * max_step_frac

    def zero(x, yv):
        return yv[0]

    zero.terminal = True
    zero.direction = -1.0  # downward crossings; ignores the Dirichlet start at zero

    for lo, hi, form in spans:
        def rhs(x, yv, form=form):
            return [yv[1], -lam * float(form.value(x, z)) * yv[0]]

        out = solve_ivp(
            rhs,
            (lo, hi),
            y,
            method="DOP853",
            rtol=_RTOL,
            atol=_ATOL,
            dense_output=True,
            events=zero,
            max_step=max_step,
        )
        if out.status == -1:
            raise RuntimeError(f"linear shooting failed: {out.message}")
        sols.append((lo, out.t[-1], out.sol, form))
        y = out.y[:, -1]
        if out.status == 1:  # phi crossed zero
            crossed = True
            break
    return float(y[0]), float(y[1]), crossed, sols


def _bracket_and_bisect(classify, lam_seed, lam_max, rel_tol):
    """First sign change of the shooting classifier above zero."""
    lam_hi = lam_seed
    guard = 0
    while classify(lam_hi) == "below":
        lam_hi *= 2.0
        guard += 1
        if lam_hi > lam_max or guard > 200:
            raise ValueError("no eigenvalue bracket found below lam_max")
    lam_lo = lam_hi / 2.0
    while classify(lam_lo) == "above":
        lam_hi = lam_lo
        lam_lo /= 2.0
        guard += 1
        if lam_lo < 1e-14 or guard > 400:
            raise ValueError("no eigenvalue bracket found above zero")
    while (lam_hi - lam_lo) > rel_tol * lam_lo:
        mid = 0.5 * (lam_lo + lam_hi)
        if classify(mid) == "below":
            lam_lo = mid
        else:
            lam_hi = mid
    return 0.5 * (lam_lo + lam_hi)


def _build_pair(weight, lam, r, s, y0, boundary):
    _, _, _, sols = _shoot_linear(weight, lam, r, s, y0)
    xs_parts, slices, vals, a_parts = [], [], [], []
    n_segments = max(1, len(sols))
    pts_per = max(17, 2 * (512 // (2 * n_segments)) + 1)  # about 512 samples
    start = 0
    for lo, hi, sol, form in sols:
        xg = np.linspace(lo, hi, pts_per)
        xs_parts.append(xg)
        vals.append(sol(xg))
        a_parts.append(np.asarray(form.value(xg, weight.z), dtype=float))
        slices.append(slice(start, start + pts_per))
        start += pts_per
    xs = np.concatenate(xs_parts)
    phi = np.concatenate([v[0] for v in vals])
    dphi = np.concatenate([v[1] for v in vals])
    a_vals = np.concatenate(a_parts)
    scale = float(np.max(np.abs(phi)))
    phi /= scale
    dphi /= scale

    # fine per-segment finite-difference residual of the eigen equation
    res = 0.0
    for lo, hi, sol, form in sols:
        xf = np.linspace(lo, hi, 4097)
        yf = sol(xf) / scale
        d2 = np.gradient(yf[1], xf, edge_order=2)
        af = np.asarray(form.value(xf, weight.z), dtype=float)
        res += float(np.trapezoid(np.abs(d2 + lam * af * yf[0]), xf))

    return EigenPair(
        eigenvalue=float(lam),
        xs=xs,
        phi=phi,
        dphi=dphi,
        boundary=boundary,
        interval=(r, s),
        residual=res,
        mesh_size=len(xs),
        segment_slices=tuple(slices),
        a_vals=a_vals,
    )


def principal_neumann(weight, tol=1e-12, max_step_frac=1.0 / 16.0):
    """Smallest lam > 0 with a positive Neumann eigenfunction on (0, 1).

    Shoots from phi(0) = 1, phi'(0) = 0 and bisects on the sign of phi'(1),
    treating loss of positivity as overshoot, to relative width tol < 1.
    The weight must have negative mean and a positive part; uniqueness of
    the positive eigenvalue then holds and bisection from below cannot skip
    it.  max_step_frac bounds the integrator step as a fraction of [0, 1].
    """
    if not (0 < tol < 1):
        raise ValueError("tolerance must lie in (0, 1)")
    if weight.mean >= 0:
        raise ValueError("weight must have negative mean")
    if weight.sup_positive_part() <= 0:
        raise ValueError("weight must be positive somewhere")

    def classify(lam):
        phi_end, dphi_end, crossed, _ = _shoot_linear(
            weight, lam, 0.0, 1.0, (1.0, 0.0), max_step_frac=max_step_frac
        )
        if crossed:
            return "above"
        return "below" if dphi_end > 0.0 else "above"

    lam_seed = math.pi ** 2 / max(weight.sup_positive_part(), 1e-6)
    lam0 = _bracket_and_bisect(classify, lam_seed, 1e6, tol)
    return _build_pair(weight, lam0, 0.0, 1.0, (1.0, 0.0), "neumann")


def principal_dirichlet(weight, interval):
    """Smallest mu > 0 with a positive Dirichlet eigenfunction on the interval."""
    r, s = interval
    if not (0.0 <= r < s <= 1.0):
        raise ValueError("interval must be inside [0, 1]")
    probe = np.linspace(r, s, 257)[1:-1]
    if np.any(weight.eval(probe) <= 0):
        raise ValueError("weight must be positive on the interval")

    def classify(mu):
        phi_end, _, crossed, _ = _shoot_linear(weight, mu, r, s, (0.0, 1.0))
        if crossed:
            return "above"
        return "below" if phi_end > 0.0 else "above"

    mu_seed = (math.pi / (s - r)) ** 2 / max(weight.sup_positive_part(), 1e-6)
    mu1 = _bracket_and_bisect(classify, mu_seed, 1e7, 1e-12)
    return _build_pair(weight, mu1, r, s, (0.0, 1.0), "dirichlet")


def bif_direction(f, pair):
    """Branch slope and curvature at the bifurcation from the trivial line.

    Returns (lambda1, lambda2): the first derivative of lam along the branch
    at height zero, and the second derivative when the first vanishes
    (lambda2 is None otherwise).  Requires the Neumann pair on (0, 1) and a
    nonlinearity with two (three) derivatives at zero.
    """
    if pair.boundary != "neumann" or pair.interval != (0.0, 1.0):
        raise ValueError("bifurcation direction needs the Neumann pair on (0, 1)")
    d2 = f.d2_zero
    d3 = f.d3_zero
    if d2 is None:
        raise ValueError("nonlinearity must be twice differentiable at zero (p = 1 families)")
    phi, dphi = pair.phi, pair.dphi
    i_dphi2 = pair.quad(dphi ** 2)
    i_phi_dphi2 = pair.quad(phi * dphi ** 2)
    lambda1 = -pair.eigenvalue * d2 * i_phi_dphi2 / i_dphi2
    lambda2 = None
    if d2 == 0.0:
        if d3 is None:
            raise ValueError("nonlinearity must be three times differentiable at zero")
        i_phi2_dphi2 = pair.quad(phi ** 2 * dphi ** 2)
        i_dphi4 = pair.quad(dphi ** 4)
        # the eigenvalue factor follows from eliminating the weighted
        # quadratures through lam0 int(a phi^2) = int(phi'^2); traced-branch
        # finite differences confirm it
        lambda2 = -pair.eigenvalue * (d3 * i_phi2_dphi2 + i_dphi4) / i_dphi2
    return lambda1, lambda2


def rayleigh_identity(pair):
    """Both sides of lam0 * int(a phi^2) = int(phi'^2) for consistency checks."""
    lhs = pair.eigenvalue * pair.quad(pair.a_vals * pair.phi ** 2)
    rhs = pair.quad(pair.dphi ** 2)
    return lhs, rhs
