"""Principal eigenvalue of the weighted Neumann problem, by shooting.

principal_eigenvalue finds the unique positive lam0 for which

    -phi'' = lam a(x) phi,   phi'(0) = phi'(1) = 0

admits a positive eigenfunction.  It shoots the linear ODE from phi(0) = 1,
phi'(0) = 0 and reads the signed end value phi'(1), restricted to the
window where the solution stays positive: a shot that crosses zero is an
overshoot whose value is only a sign.  The bracket is bisected while its
upper end is such a crossing and then refined by Brent's method between
its two exact ends.  Each shot is the p = 1 case of _shoot_x, the x-form
march that the semilinear limit oracle shares; the march ends each span
at its bound, so no shot reads a form past its segment.  principal_neumann
adds the sampled eigenfunction (an EigenPair) that bif_direction and
rayleigh_identity read; the branch seed reads the eigenvalue alone.
bif_direction evaluates the closed-form quadratures that give the slope
and curvature of the branch of nontrivial solutions leaving the trivial
line at lam0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.optimize import brentq

__all__ = ["EigenPair", "principal_eigenvalue", "principal_neumann", "bif_direction", "rayleigh_identity"]

_RTOL = 1e-12
_ATOL = 1e-14
_MAX_STEP_FRAC = 1.0 / 16.0  # integrator step cap on [0, 1]; it binds, and the branch seed's bits depend on it
_LAM_MAX = 1e6  # the bracket gives up doubling above this
_CROSSED = -math.inf  # end value of a shot that crossed zero: an overshoot, never a root
_BRENTQ_RTOL = 4.0 * np.finfo(float).eps  # the smallest rtol brentq accepts


@dataclass
class EigenPair:
    """Principal eigenvalue with its normalized eigenfunction samples."""

    eigenvalue: float
    xs: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    residual: float
    segment_slices: tuple
    a_vals: np.ndarray  # weight sampled segment-correctly at xs

    @property
    def mesh_size(self):
        return len(self.xs)

    def quad(self, values):
        """Simpson quadrature of nodal values over the stored grid."""
        total = 0.0
        for sl in self.segment_slices:
            total += simpson(values[sl], x=self.xs[sl])
        return float(total)


def _shoot_x(weight, k, p, v0, rtol, atol, max_step=math.inf, dense=False):
    """Integrate -v'' = k a(x) |v|^p sgn v across [0, 1] from v = v0 > 0, v' = 0.

    Returns (v(1), v'(1), crossed_zero, solutions) where solutions is a
    list of (lo, t_end, OdeSolution, form): one per segment piece, t_end
    being hi or the zero crossing that stopped it.  The OdeSolution is None
    unless dense is set.  A failed integration raises RuntimeError.
    """
    y = np.array((v0, 0.0))
    crossed = False
    sols = []

    def zero(x, yv):
        return yv[0]

    zero.terminal = True
    zero.direction = -1.0  # v starts positive, so the first crossing is downward

    for lo, hi, form in weight.spans(0.0, 1.0):
        def rhs(x, yv, a=form.scalar_and_slope(weight.z)):
            v, dv = yv.tolist()  # for p = 1, |v| sgn v is v bit for bit
            return [dv, -k * a(x)[0] * (abs(v) ** p * math.copysign(1.0, v))]

        out = solve_ivp(
            rhs,
            (lo, hi),
            y,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=dense,
            events=zero,
            max_step=max_step,
        )
        if out.status == -1:
            raise RuntimeError(f"x-form shooting failed: {out.message}")
        sols.append((lo, out.t[-1], out.sol, form))
        y = out.y[:, -1]
        if out.status == 1:  # v crossed zero
            crossed = True
            break
    return float(y[0]), float(y[1]), crossed, sols


def _shoot_linear(weight, lam, dense=False):
    """_shoot_x for phi'' = -lam a phi from phi = 1, phi' = 0 at eigen's tolerances."""
    return _shoot_x(weight, lam, 1.0, 1.0, _RTOL, _ATOL, max_step=_MAX_STEP_FRAC, dense=dense)


class _Crossing(Exception):
    """A shot inside an exact bracket crossed zero; the bracket falls back to bisection."""


def _bracket_and_refine(value, lam_seed, rel_tol):
    """First lam > 0 where the signed shooting value(lam) stops being positive.

    value(lam) is positive below the eigenvalue and not positive above it;
    _CROSSED marks an overshoot whose value is only a sign.  The bracket
    doubles or halves lam from lam_seed, is bisected while its upper end is
    _CROSSED and is then refined by brentq between its two exact ends, to a
    relative width of max(rel_tol, 4 eps).  A crossing met inside the
    exact bracket becomes its upper end and costs one bisection step, so
    every pass that does not return at least halves the bracket.
    """
    v_seed = value(lam_seed)
    guard = 0
    if v_seed > 0:
        hi, v_hi = lam_seed, v_seed
        while v_hi > 0:
            lo, v_lo = hi, v_hi
            hi *= 2.0
            guard += 1
            if hi > _LAM_MAX or guard > 200:
                raise ValueError(f"no eigenvalue bracket found below {_LAM_MAX:g}")
            v_hi = value(hi)
    else:
        lo, v_lo = lam_seed, v_seed
        while not v_lo > 0:
            hi, v_hi = lo, v_lo
            lo /= 2.0
            guard += 1
            if lo < 1e-14 or guard > 400:
                raise ValueError("no eigenvalue bracket found above zero")
            v_lo = value(lo)

    def step(lam):  # shoot at lam inside the bracket and shrink the bracket onto it
        nonlocal lo, v_lo, hi, v_hi
        v = value(lam)
        if v > 0:
            lo, v_lo = lam, v
        else:
            hi, v_hi = lam, v
        return v

    def exact(lam):  # brentq's function: the known ends cost no shot
        if lam in (lo, hi):
            return v_lo if lam == lo else v_hi
        v = step(lam)
        if v == _CROSSED:
            raise _Crossing
        return v

    while hi - lo > rel_tol * lo:
        if v_hi != _CROSSED:
            try:
                return brentq(exact, lo, hi, xtol=np.finfo(float).tiny, rtol=max(rel_tol, _BRENTQ_RTOL))
            except _Crossing:  # the crossing is now the upper end
                pass
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the ends are adjacent floats: rel_tol is below the spacing
            break
        step(mid)
    return 0.5 * (lo + hi)


def _build_pair(weight, lam):
    _, _, _, sols = _shoot_linear(weight, lam, dense=True)
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
        residual=res,
        segment_slices=tuple(slices),
        a_vals=a_vals,
    )


def principal_eigenvalue(weight, tol=1e-12):
    """Smallest lam > 0 with a positive Neumann eigenfunction on (0, 1), without the eigenfunction.

    Shoots from phi(0) = 1, phi'(0) = 0 and finds the root of phi'(1),
    treating loss of positivity as overshoot: bisection while the upper
    end is such an overshoot, then brentq between exact phi'(1) values,
    to relative width max(tol, 4 eps) for tol < 1.  The weight must have
    negative mean and a positive part; uniqueness of the positive
    eigenvalue then holds and the bracket from below cannot skip it.
    """
    if not (0 < tol < 1):
        raise ValueError("tolerance must lie in (0, 1)")
    if weight.mean >= 0:
        raise ValueError("weight must have negative mean")
    if 1 not in weight.signs(0.0, 1.0):
        raise ValueError("weight must be positive somewhere")

    def value(lam):
        _, dphi, crossed, _ = _shoot_linear(weight, lam)
        return _CROSSED if crossed else dphi

    lam_seed = math.pi ** 2 / max(weight.sup_positive_part(), 1e-6)
    return _bracket_and_refine(value, lam_seed, tol)


def principal_neumann(weight, tol=1e-12):
    """The EigenPair at principal_eigenvalue(weight, tol): its sampled eigenfunction and residual."""
    return _build_pair(weight, principal_eigenvalue(weight, tol))


def bif_direction(f, pair):
    """Branch slope and curvature at the bifurcation from the trivial line.

    Returns (lambda1, lambda2), the first and second derivatives of lam
    along the branch at height zero.  Near zero every law is f = c u^p;
    for p = 1 the branch leaves the trivial line at lam0 / c, f has no
    quadratic or cubic term, so lambda1 = 0 and lambda2 comes from the
    curvature operator alone.  Requires a p = 1 nonlinearity.
    """
    if f.p != 1.0:
        raise ValueError("bifurcation direction needs a p = 1 nonlinearity")
    i_dphi2 = pair.quad(pair.dphi ** 2)
    i_dphi4 = pair.quad(pair.dphi ** 4)
    # the eigenvalue factor follows from eliminating the weighted
    # quadratures through lam0 int(a phi^2) = int(phi'^2); traced-branch
    # finite differences confirm it
    return 0.0, -(pair.eigenvalue / f.c) * i_dphi4 / i_dphi2


def rayleigh_identity(pair):
    """Both sides of lam0 * int(a phi^2) = int(phi'^2) for consistency checks."""
    lhs = pair.eigenvalue * pair.quad(pair.a_vals * pair.phi ** 2)
    rhs = pair.quad(pair.dphi ** 2)
    return lhs, rhs
