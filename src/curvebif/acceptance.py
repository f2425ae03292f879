"""Acceptance suite: one check per criterion, shared cached fixtures.

Each criterion pins its tolerances here; run_all prints one PASS/FAIL line
per criterion and returns overall success.  Checks that depend on computed
solutions share them through cached producers so the suite stays within
its runtime budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .asymptotics import build_family, default_ladder, flatness_and_node, grow_decay_rates, small_branch_scaling
from .continuation import solve_lambda_at_height
from .eigen import bif_direction, principal_neumann, rayleigh_identity
from .model import (
    Nonlinearity,
    ProblemFamily,
    ProblemInstance,
    TableWeight,
    curvature_residual,
    power_weight,
    two_constant_weight,
)
from .quadrature import criterion_integral
from .shoot import find_regular
from .singular import Absent, SingularSolution, classify, solve_singular
from .varmin import minimize_multistart

__all__ = ["CriterionResult", "run_all", "CHECKS"]

A_STEP, B_STEP, Z_NODE = 1.0, 2.0, 0.4


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(cid, name, passed, detail, t0):
    return CriterionResult(cid, name, bool(passed), detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# shared fixtures

@lru_cache(maxsize=None)
def jump_weight():
    return two_constant_weight(A_STEP, B_STEP, Z_NODE)


@lru_cache(maxsize=None)
def alpha_weight(alpha):
    return power_weight(1.0, alpha, 2.0, alpha, Z_NODE)


@lru_cache(maxsize=None)
def mild_f():
    # peak scale chosen so [0, 2 lam0] stays inside the smallness window:
    # every positive solution there is a graph and single shooting is
    # well posed (lam ||f|| ||a||_1 = 0.85 < 1 at 2 lam0)
    return Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.05)


@lru_cache(maxsize=None)
def bump_f():
    return Nonlinearity(kind="prototype", p=1.0, q=0.5, M=1.0)


@lru_cache(maxsize=None)
def lam0_jump():
    return principal_neumann(jump_weight()).eigenvalue


@lru_cache(maxsize=None)
def eigen_oracle(A=A_STEP, B=B_STEP, z=Z_NODE):
    """Principal Neumann eigenvalue of the weight A on [0, z), -B on [z, 1].

    The root of the matching equation sqrt(A) tan(sqrt(lam A) z) =
    sqrt(B) tanh(sqrt(lam B) (1 - z)) below the tangent's first pole, found
    by brentq on that closed form: no ODE is shot.  The weight needs a
    negative mean, A z < B (1 - z).
    """

    def g(lam):
        return math.sqrt(A) * math.tan(math.sqrt(lam * A) * z) - math.sqrt(B) * math.tanh(
            math.sqrt(lam * B) * (1 - z)
        )

    pole = (math.pi / 2.0) ** 2 / (A * z * z)
    return float(brentq(g, 1e-9, pole * (1 - 1e-12), xtol=1e-14, rtol=8.9e-16))


@lru_cache(maxsize=None)
def mild_solution_2lam0():
    pb = ProblemInstance(2.0 * lam0_jump(), jump_weight(), mild_f())
    sols = find_regular(pb, s_min=1e-6, s_max=1e3, n_scan=64)
    return pb, sols


@lru_cache(maxsize=None)
def singular_50():
    pb = ProblemInstance(50.0, jump_weight(), bump_f())
    return pb, solve_singular(pb)


@lru_cache(maxsize=None)
def singular_1e3():
    pb = ProblemInstance(1e3, jump_weight(), bump_f())
    return pb, solve_singular(pb)


@lru_cache(maxsize=None)
def rates_family():
    fam = ProblemFamily(jump_weight(), bump_f())
    return fam, build_family(fam, default_ladder())


@lru_cache(maxsize=None)
def small_branch(p):
    fam = ProblemFamily(jump_weight(), Nonlinearity(kind="prototype", p=p, q=0.5, M=1.0))
    ladder = (1e2, 10.0 ** 2.5, 1e3, 10.0 ** 3.5)
    report = small_branch_scaling(fam, ladder)
    return fam, report, report["solutions"]


# ---------------------------------------------------------------------------
# criteria

def check_1():
    t0 = time.perf_counter()
    t_run = time.perf_counter()
    pair = principal_neumann(jump_weight())
    runtime = time.perf_counter() - t_run
    oracle = eigen_oracle()
    rel = abs(pair.eigenvalue - oracle) / oracle
    ok = rel <= 1e-6 and runtime < 1.0
    detail = f"lambda0={pair.eigenvalue:.9g} oracle={oracle:.9g} rel={rel:.2e} runtime={runtime:.2f}s"
    return _result(1, "eigenvalue vs transcendental oracle", ok, detail, t0)


def check_2():
    t0 = time.perf_counter()
    z = Z_NODE
    msgs, ok = [], True

    t = time.perf_counter()
    got = criterion_integral(jump_weight(), "left")
    dt = time.perf_counter() - t
    want = 2.0 * math.sqrt(z / A_STEP)
    rel = abs(got.value - want) / want
    ok &= (not got.infinite) and rel <= 1e-4 and dt < 1.0
    msgs.append(f"const: rel={rel:.1e}")

    for alpha in (0.5, 0.9):
        t = time.perf_counter()
        got = criterion_integral(alpha_weight(alpha), "left")
        dt = time.perf_counter() - t
        want = math.sqrt(alpha + 1.0) * 2.0 / (1.0 - alpha) * z ** ((1.0 - alpha) / 2.0)
        rel = abs(got.value - want) / want
        ok &= (not got.infinite) and rel <= 1e-4 and dt < 1.0
        msgs.append(f"a={alpha}: rel={rel:.1e}")

    for alpha in (1.0, 1.5):
        t = time.perf_counter()
        got = criterion_integral(alpha_weight(alpha), "left")
        dt = time.perf_counter() - t
        ok &= got.infinite and got.exponent is not None and got.exponent >= 1.0 and dt < 1.0
        msgs.append(f"a={alpha}: infinite(e={got.exponent})")
    return _result(2, "criterion integrals: closed forms and certificates", ok, "; ".join(msgs), t0)


def check_3():
    t0 = time.perf_counter()
    lam0 = lam0_jump()
    pb_low = ProblemInstance(0.5 * lam0, jump_weight(), mild_f())
    empty = find_regular(pb_low, s_min=1e-6, s_max=1e3, n_scan=64)
    pb_high, sols = mild_solution_2lam0()
    elapsed = time.perf_counter() - t0
    ok = (
        len(empty) == 0
        and len(sols) >= 1
        and all(s.residual <= 1e-5 for s in sols)
        and elapsed < 30.0
    )
    detail = (
        f"0.5*lam0: {len(empty)} solutions; 2*lam0: {len(sols)} solutions, "
        f"residual={max((s.residual for s in sols), default=0):.1e}, {elapsed:.0f}s"
    )
    return _result(3, "non-existence below lam0, existence above", ok, detail, t0)


def check_4():
    t0 = time.perf_counter()
    w = jump_weight()
    f = mild_f()
    pair = principal_neumann(w)
    lam0 = pair.eigenvalue
    _, lam2 = bif_direction(f, pair)
    fam = ProblemFamily(w, f)
    lam_a = solve_lambda_at_height(fam, 0.01, lam0)
    lam_b = solve_lambda_at_height(fam, 0.02, lam0)
    d1 = 2.0 * (lam_a - lam0) / 0.01 ** 2
    d2 = 2.0 * (lam_b - lam0) / 0.02 ** 2
    fd = 2.0 * d1 - d2  # removes the next even correction term
    sign_ok = math.copysign(1.0, fd) == math.copysign(1.0, lam2)
    rel = abs(fd - lam2) / abs(lam2)
    lhs, rhs = rayleigh_identity(pair)
    ident = abs(lhs - rhs) / abs(rhs)
    ok = sign_ok and rel <= 0.10 and ident <= 1e-5
    detail = f"lam''(0): quad={lam2:.5g} fd={fd:.5g} rel={rel:.2e}; identity rel={ident:.1e}"
    return _result(4, "bifurcation curvature: quadrature vs traced branch", ok, detail, t0)


def check_5():
    t0 = time.perf_counter()
    fam, members = rates_family()
    sl, sr, fits = grow_decay_rates(members, fam.weight.z)
    flat = flatness_and_node(members, fam.weight.z, fam.f.M)
    elapsed = time.perf_counter() - t0
    left_ok = abs(sl - 2.0) <= 0.3 and fits["left"].r2 >= 0.98
    right_ok = abs(sr - (-1.0)) <= 0.15 and fits["right"].r2 >= 0.98
    flat_ok = flat["slope_trend"] <= 0.1
    ok = left_ok and right_ok and flat_ok and elapsed < 120.0
    # the monotone-trend version of the decay bound, which the data does obey
    scaled_right = [m.u_at(fits["right"].probe_x) * m.lam for m in members]
    trend_ok = all(b <= a * 1.05 for a, b in zip(scaled_right, scaled_right[1:]))
    detail = (
        f"left slope={sl:.3f} (r2={fits['left'].r2:.4f}) {'ok' if left_ok else 'FAIL'}; "
        f"right slope={sr:.3f} (r2={fits['right'].r2:.4f}) {'ok' if right_ok else 'FAIL'}"
        f"{'' if right_ok else ' [the decay law is a one-sided bound; at fixed probes the tail decays faster than lam^(-1/p), exponentially for p = 1, so no power fit exists there]'}; "
        f"monotone bound u*lam^(1/p) decreasing: {'ok' if trend_ok else 'FAIL'}; "
        f"flatness trend={flat['slope_trend']:.3f} {'ok' if flat_ok else 'FAIL'}; {elapsed:.0f}s"
    )
    return _result(5, "large-lambda growth and decay rates", ok, detail, t0)


def check_6():
    t0 = time.perf_counter()
    msgs, ok = [], True
    for p in (2.0, 3.0):
        _, report, _ = small_branch(p)
        want = report["expected_slope"]
        rel_slope = abs(report["slope"] - want) / abs(want)
        ratio = report["limit_ratio_last"]
        this = rel_slope <= 0.15 and abs(ratio - 1.0) <= 0.20
        ok &= this
        msgs.append(f"p={p}: slope={report['slope']:.4f} (want {want:.3g}, rel={rel_slope:.1e}), limit ratio={ratio:.4f}")
    return _result(6, "small-branch scaling and semilinear limit", ok, "; ".join(msgs), t0)


def check_7():
    t0 = time.perf_counter()
    pb, sing = singular_50()
    msgs = []
    ok = isinstance(sing, SingularSolution)
    if ok:
        flux_ok = abs(sing.flux_left - 1.0) <= 1e-6 and abs(sing.flux_right - 1.0) <= 1e-6
        res_ok = sing.residual_left <= 1e-5 and sing.residual_right <= 1e-5
        verdict = classify(pb, sing)
        cert_ok = verdict.tag == "JumpCertified" and verdict.witness is not None
        wit_ok = cert_ok and verdict.witness.integral <= verdict.witness.drop
        ok = sing.jump > 0 and flux_ok and res_ok and cert_ok and wit_ok
        msgs.append(
            f"jump={sing.jump:.4g} flux errs=({abs(sing.flux_left-1):.1e},{abs(sing.flux_right-1):.1e}) "
            f"piece residuals=({sing.residual_left:.1e},{sing.residual_right:.1e}) verdict={verdict.tag}"
        )
        if cert_ok:
            w = verdict.witness
            msgs.append(f"witness x1={w.x1:.3g} x2={w.x2:.3g} integral={w.integral:.4g} drop={w.drop:.4g}")
    else:
        msgs.append(f"construction refused: {sing}")

    pb_pow = ProblemInstance(50.0, alpha_weight(1.0), bump_f())
    refusal = solve_singular(pb_pow)
    verdict_pow = classify(pb_pow)
    refuse_ok = isinstance(refusal, Absent) and refusal.reason == "regular-by-criterion"
    refuse_ok = refuse_ok and verdict_pow.tag == "RegularByCriterion"
    msgs.append(f"alpha=1 weight: {getattr(refusal, 'reason', 'constructed!')}, verdict={verdict_pow.tag}")
    return _result(7, "jump construction and certification", ok and refuse_ok, "; ".join(msgs), t0)


def check_8():
    t0 = time.perf_counter()
    pb3, sing = singular_1e3()
    M = bump_f().M
    empties = find_regular(pb3, s_min=2.0 * M, s_max=1e3, n_scan=64)
    sing_ok = isinstance(sing, SingularSolution) and sing.jump > 0 and abs(sing.flux_left - 1) <= 1e-6 and abs(sing.flux_right - 1) <= 1e-6

    pb_mod, sols = mild_solution_2lam0()
    bal_ok, bal_rel = False, math.inf
    if sols:
        s = sols[0]
        F = pb_mod.f.potential
        uz = s.u_at(pb_mod.weight.z)
        lhs = A_STEP * (F(s.us[0]) - F(uz))
        rhs = B_STEP * (F(uz) - F(s.us[-1]))
        bal_rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        bal_ok = bal_rel <= 1e-4
    ok = len(empties) == 0 and sing_ok and bal_ok
    detail = (
        f"lam=1e3: heights>2M regular scan found {len(empties)}; jump construction "
        f"{'ok' if sing_ok else 'FAIL'}; step-weight balance identity rel={bal_rel:.1e}"
    )
    return _result(8, "large-lambda dichotomy and balance identity", ok, detail, t0)


def check_9():
    t0 = time.perf_counter()
    lam0 = lam0_jump()
    pb_high, sols = mild_solution_2lam0()
    runs = minimize_multistart(pb_high, n=240, starts=5)
    best_u, best_v, _ = runs[0]
    height_ok = False
    rel = math.inf
    if sols:
        rel = abs(best_u.sup_norm - sols[0].sup_norm) / sols[0].sup_norm
        height_ok = rel <= 0.20
    neg_ok = best_v < 0

    pb_low = ProblemInstance(0.5 * lam0, jump_weight(), mild_f())
    runs_low = minimize_multistart(pb_low, n=240, starts=5)
    collapse_ok = all(r[1] >= -1e-8 for r in runs_low) and all(r[0].sup_norm <= 1e-3 for r in runs_low)
    ok = neg_ok and height_ok and collapse_ok
    detail = (
        f"2*lam0: value={best_v:.3e} sup={best_u.sup_norm:.5f} vs shoot {sols[0].sup_norm if sols else float('nan'):.5f} "
        f"(rel={rel:.2e}); 0.5*lam0 collapse: {'all to 0' if collapse_ok else 'FAIL'}"
    )
    return _result(9, "variational cross-check", ok, detail, t0)


def _dead_core_profile(n):
    """Quartic hump with a flat tail; the weight is built from the profile."""
    xs = np.linspace(0.0, 1.0, n + 1)
    u = np.where(
        xs <= 1.0 / 3.0,
        (2.0 / 81.0 - xs ** 4) / 144.0,
        np.where(xs <= 2.0 / 3.0, (xs - 2.0 / 3.0) ** 4 / 144.0, 0.0),
    )
    du = np.where(
        xs <= 1.0 / 3.0,
        -4.0 * xs ** 3 / 144.0,
        np.where(xs <= 2.0 / 3.0, 4.0 * (xs - 2.0 / 3.0) ** 3 / 144.0, 0.0),
    )
    d2u = np.where(
        xs <= 1.0 / 3.0,
        -12.0 * xs ** 2 / 144.0,
        np.where(xs <= 2.0 / 3.0, 12.0 * (xs - 2.0 / 3.0) ** 2 / 144.0, 0.0),
    )
    g = (1.0 + du ** 2) ** 1.5
    tail = xs > 2.0 / 3.0
    a = np.where(tail, -5.0, d2u / np.where(tail, 1.0, g * np.sqrt(np.maximum(u, 1e-300))))
    return xs, u, du, a


def _dead_core_residual(n):
    xs, u, du, a = _dead_core_profile(n)
    w = TableWeight(xs, a, z=2.0 / 3.0)
    f = Nonlinearity(kind="prototype", p=0.5, q=0.5, M=1.0)
    pb = ProblemInstance(-1.0, w, f)
    return curvature_residual(pb, xs, u, du)


def check_10():
    t0 = time.perf_counter()
    msgs, ok = [], True

    produced = list(mild_solution_2lam0()[1])
    for p in (2.0, 3.0):
        produced.extend(small_branch(p)[2])
    pbs, sing = singular_50()
    pb3, sing3 = singular_1e3()
    _, members = rates_family()

    # each solution stores the residual and balance of its own ProblemInstance
    worst_res = max((s.residual for s in produced), default=0.0)
    worst_bal = max((abs(s.balance) for s in produced), default=0.0)
    ok &= worst_res <= 1e-5 and worst_bal <= 1e-5
    msgs.append(f"{len(produced)} regular solutions: worst residual={worst_res:.1e}, worst balance={worst_bal:.1e}")

    worst_piece, worst_flux = 0.0, 0.0
    singles = [s for s in (sing, sing3) if isinstance(s, SingularSolution)]
    singles += [m for m in members if isinstance(m, SingularSolution)]
    for s in singles:
        worst_piece = max(worst_piece, s.residual_left, s.residual_right)
        worst_flux = max(worst_flux, abs(s.flux_left - 1.0), abs(s.flux_right - 1.0))
    ok &= worst_piece <= 1e-5 and worst_flux <= 1e-5
    msgs.append(f"{len(singles)} jump solutions: worst piece residual={worst_piece:.1e}, worst flux defect={worst_flux:.1e}")

    res_coarse = _dead_core_residual(1000)
    res_fine = _dead_core_residual(2000)
    halves = res_fine <= 0.5 * res_coarse
    ok &= halves
    msgs.append(f"dead-core self-test: residual {res_coarse:.2e} -> {res_fine:.2e} under mesh halving")
    return _result(10, "residual invariants on every produced solution", ok, "; ".join(msgs), t0)


CHECKS = {
    1: check_1,
    2: check_2,
    3: check_3,
    4: check_4,
    5: check_5,
    6: check_6,
    7: check_7,
    8: check_8,
    9: check_9,
    10: check_10,
}


def run_all(subset=None):
    ids = sorted(subset) if subset else sorted(CHECKS)
    unknown = [cid for cid in ids if cid not in CHECKS]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; choose from {sorted(CHECKS)}")
    all_ok = True
    for cid in ids:
        res = CHECKS[cid]()
        all_ok &= res.passed
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} criterion {res.cid}: {res.name} [{res.elapsed:.1f}s] :: {res.detail}")
    return all_ok
