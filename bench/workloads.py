"""The four benchmark workloads: seeded inputs, the timed op, its check, its answers.

An op hands the program only generated numbers -- a problem spec in the
CLI's JSON schema and a parameter -- builds its own ProblemInstance from
them as a CLI call would, calls the public entry point and emits the result
through emit.json_text the way the CLI does.  Checks and answers run
outside the timed interval.  A check returns its failures as (kind, message)
pairs: "missing" when the program gave no answer where one exists (a
refusal, or a solution it lost), "stale-cells" when a varmin op minimized
with another weight's cell integrals from varmin's id()-keyed cache, and
"wrong" when a number it gave is wrong for any other reason.

Every op of a workload is one on which the program gives a right answer,
so a failed op means the program changed.  Two known defects would make
ops fail at random -- find_regular drops a bracketed root when bisection
stalls above theta_tol, and varmin's cell cache goes stale when a weight
takes a dead weight's id() -- so the ops steer clear of them (see Regular
and Varmin) and a workload's defect_probe measures each one instead, on
that workload's own inputs, for the traced run's per-layer metrics.

Ops come in rounds of one op per stratum, and a run always ends on a round
boundary, so every run does the same mix of work whatever the seed: the
cost of an op differs several-fold between strata (a minimization below
lambda0 iterates three times longer than one above it), and a run holds
only a handful of ops.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
from scipy.optimize import brentq

from curvebif import cli, continuation, emit, model, shoot, singular, varmin

RESIDUAL_TOL = 1e-5  # criteria 3 and 10: curvature residual and Neumann balance
FLUX_TOL = 1e-6  # criterion 7: one-sided flux defects
VALUE_RTOL = 1e-9  # varmin: reported value against the recomputed functional
VALUE_ATOL = 1e-15  # floor for the collapsed runs, whose value is exactly 0
SMALLNESS = 0.85  # lam ||f|| ||a||_1 at r_max, as criterion 9's mild bump
R_MAX = 2.0
THETA_TOL = 1e-6  # regular: bisection stops here, above theta(1)'s integration noise
PROBE_WEIGHTS = 20  # varmin: fresh weights per op in the stale-cell probe
CORRECTOR_TOL = 1e-8  # trace's default; a kept point has |theta(1)| <= 10 * CORRECTOR_TOL
TERMINATIONS = {"max-points", "lambda-max", "lambda-min", "height-max", "trivial-line", "corrector-failure"}


def rng_for(workload, seed, k):
    """Independent stream per op, so op k's input does not depend on run length."""
    return random.Random(f"{workload}:{seed}:{k}")


def step_spec(neg, z, f):
    """Step weight a = 1 on [0, z), a = -neg on (z, 1], in the CLI's JSON schema."""
    return {
        "weight": {
            "z": z,
            "segments": [
                {"interval": [0.0, z], "form": {"kind": "constant", "c": 1.0}},
                {"interval": [z, 1.0], "form": {"kind": "constant", "c": -neg}},
            ],
        },
        "f": f,
    }


def ramp_spec(f):
    """The linearly vanishing weight of the continuation tests (node 0.4)."""
    return {
        "weight": {
            "z": 0.4,
            "segments": [
                {"interval": [0.0, 0.4], "form": {"kind": "power", "amplitude": 1.0, "exponent": 1.0}},
                {"interval": [0.4, 1.0], "form": {"kind": "power", "amplitude": 2.0, "exponent": 1.0}},
            ],
        },
        "f": f,
    }


def step_lambda0(neg, z):
    """Principal Neumann eigenvalue of the step weight from its matching equation.

    The same closed form acceptance.eigen_oracle solves, so no op pays for
    the eigen layer.
    """

    def g(lam):
        return math.tan(math.sqrt(lam) * z) - math.sqrt(neg) * math.tanh(math.sqrt(lam * neg) * (1.0 - z))

    pole = (math.pi / 2.0) ** 2 / (z * z)
    return float(brentq(g, 1e-9, pole * (1 - 1e-12), xtol=1e-14, rtol=8.9e-16))


def mild_f(lam0, neg, z):
    """Smoothed bump scaled so lam ||f|| ||a||_1 = 0.85 at R_MAX * lam0.

    For p = 1 the sup norm is linear in the peak M, so one evaluation at
    M = 1 fixes the scale.  Every positive solution up to R_MAX * lam0 is
    then a graph and single shooting is well posed.
    """
    unit = model.Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0).sup_norm
    mass = z + neg * (1.0 - z)
    return {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": SMALLNESS / (R_MAX * lam0 * unit * mass)}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Regular:
    """find_regular at r * lam0 on drawn step weights with the mild bump.

    The op bisects to |theta(1)| <= THETA_TOL, not to find_regular's default
    1e-10: near a root theta(1) is noisy at 1e-9 to 1e-7, so at the default
    the bisection stalls on about 7 % of the inputs above lambda0 and
    _bisect_height drops the bracket silently.  The check still requires a
    curvature residual and balance of 1e-5, and defect_probe counts the
    roots the default tolerance loses.
    """

    defect = "shoot.lost_root_ratio"

    # one op with r below 1, where no solution may exist, then two above 1:
    # ops above cost about twice as much, and with equal shares the median op
    # time would fall in the gap between the two clusters
    strata = 3

    def make(self, seed, k):
        rng = rng_for("regular", seed, k)
        r = rng.uniform(0.55, 0.8) if k % 3 == 0 else rng.uniform(1.4, 1.9)
        neg, z = rng.uniform(1.8, 2.4), rng.uniform(0.35, 0.45)
        lam0 = step_lambda0(neg, z)
        return {"r": r, "lambda0": lam0, "lambda": r * lam0, "problem": step_spec(neg, z, mild_f(lam0, neg, z))}

    def run(self, inp):
        pb = model.ProblemInstance.from_dict(inp["problem"], lam=inp["lambda"])
        sols = shoot.find_regular(pb, 1e-6, 1e3, 64, theta_tol=THETA_TOL)
        return sols, emit.json_text([cli._thin_mesh(s.to_dict()) for s in sols])

    def check(self, inp, sols):
        bad = []
        if inp["r"] < 1.0 and sols:
            bad.append(("wrong", f"{len(sols)} solutions below lambda0"))
        if inp["r"] > 1.0 and not sols:
            bad.append(("missing", "no solution above lambda0"))
        for s in sols:
            if not s.residual <= RESIDUAL_TOL:
                bad.append(("wrong", f"residual {s.residual:.2e}"))
            if not abs(s.balance) <= RESIDUAL_TOL:
                bad.append(("wrong", f"balance {s.balance:.2e}"))
        return bad

    def defect_probe(self, inp):
        """(1, 1) when find_regular at its default theta_tol, as `curvebif solve` calls it, loses the solution above lambda0."""
        if inp["r"] < 1.0:
            return 0, 0
        pb = model.ProblemInstance.from_dict(inp["problem"], lam=inp["lambda"])
        return int(not shoot.find_regular(pb, 1e-6, 1e3, 64)), 1

    def answers(self, inp, sols):
        return {"lambda": inp["lambda"], "s0": [float(s.us[0]) for s in sols], "sup": [s.sup_norm for s in sols]}


class Jump:
    """solve_singular on drawn step weights with the prototype bump, then classify with the trace."""

    strata = 2  # lambda in [20, 45) and [45, 100), log-uniform within each

    def make(self, seed, k):
        rng = rng_for("jump", seed, k)
        lo, hi = (20.0, 45.0) if k % 2 == 0 else (45.0, 100.0)
        lam = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        neg, z = rng.uniform(1.8, 2.4), rng.uniform(0.35, 0.45)
        f = {"kind": "prototype", "p": 1.0, "q": 0.5, "M": 1.0}
        return {"lambda": lam, "problem": step_spec(neg, z, f)}

    def run(self, inp):
        pb = model.ProblemInstance.from_dict(inp["problem"], lam=inp["lambda"])
        sol = singular.solve_singular(pb)
        if isinstance(sol, singular.Absent):
            return (sol, None), emit.json_text({"absent": sol.reason, "detail": sol.detail})
        verdict = singular.classify(pb, sol)
        text = emit.json_text(cli._thin_mesh(sol.to_dict())) + emit.json_text(verdict.to_dict())
        return (sol, verdict), text

    def check(self, inp, got):
        sol, verdict = got
        if verdict is None:
            return [("missing", f"refused: {sol.reason}")]
        bad = []
        for side, flux in (("left", sol.flux_left), ("right", sol.flux_right)):
            if not abs(flux - 1.0) <= FLUX_TOL:
                bad.append(("wrong", f"{side} flux defect {abs(flux - 1.0):.2e}"))
        for side, res in (("left", sol.residual_left), ("right", sol.residual_right)):
            if not res <= RESIDUAL_TOL:
                bad.append(("wrong", f"{side} piece residual {res:.2e}"))
        if not sol.jump > 0:
            bad.append(("wrong", f"jump {sol.jump}"))
        if verdict.tag != "JumpCertified":
            bad.append(("wrong", f"verdict {verdict.tag}"))
        return bad

    def answers(self, inp, got):
        sol, verdict = got
        if verdict is None:
            return {"lambda": inp["lambda"], "absent": sol.reason}
        return {
            "lambda": inp["lambda"],
            "s0": [float(sol.us_left[0]), float(sol.us_right[-1])],
            "sup": sol.sup_norm,
            "jump": sol.jump,
            "flux": [sol.flux_left, sol.flux_right],
            "verdict": verdict.tag,
        }


class Branch:
    """seed_from_lambda0 then trace, alternating the ramp and the step family.

    The peaks are fixed, not drawn: trace's step control makes the cost
    chaotic in M (M = 0.00185 and 0.00186 differ by 40 % in op time, and the
    ramp branch falls back to lambda ~ 0 for M outside [0.0017, 0.0020]),
    so drawn peaks gave run-to-run spreads of 30 % at two ops per run.
    """

    strata = 2

    def make(self, seed, k):
        if k % 2 == 0:
            # regular throughout, with a subcritical fold right after the seed
            f = {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": 0.0018}
            return {"family": "ramp", "problem": ramp_spec(f), "max_points": 16, "lam_max": 250.0}
        # the CLI's default problem: climbs toward the singular transition,
        # where the corrector gives up
        f = {"kind": "prototype", "p": 1.0, "q": 0.5, "M": 1.0}
        return {"family": "step", "problem": step_spec(2.0, 0.4, f), "max_points": 60, "lam_max": 1e3}

    def run(self, inp):
        pb = model.ProblemInstance.from_dict(inp["problem"])
        fam = model.ProblemFamily(pb.weight, pb.f)
        start = continuation.seed_from_lambda0(fam)
        br = continuation.trace(
            fam, start, step=0.1, max_points=inp["max_points"], lam_max=inp["lam_max"], origin="FromLambda0"
        )
        points = [[p.lam, p.sup_norm, p.kind] for p in br.points]
        text = emit.json_text({"origin": br.origin, "terminated_by": br.terminated_by, "points": points})
        return br, text

    def check(self, inp, br):
        """Shoot every point again, unmeshed, and check theta(1) against trace's own figure."""
        bad = []
        pb = model.ProblemInstance.from_dict(inp["problem"])
        fam = model.ProblemFamily(pb.weight, pb.f)
        for i, p in enumerate(br.points):
            theta = shoot.shoot_residual(fam.at(p.lam), p.s0)
            if isinstance(theta, shoot.Blocked):
                bad.append(("wrong", f"point {i} at lambda {p.lam:.6g} does not reach x = 1 ({theta.event})"))
            elif not abs(theta) <= 10 * CORRECTOR_TOL:
                bad.append(("wrong", f"point {i}: |theta(1)| = {abs(theta):.2e}"))
            elif not abs(abs(theta) - p.residual) <= CORRECTOR_TOL:
                bad.append(("wrong", f"point {i}: |theta(1)| = {abs(theta):.2e} but trace reports {p.residual:.2e}"))
        if br.terminated_by not in TERMINATIONS:
            bad.append(("wrong", f"termination {br.terminated_by}"))
        if inp["family"] == "ramp" and not br.folds:
            bad.append(("wrong", "no fold on the ramp family"))
        return bad

    def answers(self, inp, br):
        return {
            "family": inp["family"],
            "points": [[p.lam, p.sup_norm] for p in br.points],
            "folds": br.folds,
            "terminated_by": br.terminated_by,
        }


def cell_integrals(weight, n):
    """Exact integral of a over each nodal cell of the n-grid, from Weight.integral."""
    h = 1.0 / n
    edges = np.concatenate([[0.0], (np.arange(n) + 0.5) * h, [1.0]])
    return np.array([weight.integral(a, b) for a, b in zip(edges[:-1], edges[1:])])


def length_functional(pb, v, cells):
    """The discrete J(u) of varmin, evaluated with the given cell integrals."""
    h = 1.0 / (len(v) - 1)
    length = float(np.sum(np.sqrt(h * h + np.diff(v) ** 2) - h))
    return length - pb.lam * float(np.sum(cells * pb.f.potential(v)))


def same_value(a, b):
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b)) + VALUE_ATOL


class Varmin:
    """minimize_multistart(n=240, starts=5) at 0.5 lambda0 and 2 lambda0, each on its own step weight.

    Inputs are fixed, not drawn: the descent's iteration count is chaotic in
    the problem (r = 0.50, 0.53 and 0.56 take 14.6, 11.7 and 11.3 s; two
    weights 0.06 apart in the negative part take 62.7k and 78.1k iterations
    at r = 0.5) and a run holds one op per stratum.  The two strata use
    different weights -- criterion 9's a = 1 / -2 with node 0.4 below
    lambda0, a = 1 / -2.2 with node 0.38 above -- so consecutive ops minimize
    different functionals.  Each op's problem stays alive until the run
    ends, so no later weight takes its id() and varmin's id()-keyed cell
    cache serves every op its own weight's cells, as it does for a CLI call,
    which runs in a process of its own.  The check compares the cells the op
    read with its weight's own and reports a mismatch as failed, of kind
    "stale-cells"; defect_probe shows how often the cache goes stale when
    weights are dropped.
    """

    defect = "varmin.stale_cell_ratio"
    strata = 2  # below lambda0 (every start collapses to 0) and above it (a negative minimum)
    n = 240

    def __init__(self):
        self.kept = []

    def make(self, seed, k):
        (r, neg, z) = (0.5, 2.0, 0.4) if k % 2 == 0 else (2.0, 2.2, 0.38)
        lam0 = step_lambda0(neg, z)
        f = {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": 0.05}
        return {"r": r, "lambda0": lam0, "lambda": r * lam0, "problem": step_spec(neg, z, f)}

    def run(self, inp):
        pb = model.ProblemInstance.from_dict(inp["problem"], lam=inp["lambda"])
        self.kept.append(pb)
        runs = varmin.minimize_multistart(pb, n=self.n, starts=5)
        best_u, best_v, info = runs[0]
        out = {
            "lambda": pb.lam,
            "value": best_v,
            "sup_norm": best_u.sup_norm,
            "minimizer": list(best_u.values),
            "iterations": info["iterations"],
            "starts": [{"value": r[1], "sup_norm": r[0].sup_norm} for r in runs],
        }
        return (pb, runs), emit.json_text(out)

    def check(self, inp, got):
        pb, runs = got
        cells = cell_integrals(pb.weight, self.n)
        # pb is still alive, so the cache entry under its id() is the one the op read
        used = getattr(varmin, "_CELL_CACHE", {}).get((id(pb.weight), self.n))
        if used is not None and not np.allclose(used, cells, rtol=VALUE_RTOL, atol=0.0):
            return [("stale-cells", f"minimized with another weight's cell integrals (max difference "
                                    f"{float(np.max(np.abs(used - cells))):.2e})")]
        bad = []
        for u, value, _ in runs:
            want = length_functional(pb, u.values, cells)
            if not same_value(value, want):
                bad.append(("wrong", f"reported value {value!r} but J(u) = {want!r}"))
        if inp["r"] < 1.0:
            if not all(r[1] >= -1e-8 and r[0].sup_norm <= 1e-3 for r in runs):
                bad.append(("wrong", "a start did not collapse to 0 below lambda0"))
        elif not runs[0][1] < 0.0:
            bad.append(("wrong", f"minimum {runs[0][1]!r} is not negative above lambda0"))
        return bad

    def defect_probe(self, inp):
        """(stale, PROBE_WEIGHTS): J of a flat u on fresh step weights, each dropped after use, read another weight's cells.

        Weights are drawn around the op's own and built one at a time, as a
        library caller who does not keep them would.  Run after the last
        op: a probe weight left in the cache could hand a later op its cells.
        """
        rng = random.Random(f"varmin-probe:{inp['lambda']!r}")
        f = inp["problem"]["f"]
        v = np.full(self.n + 1, 0.01)
        stale = 0
        for _ in range(PROBE_WEIGHTS):
            pb = model.ProblemInstance.from_dict(step_spec(rng.uniform(1.8, 2.4), rng.uniform(0.35, 0.45), f),
                                                 lam=inp["lambda"])
            got = varmin.functional_value(pb, v)
            stale += not same_value(got, length_functional(pb, v, cell_integrals(pb.weight, self.n)))
            del pb
        return stale, PROBE_WEIGHTS

    def answers(self, inp, got):
        _, runs = got
        return {"lambda": inp["lambda"], "values": [r[1] for r in runs], "sup": runs[0][0].sup_norm}


WORKLOADS = {"regular": Regular, "jump": Jump, "branch": Branch, "varmin": Varmin}
