"""Command-line front end.

Subcommands: eig, solve, branch, classify, singular, minimize, rates,
diagram, verify.  Problems are passed as inline JSON (--problem) or a file
(--problem-file); flags override file values, file values override the
built-in default (the step weight 1/-2 with node 0.4 and the p=1, q=0.5,
M=1 bump).  Exit codes: 0 success, 1 usage or configuration error, 2
verification failure.  Identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from .emit import csv_text, json_text, svg_plot
from .model import Nonlinearity, ProblemFamily, ProblemInstance, Weight

__all__ = ["main", "build_parser"]

DEFAULT_PROBLEM = {
    "weight": {
        "z": 0.4,
        "segments": [
            {"interval": [0.0, 0.4], "form": {"kind": "constant", "c": 1.0}},
            {"interval": [0.4, 1.0], "form": {"kind": "constant", "c": -2.0}},
        ],
    },
    "f": {"kind": "prototype", "p": 1.0, "q": 0.5, "M": 1.0},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(RuntimeError):
    pass


def _load_problem(args):
    if getattr(args, "problem", None) and getattr(args, "problem_file", None):
        raise UsageError("pass either --problem or --problem-file, not both")
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    if getattr(args, "problem", None):
        try:
            spec = json.loads(args.problem)
        except json.JSONDecodeError as e:
            raise UsageError(f"bad inline problem JSON: {e}")
    elif getattr(args, "problem_file", None):
        try:
            spec = json.loads(Path(args.problem_file).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read problem file: {e}")
    if not isinstance(spec, dict):
        raise UsageError("the problem JSON must be an object")
    if getattr(args, "p", None) is not None:
        spec.setdefault("f", {})["p"] = args.p
    if getattr(args, "q", None) is not None:
        spec.setdefault("f", {})["q"] = args.q
    lam = getattr(args, "lam", None)
    try:
        if lam is None:
            lam = float(spec.get("lambda", 0.0))
        weight = Weight.from_dict(spec["weight"])
        f = Nonlinearity.from_dict(spec["f"])
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"bad problem spec: {e}")
    if not (0 <= lam < np.inf):
        raise UsageError("lambda must be finite and nonnegative")
    return ProblemInstance(lam, weight, f)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _thin_mesh(d):
    mesh = d.get("mesh")
    if mesh and len(mesh) > 2001:
        idx = np.unique(np.linspace(0, len(mesh) - 1, 2001).astype(int))
        d["mesh"] = [mesh[i] for i in idx]
    return d


def build_parser():
    p = _Parser(prog="curvebif", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, lam=True):
        sp.add_argument("--problem", help="inline problem JSON")
        sp.add_argument("--problem-file", help="path to problem JSON")
        if lam:
            sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--out", default=None, help="output path (stdout when omitted)")

    sp = sub.add_parser("eig", help="principal Neumann eigenvalue of the weight")
    common(sp, lam=False)
    sp.add_argument("--tol", type=float, default=1e-12)

    sp = sub.add_parser("solve", help="regular solutions by height scan at fixed lambda")
    common(sp)
    sp.add_argument("--scan", nargs=3, type=float, default=(1e-6, 1e3, 64), metavar=("LO", "HI", "N"))

    sp = sub.add_parser("branch", help="trace a branch and emit CSV/SVG")
    common(sp)
    sp.add_argument("--seed", choices=("lambda0", "origin", "large-lambda"), default="lambda0")
    sp.add_argument("--lambda-max", type=float, default=1e3)
    sp.add_argument("--max-points", type=int, default=150)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--svg", default=None)

    sp = sub.add_parser("classify", help="regularity verdict for the instance")
    common(sp)

    sp = sub.add_parser("singular", help="construct the jump solution at the node")
    common(sp)

    sp = sub.add_parser("minimize", help="minimize the discrete length functional")
    common(sp)
    sp.add_argument("--n", type=int, default=240)
    sp.add_argument("--starts", type=int, default=5)

    sp = sub.add_parser("rates", help="large-lambda rate fits over a ladder")
    common(sp, lam=False)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--ladder", default="1e2,10**2.5,1e3,10**3.5,1e4")
    sp.add_argument("--svg", default=None)

    sp = sub.add_parser("diagram", help="merge branch CSVs into one diagram")
    sp.add_argument("--in", dest="inputs", nargs="+", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--log-y", action="store_true")

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,2,7")
    return p


def _cmd_eig(args):
    from .eigen import principal_neumann

    if not (0 < args.tol < 1):
        raise UsageError("tolerance must lie in (0, 1)")
    pb = _load_problem(args)
    pair = principal_neumann(pb.weight, tol=args.tol)
    out = {"lambda0": pair.eigenvalue, "residual": pair.residual, "mesh_size": pair.mesh_size}
    _write(args.out, json_text(out) + "\n")
    return 0


def _cmd_solve(args):
    from .shoot import find_regular

    pb = _load_problem(args)
    lo, hi, n = args.scan
    sols = find_regular(pb, s_min=lo, s_max=hi, n_scan=int(n))
    payload = [_thin_mesh(s.to_dict()) for s in sols]
    _write(args.out, json_text(payload) + "\n")
    return 0


def _cmd_branch(args):
    from .continuation import diagram, seed_from_lambda0, trace
    from .shoot import find_regular

    pb = _load_problem(args)
    fam = ProblemFamily(pb.weight, pb.f)
    if args.seed == "lambda0":
        start = seed_from_lambda0(fam)
        origin = "FromLambda0"
        direction = (0.0, 1.0)
    elif args.seed == "origin":
        start = (0.0, 1e-2)
        origin = "FromZeroLine"
        direction = (0.0, 1.0)
    else:
        lam_hi = args.lambda_max
        sols = find_regular(fam.at(lam_hi), s_min=1e-8, s_max=1e2, n_scan=48)
        if not sols:
            raise UsageError("no small solution found to seed the large-lambda branch")
        start = (lam_hi, sols[0].sup_norm)
        origin = "FromLargeLambdaSmall"
        direction = (-1.0, 0.0)
    br = trace(
        fam,
        start,
        step=args.step,
        max_points=args.max_points,
        lam_max=args.lambda_max,
        direction=direction,
        origin=origin,
    )
    rec = diagram([br])
    _write(args.out, rec.csv)
    if args.svg:
        _write(args.svg, rec.svg)
    return 0


def _cmd_classify(args):
    from .singular import classify

    pb = _load_problem(args)
    verdict = classify(pb)
    _write(args.out, json_text(verdict.to_dict()) + "\n")
    return 0


def _cmd_singular(args):
    from .singular import Absent, solve_singular

    pb = _load_problem(args)
    got = solve_singular(pb)
    if isinstance(got, Absent):
        _write(args.out, json_text({"absent": got.reason, "detail": got.detail}) + "\n")
        return 0
    _write(args.out, json_text(_thin_mesh(got.to_dict())) + "\n")
    return 0


def _cmd_minimize(args):
    from .varmin import minimize_multistart

    if args.starts < 1:
        raise UsageError("--starts must be at least 1")
    pb = _load_problem(args)
    runs = minimize_multistart(pb, n=args.n, starts=args.starts)
    best_u, best_v, info = runs[0]
    out = {
        "lambda": pb.lam,
        "value": best_v,
        "sup_norm": best_u.sup_norm,
        "minimizer": list(best_u.values),
        "iterations": info["iterations"],
        "starts": [{"value": r[1], "sup_norm": r[0].sup_norm} for r in runs],
    }
    _write(args.out, json_text(out) + "\n")
    return 0


def _parse_ladder(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if "**" in tok:
            base, expo = tok.split("**")
            out.append(float(base) ** float(expo))
        else:
            out.append(float(tok))
    return out


def _cmd_rates(args):
    from .asymptotics import build_family, flatness_and_node, grow_decay_rates

    pb = _load_problem(args)
    fam = ProblemFamily(pb.weight, pb.f)
    ladder = _parse_ladder(args.ladder)
    members = build_family(fam, ladder)
    sl, sr, fits = grow_decay_rates(members)
    flat = flatness_and_node(members, pb.weight.z, pb.f.M)
    out = {
        "ladder": [m.lam for m in members],
        "kinds": [m.kind for m in members],
        "slope_left": sl,
        "slope_right": sr,
        "fit_left": fits["left"].to_dict(),
        "fit_right": fits["right"].to_dict(),
        "flatness": flat,
    }
    _write(args.out, json_text(out) + "\n")
    if args.svg:
        lams = [m.lam for m in members]
        series = [
            {"x": lams, "y": [m.u_at(fits["left"].probe_x) for m in members], "dashed": False},
            {"x": lams, "y": [max(m.u_at(fits["right"].probe_x), 1e-300) for m in members], "dashed": True},
        ]
        _write(args.svg, svg_plot(series, xlabel="lambda", ylabel="u(probe)", logx=True, logy=True))
    return 0


def _cmd_diagram(args):
    rows = []
    for path in args.inputs:
        lines = Path(path).read_text().strip().splitlines()
        if not lines or lines[0] != "lambda,sup_norm,kind":
            raise UsageError(f"{path} is not a diagram CSV")
        for line in lines[1:]:
            lam, sup, kind = line.split(",")
            rows.append((float(lam), float(sup), kind))
    csv = csv_text(("lambda", "sup_norm", "kind"), rows)
    _write(args.out, csv)
    if args.svg:
        series = []
        for dashed in (False, True):
            pts = [(l, s) for l, s, k in rows if (k == "near-singular") == dashed]
            if pts:
                series.append({"x": [p[0] for p in pts], "y": [p[1] for p in pts], "dashed": dashed})
        _write(args.svg, svg_plot(series, xlabel="lambda", ylabel="sup|u|", logy=args.log_y))
    return 0


def _cmd_verify(args):
    from .acceptance import run_all

    subset = None
    if args.criteria:
        subset = [int(t) for t in args.criteria.split(",")]
    ok = run_all(subset=subset)
    return 0 if ok else 2


_DISPATCH = {
    "eig": _cmd_eig,
    "solve": _cmd_solve,
    "branch": _cmd_branch,
    "classify": _cmd_classify,
    "singular": _cmd_singular,
    "minimize": _cmd_minimize,
    "rates": _cmd_rates,
    "diagram": _cmd_diagram,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _DISPATCH[args.cmd](args)
    except UsageError as e:
        print(f"curvebif: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as e:
        print(f"curvebif: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
