"""Command-line front end.

Subcommands: eig, solve, branch, classify, singular, minimize, rates,
diagram, verify.  Problems are passed as inline JSON (--problem) or a file
(--problem-file) and loaded by ProblemInstance.from_dict, which refuses an
unknown key; flags override file values, file values override the built-in
default (the step weight 1/-2 with node 0.4 and the default Nonlinearity,
the p=1, q=0.5, M=1 bump).  Defaults and checks that the library states,
such as eig's tolerance range and the rates ladder, are not restated here.
Exit codes: 0 success, 1 usage or configuration error (a library
ValueError included), 2 verification failure.  Identical inputs yield
byte-identical outputs.  minimize writes one stderr line when its best run
stopped on its iteration cap or abnormally.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, asymptotics, continuation, eigen, shoot, singular, varmin
from .emit import json_text, svg_plot
from .model import Nonlinearity, ProblemFamily, ProblemInstance, two_constant_weight

__all__ = ["main", "build_parser"]

DEFAULT_PROBLEM = {"weight": two_constant_weight(1.0, 2.0, 0.4).to_dict(), "f": Nonlinearity().to_dict()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(RuntimeError):
    pass


def _load_problem(args):
    if args.problem and args.problem_file:
        raise UsageError("pass either --problem or --problem-file, not both")
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    if args.problem:
        try:
            spec = json.loads(args.problem)
        except json.JSONDecodeError as e:
            raise UsageError(f"bad inline problem JSON: {e}")
    elif args.problem_file:
        try:
            spec = json.loads(Path(args.problem_file).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read problem file: {e}")
    if not isinstance(spec, dict):
        raise UsageError("the problem JSON must be an object")
    # --p and --q write into "f", and Nonlinearity.from_dict reads it by key
    if not isinstance(spec.get("f", {}), dict):
        raise UsageError('bad problem spec: "f" must be an object')
    if getattr(args, "p", None) is not None:
        spec.setdefault("f", {})["p"] = args.p
    if getattr(args, "q", None) is not None:
        spec.setdefault("f", {})["q"] = args.q
    try:
        pb = ProblemInstance.from_dict(spec, lam=getattr(args, "lam", None))
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"bad problem spec: {e}")
    if not (0 <= pb.lam < np.inf):
        raise UsageError("lambda must be finite and nonnegative")
    return pb


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _thin_mesh(d):
    """Keep at most 2001 evenly indexed rows of the (n, 3) mesh array."""
    mesh = d.get("mesh")
    if mesh is not None and len(mesh) > 2001:
        d["mesh"] = mesh[np.unique(np.linspace(0, len(mesh) - 1, 2001).astype(int))]
    return d


def build_parser():
    p = _Parser(prog="curvebif", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, run, help, problem=True, lam=True):
        """A subparser that runs run(args); a problem command takes the problem and --out options."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        if problem:
            sp.add_argument("--problem", help="inline problem JSON")
            sp.add_argument("--problem-file", help="path to problem JSON")
            if lam:
                sp.add_argument("--lambda", dest="lam", type=float, default=None)
            sp.add_argument("--out", default=None, help="output path (stdout when omitted)")
        return sp

    sp = command("eig", _cmd_eig, "principal Neumann eigenvalue of the weight", lam=False)
    sp.add_argument("--tol", type=float, default=1e-12)

    sp = command("solve", _cmd_solve, "regular solutions by height scan at fixed lambda")
    sp.add_argument("--scan", nargs=3, type=float, default=(1e-6, 1e3, 64), metavar=("LO", "HI", "N"))

    sp = command("branch", _cmd_branch, "trace a branch and emit CSV/SVG")
    sp.add_argument("--seed", choices=("lambda0", "origin", "large-lambda"), default="lambda0")
    sp.add_argument("--lambda-max", type=float, default=1e3)
    sp.add_argument("--max-points", type=int, default=150)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--svg", default=None)

    command("classify", _cmd_classify, "regularity verdict for the instance")
    command("singular", _cmd_singular, "construct the jump solution at the node")

    sp = command("minimize", _cmd_minimize, "minimize the discrete length functional")
    sp.add_argument("--n", type=int, default=240)
    sp.add_argument("--starts", type=int, default=5)

    sp = command("rates", _cmd_rates, "large-lambda rate fits over a ladder", lam=False)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--ladder", type=_parse_ladder, default=asymptotics.default_ladder())
    sp.add_argument("--svg", default=None)

    sp = command("diagram", _cmd_diagram, "merge branch CSVs into one diagram", problem=False)
    sp.add_argument("--in", dest="inputs", nargs="+", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--log-y", action="store_true")

    sp = command("verify", _cmd_verify, "run the acceptance suite", problem=False)
    sp.add_argument("--criteria", type=_parse_criteria, default=None, help="comma-separated subset, e.g. 1,2,7")
    return p


def _cmd_eig(args):
    pb = _load_problem(args)
    pair = eigen.principal_neumann(pb.weight, tol=args.tol)
    out = {"lambda0": pair.eigenvalue, "residual": pair.residual, "mesh_size": pair.mesh_size}
    _write(args.out, json_text(out) + "\n")
    return 0


def _cmd_solve(args):
    lo, hi, n = args.scan
    pb = _load_problem(args)
    sols = shoot.find_regular(pb, s_min=lo, s_max=hi, n_scan=n)
    payload = [_thin_mesh(s.to_dict()) for s in sols]
    _write(args.out, json_text(payload) + "\n")
    return 0


def _cmd_branch(args):
    pb = _load_problem(args)
    fam = ProblemFamily(pb.weight, pb.f)
    if args.seed == "lambda0":
        start = continuation.seed_from_lambda0(fam)
        origin = "FromLambda0"
        direction = (0.0, 1.0)
    elif args.seed == "origin":
        start = (0.0, 1e-2)
        origin = "FromZeroLine"
        direction = (0.0, 1.0)
    else:
        lam_hi = args.lambda_max
        sols = shoot.find_regular(fam.at(lam_hi), s_min=1e-8, s_max=1e2, n_scan=48)
        if not sols:
            raise UsageError("no small solution found to seed the large-lambda branch")
        start = (lam_hi, float(sols[0].us[0]))  # trace shoots from its height at x = 0
        origin = "FromLargeLambdaSmall"
        direction = (-1.0, 0.0)
    br = continuation.trace(
        fam,
        start,
        step=args.step,
        max_points=args.max_points,
        lam_max=args.lambda_max,
        direction=direction,
        origin=origin,
    )
    rec = continuation.diagram([br.rows])
    _write(args.out, rec.csv)
    if args.svg:
        _write(args.svg, rec.svg)
    return 0


def _cmd_classify(args):
    pb = _load_problem(args)
    verdict = singular.classify(pb)
    _write(args.out, json_text(verdict.to_dict()) + "\n")
    return 0


def _cmd_singular(args):
    pb = _load_problem(args)
    got = singular.solve_singular(pb)
    if isinstance(got, singular.Absent):
        _write(args.out, json_text({"absent": got.reason, "detail": got.detail}) + "\n")
        return 0
    _write(args.out, json_text(_thin_mesh(got.to_dict())) + "\n")
    return 0


def _cmd_minimize(args):
    pb = _load_problem(args)
    if pb.lam <= 0:
        raise UsageError("minimize needs lambda > 0 (pass --lambda)")
    runs = varmin.minimize_multistart(pb, n=args.n, starts=args.starts)
    best_u, best_v, info = runs[0]
    out = {
        "lambda": pb.lam,
        "value": best_v,
        "sup_norm": best_u.sup_norm,
        "minimizer": list(best_u.values),
        "iterations": info["iterations"],
        "stop": info["stop"],
        "max_grad": info["max_grad"],
        "starts": [
            {"value": v, "sup_norm": u.sup_norm, "stop": run_info["stop"], "max_grad": run_info["max_grad"]}
            for u, v, run_info in runs
        ],
    }
    _write(args.out, json_text(out) + "\n")
    if info["stop"] in ("iteration-cap", "abnormal"):
        print(f"curvebif: the best run stopped on {info['stop']}, at max |g| = {info['max_grad']:.3g}", file=sys.stderr)
    return 0


def _parse_ladder(text):
    """The --ladder rungs: comma-separated numbers or base**exponent powers, each a finite real.

    Raises UsageError, which argparse passes on to main, naming the first
    token that is not one.
    """
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        base, power, expo = tok.partition("**")
        try:
            value = float(base) ** float(expo) if power else float(base)
        except (ValueError, ArithmeticError):
            value = None
        if not (isinstance(value, float) and math.isfinite(value)):
            raise UsageError(f"ladder token {tok!r} is not a finite real number")
        out.append(value)
    return out


def _cmd_rates(args):
    pb = _load_problem(args)
    fam = ProblemFamily(pb.weight, pb.f)
    members = asymptotics.build_family(fam, args.ladder)
    sl, sr, fits = asymptotics.grow_decay_rates(members, pb.weight.z)
    flat = asymptotics.flatness_and_node(members, pb.weight.z, pb.f.M)
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
    branches = []
    for path in args.inputs:  # each input is one branch
        lines = Path(path).read_text().rstrip().splitlines()
        if not lines or lines[0] != "lambda,sup_norm,kind":
            raise UsageError(f"{path} is not a diagram CSV")
        branches.append([])
        for n, line in enumerate(lines[1:], start=2):
            try:
                lam, sup, kind = line.split(",")
                lam, sup = float(lam), float(sup)
            except ValueError:
                lam = sup = math.nan
            if not (math.isfinite(lam) and math.isfinite(sup)):
                raise UsageError(f"{path}, line {n}: {line!r} is not a row lambda,sup_norm,kind with finite numbers")
            branches[-1].append((lam, sup, kind))
    rec = continuation.diagram(branches, logy=args.log_y)
    _write(args.out, rec.csv)
    if args.svg:
        _write(args.svg, rec.svg)
    return 0


def _parse_criteria(text):
    """The --criteria subset: comma-separated integers.

    Raises UsageError, which argparse passes on to main, naming the first
    token that is not one; an empty value is such a token, not "all".
    """
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            raise UsageError(f"--criteria token {tok!r} is not an integer")
    return out


def _cmd_verify(args):
    ok = acceptance.run_all(subset=args.criteria)
    return 0 if ok else 2


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"curvebif: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
