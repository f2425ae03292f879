"""Desk-scale bifurcation diagrams for the two weight regularity classes.

Produces two diagrams under --out-dir:

  diagram_regular.{csv,svg}   ramp weight (node integrals diverge): one
                              all-regular branch from the positive
                              eigenvalue, subcritical fold included.
  diagram_jump.{csv,svg}      step weight: the regular loop from the
                              eigenvalue plus the dashed tail of jump
                              solutions at large parameter values.
"""

import argparse
from pathlib import Path

from curvebif import Nonlinearity, ProblemFamily, power_weight, two_constant_weight
from curvebif.continuation import diagram, seed_from_lambda0, singular_sweep, trace


def regular_diagram():
    fam = ProblemFamily(
        power_weight(1.0, 1.0, 2.0, 1.0, 0.4),
        Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=0.002),
    )
    seed = seed_from_lambda0(fam)
    branch = trace(fam, seed, step=0.1, max_points=120, lam_max=250.0)
    return diagram([branch.rows])


def jump_diagram():
    fam = ProblemFamily(
        two_constant_weight(1.0, 2.0, 0.4),
        Nonlinearity(kind="smoothed", p=1.0, q=0.5, M=1.0),
    )
    seed = seed_from_lambda0(fam)
    loop = trace(fam, seed, step=0.15, max_points=100, lam_max=100.0)
    tail = singular_sweep(fam, [8.0, 12.0, 20.0, 35.0, 60.0, 100.0])
    return diagram([loop.rows, tail.rows], logy=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for name, rec in (("diagram_regular", regular_diagram()), ("diagram_jump", jump_diagram())):
        (out / f"{name}.csv").write_text(rec.csv)
        (out / f"{name}.svg").write_text(rec.svg)
        print(f"{name}: {rec.n_points} points -> {out / name}.csv/svg")


if __name__ == "__main__":
    main()
