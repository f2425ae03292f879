"""Growth and decay study of the separated solution family at large parameter.

A thin wrapper over `curvebif rates`: fits the log-log probe laws for the
default step-weight problem over the default ladder and writes rates.json
and the log-log SVG rates.svg under --out-dir.
"""

import argparse
import sys
from pathlib import Path

from curvebif.cli import main as curvebif


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--q", type=float, default=0.5)
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return curvebif(["rates", "--p", repr(args.p), "--q", repr(args.q),
                     "--out", str(out / "rates.json"), "--svg", str(out / "rates.svg")])


if __name__ == "__main__":
    sys.exit(main())
