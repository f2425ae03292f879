"""Compare the answers of two benchmark records.

    python3 bench/compare.py bench/out/jump-seed3-trace0.json other/jump-seed3-trace0.json

Ops are matched by index: one workload and seed give the same inputs in the
same order, and runs that completed different numbers of ops are compared
on their common ops.  Reports whether every answer (roots, sup norms,
jumps, fluxes, branch points, minimum values) agrees within the acceptance
tolerances, and whether the answers and the emitted output are
byte-identical.  Exits 0 when the answers agree, 1 when they do not.
"""

from __future__ import annotations

import json
import sys

RTOL = 1e-6  # criterion 1's eigenvalue tolerance, applied to every computed number
ATOL = {"flux": 1e-6}  # criterion 7's flux tolerance is absolute
FLOOR = 1e-12  # values that are zero up to roundoff (collapsed minima)


def differences(a, b, key="", path="answers"):
    """Paths at which two answer trees disagree beyond tolerance."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        tol = ATOL[key] if key in ATOL else RTOL * max(abs(a), abs(b)) + FLOOR
        return [] if abs(a - b) <= tol else [f"{path}: {a!r} vs {b!r}"]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: {len(a)} vs {len(b)} entries"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, key, f"{path}[{i}]")]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} vs {sorted(b)}"]
        return [d for k in a for d in differences(a[k], b[k], k, f"{path}.{k}")]
    return [] if a == b else [f"{path}: {a!r} vs {b!r}"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    a, b = (json.load(open(p)) for p in argv)
    common = list(zip(a["ops"], b["ops"]))
    print(f"{a['workload']} seed {a['seed']} vs {b['workload']} seed {b['seed']}: "
          f"{len(common)} common ops ({len(a['ops'])} and {len(b['ops'])} run)")
    if not common or any(x["input"] != y["input"] for x, y in common):
        print("inputs differ: the records are not of one workload and seed")
        return 1
    diffs = []
    for x, y in common:
        if bool(x["failures"]) != bool(y["failures"]):
            diffs.append(f"op {x['k']}: failed {x['failures']} vs {y['failures']}")
        diffs += [f"op {x['k']} {d}" for d in differences(x["answers"], y["answers"])]
    exact = all(json.dumps(x["answers"]) == json.dumps(y["answers"]) for x, y in common)
    emitted = all(x["emit_sha256"] == y["emit_sha256"] for x, y in common)
    for d in diffs:
        print("  " + d)
    print(f"answers agree within tolerances: {'no' if diffs else 'yes'}")
    print(f"answers byte-identical: {'yes' if exact else 'no'}")
    print(f"emitted output byte-identical: {'yes' if emitted else 'no'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
