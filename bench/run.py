"""Run one benchmark workload and print its metrics by name, with units.

    python3 bench/run.py --workload regular --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload runs in a fresh single-threaded
child process (bench/worker.py) that imports curvebif from ./src; four more
children only set up, so set-up time is a median of five.  --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones; names and units
come from BENCHMARK.json.  Op times are wall times scaled to a reference
machine speed: the worker times a small fixed kernel every 0.1 s while an
op runs, and each op's time is multiplied by the kernel's mean speed during
it relative to PROBE_NOMINAL_S (bench/NOTES.md, "Machine speed"); set-up
time is scaled by the run's mean speed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: failed counts
the ops that raised, gave no answer where one exists, read stale varmin
cells, or gave a wrong answer otherwise, and correct is true when none did.
The full record -- every op's input, time, check and
answers -- goes to bench/out/<workload>-seed<seed>-trace<t>.json, which
bench/compare.py compares between runs.  Exits 1 without a result when the
run fails and 2 when ./src/curvebif is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# seconds of worker.probe_kernel inside ops at the reference speed: the median,
# over 17 runs on a 2-vCPU Intel Xeon VM, of each run's harmonic mean, so times
# read about as wall times would at that machine's typical speed
PROBE_NOMINAL_S = 0.0036


def speed(samples):
    """Mean speed relative to the reference, from probe timings taken uniformly in time."""
    return PROBE_NOMINAL_S * statistics.fmean(1.0 / p for p in samples)


def units():
    """Metric name -> unit, for the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("CURVEBIF_THREADS", "PYTHONPATH")}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra, deadline):
    """Start a worker; return (seconds from start to READY, stdout after READY, exit code)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY":
        return None, rest, code or 1
    return ready, rest, code


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("regular", "jump", "branch", "varmin"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "curvebif" / "__init__.py").is_file():
        print(f"bench: no curvebif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        ready, _, code = run_child(args, ["--setup-only"], deadline)
        if ready is None or code != 0:
            return fail("set-up failed")
        setups.append(ready)
    extra = ["--spans", f"{stem}.spans.jsonl"] if args.trace else []
    ready, rest, code = run_child(args, extra, deadline)
    if ready is None or code != 0 or not rest.strip():
        return fail(f"worker failed (exit {code})")
    setups.append(ready)
    res = json.loads(rest.strip().splitlines()[-1])

    ops = res["ops"]
    op_s = [r["op_s"] for r in ops]
    # each op is scaled by the speed during it; an op too short for a probe
    # sample, set-up and the traced run's layer times by the run's speed
    run_speed = speed([p for r in ops for p in r["probe_s"]])
    for r in ops:
        r["speed"] = speed(r["probe_s"]) if r["probe_s"] else run_speed
    ref_s = [r["op_s"] * r["speed"] for r in ops]
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, setup_s=setups,
               speed=run_speed)
    scored = res["traced"]["ops"] if args.trace else ops
    failed = sum(bool(r["failures"]) for r in scored)
    end_to_end, per_layer = units()
    if args.trace:
        unit = per_layer
        values = {k: v * run_speed if unit.get(k) in ("s", "us") else v for k, v in res["traced"]["metrics"].items()}
    else:
        values = {
            # set-up runs just before the ops, within the same phase of the host's speed
            "setup_s": statistics.median(setups) * run_speed,
            "solves_per_s": len(ops) / sum(ref_s),
            "op_p50_s": statistics.median(ref_s),
            "ok_ratio": (len(ops) - failed) / len(ops),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        unit = end_to_end
    if values.keys() != unit.keys():
        return fail(f"metrics {sorted(values.keys() ^ unit.keys())} are not both measured and in BENCHMARK.json")
    Path(f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(scored)} ops, {failed} failed, "
          f"op times {min(op_s):.3f}..{max(op_s):.3f} s wall (n={len(op_s)}), machine at {run_speed:.3f} of the "
          f"reference speed; record in {stem}.json")
    for r in scored:
        for kind, msg in r["failures"]:
            print(f"  op {r['k']} failed ({kind}): {msg}")
    for name, v in values.items():
        print(f"  {name:36s} {v:.6g} {unit[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(scored),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
