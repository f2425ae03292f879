"""One workload run in a fresh process; started by run.py, not by hand.

Prints READY once set-up is done (imports and the first round's inputs),
then runs ops closed-loop -- one client, each op starting after the previous
one has finished and been checked -- in whole rounds until --seconds have
passed, and prints one JSON line with the per-op records.  --setup-only
stops after READY.  --trace 1 also runs every op under the tracer, back to
back with its untraced run, and reports the per-layer metrics, the tracing
overhead and whether the traced answers equal the untraced ones.

While untraced ops run, SpeedProbe times a small fixed kernel that uses
scipy and numpy the way the program does but none of the program's code;
run.py scales the run's times by the machine speed it measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp

import curvebif
from tracing import Tracer
from workloads import WORKLOADS, sha

PROBE_PERIOD_S = 0.1


def _probe_rhs(s, y):
    return np.array([math.cos(y[2]), math.sin(y[2]), -30.0 * (1.0 + 0.5 * math.tanh(y[0] - 0.4)) * math.sin(y[1])])


def probe_kernel():
    """A fixed kernel shaped like the program's hot paths, about 3 ms.

    A DOP853 solve with a scalar Python right-hand side, as in shoot, then
    short-vector numpy arithmetic on a 241-point grid, as in varmin.  It
    calls no curvebif code, so a change to the program cannot move it.
    """
    solve_ivp(_probe_rhs, (0.0, 0.3), [0.0, 0.6, 0.0], method="DOP853", rtol=1e-11, atol=1e-12)
    v = np.linspace(0.0, 0.1, 241)
    for _ in range(60):
        d = np.diff(v)
        v = v - 1e-9 * float(np.sum(np.sqrt(1e-4 + d * d))) * np.cos(v)


class SpeedProbe:
    """Samples the machine's speed while untraced ops run.

    The host's speed flips between states about 1.7x apart every few
    seconds, often within one op, so samples taken between ops miss it
    (bench/NOTES.md, "Machine speed").  Every PROBE_PERIOD_S of wall time a
    timer signal interrupts the op and times probe_kernel; the samples are
    uniform in wall time, so the mean of their reciprocals is the mean
    speed over the ops.  The probe's own time is taken out of the op's time.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t0)

    def timed(self, wl, inp):
        """(op seconds without the probe's, probe timings during the op, *run_op's result)."""
        first = len(self.samples)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            out = run_op(wl, inp)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        probes = self.samples[first:]
        return (time.perf_counter() - t0 - sum(probes), probes) + out


def run_op(wl, inp):
    """(program output, emitted text, error) of one op."""
    try:
        return (*wl.run(inp), None)
    except Exception as e:  # a raising op is a failed op, not a failed run
        return None, None, f"{type(e).__name__}: {e}"


def record(wl, k, inp, dt, probe_s, got, text, err):
    """Check and summarize one op; runs outside the timed interval."""
    answers = None
    failures = [("missing", err)] if err else []
    if not err:
        try:
            failures = wl.check(inp, got)
            answers = wl.answers(inp, got)
        except Exception as e:
            failures = [("wrong", f"check raised {type(e).__name__}: {e}")]
    return {
        "k": k,
        "input": inp,
        "op_s": dt,
        "probe_s": probe_s,
        "failures": failures,
        "answers": answers,
        "emit_sha256": sha(text) if text is not None else None,
    }


def traced(wl, tracer, k, inp):
    """Run one op under the tracer, installed for this op only."""
    tracer.install()
    try:
        with tracer.op(k):
            t0 = time.perf_counter()
            out = run_op(wl, inp)
            dt = time.perf_counter() - t0
    finally:
        tracer.restore()
    return record(wl, k, inp, dt, [], *out)


def run_rounds(wl, seed, seconds, first, probe, tracer=None):
    """Untraced records, and with a tracer a traced twin of each op.

    Twins run back to back, traced first on every other op, which keeps
    the overhead ratio clear of the machine's speed drifting over the run
    and of a second identical run finding warmer caches.
    """
    records, rerun = [], []
    inputs = first
    t_start = time.perf_counter()
    while True:
        for inp in inputs:
            k = len(records)
            if tracer is not None and k % 2:
                rerun.append(traced(wl, tracer, k, inp))
            records.append(record(wl, k, inp, *probe.timed(wl, inp)))
            if tracer is not None and not k % 2:
                rerun.append(traced(wl, tracer, k, inp))
        if time.perf_counter() - t_start >= seconds:
            return records, rerun
        inputs = [wl.make(seed, len(records) + j) for j in range(wl.strata)]


def trace_report(wl, tracer, records, rerun):
    """Per-layer metrics, and the known-defect probes; traced answers must equal untraced ones.

    The probes run after the last op, untraced: each known defect's ratio is
    hits / trials over the traced ops' inputs, and 0 on the workloads that
    do not probe it.
    """
    for plain, rec in zip(records, rerun):
        if (rec["answers"], rec["emit_sha256"]) != (plain["answers"], plain["emit_sha256"]):
            rec["failures"].append(("wrong", "traced answers differ from the untraced run"))
    overhead = sum(r["op_s"] for r in rerun) / sum(r["op_s"] for r in records)
    metrics = tracer.metrics(len(rerun), overhead)
    metrics.update({w.defect: 0.0 for w in WORKLOADS.values() if hasattr(w, "defect")})
    if hasattr(wl, "defect"):
        hits, trials = (sum(col) for col in zip(*(wl.defect_probe(r["input"]) for r in rerun)))
        metrics[wl.defect] = hits / trials if trials else 0.0
    return {"ops": rerun, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if src not in Path(curvebif.__file__).resolve().parents:
        sys.exit(f"curvebif imported from {curvebif.__file__}, not from {src}")
    wl = WORKLOADS[args.workload]()
    first = [wl.make(args.seed, k) for k in range(wl.strata)]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # a traced run runs every op twice, so it stops starting rounds at half time
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    records, rerun = run_rounds(wl, args.seed, args.seconds / 2 if args.trace else args.seconds, first, probe, tracer)
    result = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "ops": records,
    }
    if args.trace:
        result["traced"] = trace_report(wl, tracer, records, rerun)
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
