"""The benchmark's tracer must find every function it wraps.

bench/tracing.py wraps private names (shoot._march, eigen._shoot_linear,
the solve_ivp aliases, ...).  A rename in the package would otherwise only
surface as a broken traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
