"""The benchmark's tracer must find every function it wraps.

bench/tracing.py wraps private names (shoot._march, eigen._shoot_linear,
the solve_ivp aliases, ...).  A rename in the package would otherwise only
surface as a broken traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from curvebif import shoot, singular

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_restores():
    tracer = _tracing().Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()


@pytest.mark.parametrize(
    "fn, name",
    [(shoot._march, "collect"), (singular._march, "collect"), (singular._solve_piece, "n_scan")],
    ids=["shoot._march", "singular._march", "singular._solve_piece"],
)
def test_noted_keywords_exist(fn, name):
    # the tracer's notes read these arguments from each call's keywords
    param = inspect.signature(fn).parameters.get(name)
    assert param is not None and param.kind in (param.KEYWORD_ONLY, param.POSITIONAL_OR_KEYWORD)


def test_every_march_terminal_is_counted():
    # the traced shoot.march counts split by tracing.TERMINALS: the event
    # table's terminals, and the ends _march sets outside it
    ends = {"reached", "cap", "failure"} | {terminal for _, terminal in shoot._EVENTS}
    assert ends <= set(_tracing().TERMINALS)


def test_traced_shots_and_jump_record_their_spans(jump_weight, bump_f):
    # the tracer's notes read fields of what the traced functions return, so
    # a traced run must still record them
    from curvebif import ProblemInstance

    tracer = _tracing().Tracer()
    try:
        tracer.install()
        with tracer.op(0):
            pb = ProblemInstance(0.0, jump_weight, bump_f)
            shoot.integrate_path(pb, 0.7)
            shoot.integrate_path(pb, 0.7, collect=None)
            sing = singular.solve_singular(ProblemInstance(50.0, jump_weight, bump_f))
    finally:
        tracer.restore()
    assert isinstance(sing, singular.SingularSolution)
    notes = {}
    for name, *_, note in tracer.spans:
        notes.setdefault(name, []).append(note)
    marches = notes["shoot.march"]
    assert marches[0]["terminal"] == "reached" and marches[0]["mesh"] > 2 and marches[1]["mesh"] == 0
    assert len(marches) > 4 and all(n is not None for n in marches)
    assert len(notes["singular.flux"]) == 2
    assert notes["singular.solve"] == [{"built": True}]
