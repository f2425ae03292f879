"""Every exported name resolves, so a deleted class cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import curvebif

# __main__ runs the command line on import
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(curvebif.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["curvebif", *(f"curvebif.{m}" for m in SUBMODULES)])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
