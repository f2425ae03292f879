"""Session fixtures shared with the acceptance suite.

The problem data and the costly solutions come from curvebif.acceptance's
cached producers, so a tier-1 run builds each of them once, whichever of
the unit tests and the criteria asks first.
"""

import pytest

from curvebif import ProblemFamily, acceptance, power_weight


@pytest.fixture(scope="session")
def jump_weight():
    return acceptance.jump_weight()


@pytest.fixture(scope="session")
def ramp_weight():
    # vanishes linearly at the node from both sides
    return power_weight(1.0, 1.0, 2.0, 1.0, 0.4)


@pytest.fixture(scope="session")
def bump_f():
    return acceptance.bump_f()


@pytest.fixture(scope="session")
def mild_f():
    return acceptance.mild_f()


@pytest.fixture(scope="session")
def lam0_jump():
    return acceptance.lam0_jump()


@pytest.fixture(scope="session")
def mild_family(jump_weight, mild_f):
    return ProblemFamily(jump_weight, mild_f)


@pytest.fixture(scope="session")
def mild_solution():
    pb, sols = acceptance.mild_solution_2lam0()
    assert sols, "expected a regular solution at 2*lam0 in the mild regime"
    return pb, sols[0]


@pytest.fixture(scope="session")
def jump_solution_50():
    return acceptance.singular_50()
