import numpy as np
import pytest

from curvebif import ProblemFamily, acceptance
from curvebif.asymptotics import (
    _loglog_fit,
    build_family,
    flatness_and_node,
    grow_decay_rates,
    semilinear_positive_solution,
    small_branch_scaling,
)


@pytest.fixture(scope="module")
def rate_members():
    # build_family solves rung k from rungs < k only, so the first four
    # members of criterion 5's ladder are the family on (1e2, ..., 10^3.5)
    return acceptance.rates_family()[1][:4]


def test_loglog_fit_recovers_exact_power():
    lams = np.array([1e2, 1e3, 1e4, 1e5])
    slope, _, r2 = _loglog_fit(lams, 3.7 * lams ** 2.0)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_family_members_are_separated(rate_members, bump_f):
    assert [m.lam for m in rate_members] == sorted(m.lam for m in rate_members)
    assert all(m.sup_norm > 2 * bump_f.M for m in rate_members)
    # the step weight forces the separated family through the jump builder
    assert all(m.kind == "singular" for m in rate_members)


def test_left_growth_rate_saturates(rate_members):
    sl, _, fits = grow_decay_rates(rate_members)
    assert fits["left"].r2 >= 0.98
    assert sl == pytest.approx(2.0, abs=0.3)  # 1/q


def test_right_probe_obeys_decay_bound_monotonically(rate_members):
    # the decay law is one-sided: u(probe) lam^(1/p) decreases along the
    # ladder (at fixed probes the tail decays faster than the bound)
    _, _, fits = grow_decay_rates(rate_members)
    probe = fits["right"].probe_x
    scaled = [m.u_at(probe) * m.lam for m in rate_members]
    assert all(b <= a * 1.05 for a, b in zip(scaled, scaled[1:]))


def test_growth_lower_bound_monotone(rate_members):
    _, _, fits = grow_decay_rates(rate_members)
    probe = fits["left"].probe_x
    scaled = [m.u_at(probe) * m.lam ** (-2.0) for m in rate_members]
    assert all(b >= 0.95 * a for a, b in zip(scaled, scaled[1:]))


def test_rate_fit_preconditions(rate_members):
    with pytest.raises(ValueError):
        grow_decay_rates(rate_members[:3])
    with pytest.raises(ValueError):
        grow_decay_rates(rate_members, eta=0.5)


def test_flatness_and_level_crossing(rate_members, bump_f):
    rep = flatness_and_node(rate_members, 0.4, bump_f.M)
    assert rep["slope_trend"] <= 0.1
    # the jump swallows the peak level, so crossings sit at the node up to
    # integrator roundoff from the first rung on
    floor = 1e-6
    assert rep["crossing_gap_last"] <= max(rep["crossing_gap_first"], floor)
    assert rep["plateau_ratio"][-1] == pytest.approx(1.0, abs=0.05)


def test_family_requires_positive_ladder(jump_weight, bump_f):
    fam = ProblemFamily(jump_weight, bump_f)
    with pytest.raises(ValueError):
        build_family(fam, (0.0, 1e2))


def test_semilinear_oracle_scaling(jump_weight):
    # -v'' = a v^p scales as v -> c v when a -> c^(1-p) a; check p = 2 under
    # weight doubling: heights halve
    base = semilinear_positive_solution(jump_weight, 2.0)
    doubled = semilinear_positive_solution(jump_weight.scaled(2.0), 2.0)
    assert doubled == pytest.approx(base / 2.0, rel=1e-6)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_small_branch_scaling(p):
    # criterion 6's solutions on the ladder (1e2, 10^2.5, 1e3, 10^3.5)
    _, rep, _ = acceptance.small_branch(p)
    want = -1.0 / (p - 1.0)
    assert rep["r2"] >= 0.98
    assert rep["slope"] == pytest.approx(want, rel=0.15)
    assert rep["limit_ratio_last"] == pytest.approx(1.0, abs=0.2)


def test_small_branch_requires_superlinear(jump_weight, bump_f):
    fam = ProblemFamily(jump_weight, bump_f)
    with pytest.raises(ValueError):
        small_branch_scaling(fam, (1e2, 1e3, 1e4, 1e5))
