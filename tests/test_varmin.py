import numpy as np
import pytest

from curvebif import Nonlinearity, ProblemInstance, two_constant_weight
from curvebif.eigen import principal_neumann
from curvebif.varmin import (
    DiscreteBVFunction,
    functional_gradient,
    functional_value,
    minimize,
    minimize_multistart,
)


@pytest.fixture(scope="module")
def pb_super(jump_weight, mild_f, lam0_jump):
    return ProblemInstance(2.0 * lam0_jump, jump_weight, mild_f)


@pytest.fixture(scope="module")
def pb_sub(jump_weight, mild_f, lam0_jump):
    return ProblemInstance(0.5 * lam0_jump, jump_weight, mild_f)


def test_zero_function_has_zero_value(pb_super):
    assert functional_value(pb_super, np.zeros(241)) == 0.0


def test_constant_value_is_exact(pb_super):
    c = 0.02
    want = -pb_super.lam * pb_super.f.potential(c) * pb_super.weight.mean
    got = functional_value(pb_super, np.full(241, c))
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0  # negative mean weight makes constants cost energy


def test_scaled_eigenfunction_goes_negative(pb_super, jump_weight):
    pair = principal_neumann(jump_weight)
    phi = np.interp(np.linspace(0, 1, 241), pair.xs, pair.phi)
    assert functional_value(pb_super, 0.01 * phi) < 0.0


def test_rejects_coarse_grid(pb_super):
    with pytest.raises(ValueError):
        functional_value(pb_super, np.zeros(9))


def test_gradient_matches_finite_differences(pb_super):
    rng = np.random.default_rng(1)
    v = 0.05 * rng.uniform(0.2, 1.0, 33)
    g = functional_gradient(pb_super, v)
    eps = 1e-7
    for k in (0, 7, 16, 31, 32):
        e = np.zeros_like(v)
        e[k] = eps
        fd = (functional_value(pb_super, v + e) - functional_value(pb_super, v - e)) / (2 * eps)
        assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_descent_is_monotone(pb_super):
    u, val, info = minimize(pb_super, init=np.full(241, 0.1), max_iter=3000)
    hist = info["history"]
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    assert val <= hist[0]


def test_minimizer_is_nonnegative(pb_super):
    u, _, _ = minimize(pb_super, init=np.full(241, 0.08))
    assert np.min(u.values) >= 0.0


def test_supercritical_matches_shooting(pb_super, mild_solution):
    _, shot = mild_solution
    runs = minimize_multistart(pb_super, n=240, starts=5)
    u, val, _ = runs[0]
    assert val < 0
    assert u.sup_norm == pytest.approx(shot.sup_norm, rel=0.2)


def test_subcritical_collapses(pb_sub):
    runs = minimize_multistart(pb_sub, n=240, starts=5)
    assert all(val >= -1e-8 for _, val, _ in runs)
    assert all(u.sup_norm <= 1e-3 for u, _, _ in runs)


def test_refinement_stability(pb_super):
    vals = []
    for n in (120, 240):
        runs = minimize_multistart(pb_super, n=n, starts=3)
        vals.append(runs[0][1])
    assert vals[1] == pytest.approx(vals[0], rel=0.02)


def test_steep_transition_for_jump_weight(jump_weight, bump_f, jump_solution_50):
    # at lam = 50 the minimizer emulates the jump with one steep cell whose
    # drop carries most of the singular solution's jump
    pb = ProblemInstance(50.0, jump_weight, bump_f)
    runs = minimize_multistart(pb, n=160, starts=4)
    u, val, _ = runs[0]
    assert val < 0
    drops = -np.diff(u.values)
    k = int(np.argmax(drops))
    assert abs(u.xs[k] - 0.4) < 0.05
    _, sing = jump_solution_50
    assert drops[k] == pytest.approx(sing.jump, rel=0.35)


def test_coercivity_proxy(pb_super):
    rng = np.random.default_rng(0)
    n = 64
    for _ in range(4):
        direction = rng.normal(size=n + 1)
        vals, grow = [], []
        for t in (1.0, 10.0, 100.0, 1000.0):
            ray = t * direction
            mean = float(np.mean(ray))
            variation = float(np.sum(np.abs(np.diff(ray - mean))))
            vals.append(functional_value(pb_super, ray))
            # growth at least linear in the variation minus a fitted constant
            grow.append(vals[-1] - 0.5 * (variation + abs(mean) ** pb_super.f.q))
        assert vals[-1] > vals[-2] > vals[-3]
        assert grow[-1] > -5.0


def test_discrete_function_helpers():
    u = DiscreteBVFunction(np.linspace(1.0, 0.0, 17))
    assert u.n == 16
    assert u.sup_norm == 1.0
    assert u.variation() == pytest.approx(1.0)


def test_cell_integrals_follow_fresh_weights(mild_f):
    # weights built and dropped one at a time may share an id(); each must
    # still be integrated with its own cells
    n = 240
    v = np.full(n + 1, 0.01)
    edges = np.concatenate([[0.0], (np.arange(n) + 0.5) / n, [1.0]])
    for k in range(12):
        w = two_constant_weight(1.0, 1.8 + 0.05 * k, 0.35 + 0.008 * k)
        pb = ProblemInstance(5.0, w, mild_f)
        cells = np.array([w.integral(a, b) for a, b in zip(edges[:-1], edges[1:])])
        length = float(np.sum(np.sqrt(n ** -2 + np.diff(v) ** 2) - 1.0 / n))
        want = length - pb.lam * float(np.sum(cells * mild_f.potential(v)))
        assert functional_value(pb, v) == pytest.approx(want, rel=1e-12, abs=1e-15)
        del w, pb
