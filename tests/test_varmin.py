import numpy as np
import pytest

from curvebif import ConstantForm, Nonlinearity, PolynomialForm, ProblemInstance, Segment, Weight, two_constant_weight
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


def test_minimize_on_a_list_built_polynomial_weight(mild_f):
    def weight(coeffs):
        return Weight(0.4, (Segment(0.0, 0.4, PolynomialForm(coeffs)), Segment(0.4, 1.0, ConstantForm(-2.0))))

    # the form stores its coefficients as a tuple, so the weight hashes (minimize caches by it)
    from_list = weight([1.0, 0])
    assert hash(from_list) == hash(weight((1.0, 0.0))) and from_list == weight((1.0, 0.0))
    u, value, _ = minimize(ProblemInstance(20.0, from_list, mild_f), n=16)
    assert np.isfinite(value) and np.all(np.isfinite(u.values))


def test_minimize_refuses_an_init_off_the_grid(pb_super):
    # 17 values are a grid of n = 16, not the n = 64 asked for
    with pytest.raises(ValueError, match="n = 64 needs 65 values"):
        minimize(pb_super, init=np.full(17, 0.05), n=64)


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
    # the gradient is refused wherever the value is: both come from one evaluation
    for evaluate in (functional_value, functional_gradient):
        with pytest.raises(ValueError, match="grid too coarse"):
            evaluate(pb_super, np.zeros(9))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            evaluate(pb_super, np.full(33, np.inf))  # inf - inf in the differences


def _reference_f_and_F(f, v):
    """f(v) and F(v) by two separate masked passes over the law's pieces, the oracle of the one-pass path."""
    a, b, mid_f, _, mid_F, _ = f._law
    u = np.abs(v)
    fu = np.asarray(f.c * np.asarray(np.minimum(u, b)) ** f.p)
    m = u > b
    fu[m] = f.h * u[m] ** (-f.q)
    if mid_f is not None:
        m = (a <= u) & (u <= b)
        fu[m] = mid_f(u[m])
    p1, q1 = f.p + 1.0, 1.0 - f.q
    Fu = np.asarray(f.c * np.asarray(np.minimum(u, b)) ** p1 / p1)
    Fa = f.c * a ** p1 / p1
    Fb = Fa if mid_F is None else Fa + mid_F(b)
    m = u > b
    Fu[m] = Fb + f.h * (u[m] ** q1 - b ** q1) / q1
    if mid_F is not None:
        m = (a <= u) & (u <= b)
        Fu[m] = Fa + mid_F(u[m])
    return np.sign(v) * fu, Fu


def _reference_functional(pb, v):
    """J(v) and its gradient by the two separate formulas, each with its own diff and square root."""
    n = len(v) - 1
    h = 1.0 / n
    edges = np.concatenate([[0.0], (np.arange(n) + 0.5) * h, [1.0]])
    cells = np.array([pb.weight.integral(a, b) for a, b in zip(edges[:-1], edges[1:])])
    fv, Fv = _reference_f_and_F(pb.f, v)
    value = float(np.sum(np.sqrt(h * h + np.diff(v) ** 2) - h)) - pb.lam * float(np.sum(cells * Fv))
    d = np.diff(v)
    w = d / np.sqrt(h * h + d ** 2)
    g = np.zeros_like(v)
    g[:-1] -= w
    g[1:] += w
    g -= pb.lam * cells * fv
    return value, g


_LAWS = {
    "prototype": Nonlinearity(),
    "prototype-p2.5": Nonlinearity(p=2.5, q=0.3, M=0.7),
    "smoothed": Nonlinearity(kind="smoothed", M=0.05),
    "smoothed-p2": Nonlinearity(kind="smoothed", p=2.0, q=0.7, M=1.3, delta=0.4),
    "table": Nonlinearity(kind="table", p=1.5, u_nodes=(0.1, 0.4, 1.0, 2.5), f_nodes=(0.2, 0.9, 0.6, 0.5)),
}


@pytest.mark.parametrize("kind", _LAWS)
def test_one_pass_evaluation_equals_the_two_formulas(kind, jump_weight):
    # every float the descent sees is the one the separate formulas give:
    # grids meeting any set of the law's pieces, exact zeros, negative entries
    f = _LAWS[kind]
    pb = ProblemInstance(7.3, jump_weight, f)
    a, b = float(f._law[0]), float(f._law[1])
    rng = np.random.default_rng(3)
    pools = {"head": [0.3 * a, 0.9 * a, 1e-3 * a], "middle": [a, 0.5 * (a + b), b], "tail": [1.5 * b, 40.0 * b]}
    grids = []
    for pieces in (["head"], ["head", "middle"], ["head", "tail"], ["head", "middle", "tail"]):
        pool = [0.0] + [x for p in pieces for x in pools[p]]
        v = rng.choice(pool, 41) * rng.choice([1.0, -1.0], 41)
        v[:2] = 0.0, -pool[-1]
        grids.append(v)
    grids += [rng.normal(0.0, scale, 33) for scale in (0.1 * a, b, 10.0 * b)]
    for v in grids:
        want_f, want_F = _reference_f_and_F(f, v)
        got_f, got_F = f.value_and_potential(v)
        for got, want in ((f(v), want_f), (f.potential(v), want_F), (got_f, want_f), (got_F, want_F)):
            assert np.array_equal(got, want)
        want_value, want_grad = _reference_functional(pb, v)
        assert functional_value(pb, v) == want_value
        assert np.array_equal(functional_gradient(pb, v), want_grad)
    for x in (0.0, -0.5 * a, 0.5 * (a + b), -3.0 * b):
        want_f, want_F = _reference_f_and_F(f, np.asarray(x))
        assert f(x) == want_f and f.potential(x) == want_F


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
    u, val, info = minimize(pb_super, init=np.full(241, 0.1))
    hist = info["history"]
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    assert val <= hist[0]



@pytest.mark.parametrize(
    "init, max_iter, stop",
    [
        (0.0, None, "gradient-tolerance"),  # u = 0 is stationary: no step is taken
        (0.1, None, "value-change"),
        (0.1, 5, "iteration-cap"),
    ],
)
def test_minimize_says_why_it_stopped(pb_super, monkeypatch, init, max_iter, stop):
    from curvebif import varmin

    if max_iter is not None:
        monkeypatch.setattr(varmin, "_MAX_ITER", max_iter)
    _, _, info = minimize(pb_super, init=np.full(121, init), n=120)
    assert info["stop"] == stop
    if stop == "gradient-tolerance":
        assert info["iterations"] == 0 and info["max_grad"] <= 1e-9
    elif stop == "iteration-cap":
        assert info["iterations"] == max_iter and info["max_grad"] > 1e-3
    else:
        assert 0.0 < info["max_grad"] < 1e-3

@pytest.mark.parametrize("starts", [0, -1, -4])
def test_multistart_refuses_fewer_than_one_start(pb_super, starts):
    # 0 would return no runs, and a negative count would run a slice of the inits
    with pytest.raises(ValueError, match=f"need at least 1 start, got {starts}"):
        minimize_multistart(pb_super, n=120, starts=starts)


def test_grid_and_start_counts_are_checked_before_anything_is_built(pb_super):
    # a negative n reached numpy's own errors ("negative dimensions", "Number of
    # samples") before the grid check, and a fractional n or start count a TypeError
    for run in (minimize, minimize_multistart):
        for n in (-3, 15):
            with pytest.raises(ValueError, match=r"need n >= 16"):
                run(pb_super, n=n)
        for n in (16.5, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"n must be a whole number, got {n}"):
                run(pb_super, n=n)
    with pytest.raises(ValueError, match="starts must be a whole number, got 2.5"):
        minimize_multistart(pb_super, n=120, starts=2.5)


def test_an_integral_float_grid_runs_as_its_int(pb_super):
    u, value, _ = minimize(pb_super, n=32.0)
    assert u.values.shape == (33,) and value == minimize(pb_super, n=32)[1]


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
    assert abs(k / (len(u.values) - 1) - 0.4) < 0.05
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
    assert len(u.values) - 1 == 16
    assert u.sup_norm == 1.0
    assert float(np.sum(np.abs(np.diff(u.values)))) == pytest.approx(1.0)


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
