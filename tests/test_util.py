import math

import numpy as np
import pytest

from curvebif.util import COLLAPSE_RTOL, FALLBACK_TOL, MAX_EVALS, bisect_bracket, scan_brackets


def exact(fn):
    return lambda s: (fn(s), True)


def test_scan_brackets_skips_heights_without_sign():
    brackets = list(scan_brackets(exact(lambda s: s - 2.0), 1e-3, 1e3, 16))
    assert len(brackets) == 1
    lo, hi, lo_positive = brackets[0]
    assert lo < 2.0 < hi and not lo_positive
    # a sign change across a height with no sign is not a bracket
    assert list(scan_brackets(lambda s: (None, False) if 1.0 < s < 4.0 else (s - 2.0, True), 1e-3, 1e3, 16)) == []


def recording(fn):
    calls = []

    def value(s):
        calls.append(s)
        return fn(s), True

    return value, calls


def sign_changes(s):
    # roots at 0.02 and 20: positive below, negative between, positive above
    return (s - 0.02) * (s - 20.0)


def test_upward_walk_stops_at_its_first_bracket():
    value, calls = recording(sign_changes)
    walk = scan_brackets(value, 1e-3, 7e2, 33)
    lo, hi, lo_positive = next(walk)
    assert lo < 0.02 < hi and lo_positive
    # no height above the bracket's upper end was evaluated
    assert calls == sorted(calls) and calls[-1] == hi
    assert len(calls) == 9
    # the rest of the walk picks up where it stopped
    lo, hi, lo_positive = next(walk)
    assert lo < 20.0 < hi and not lo_positive
    assert next(walk, None) is None
    assert len(calls) == 33 and len(set(calls)) == 33


def test_downward_walk_reverses_the_grid_bit_for_bit():
    up_value, up_calls = recording(sign_changes)
    full = list(scan_brackets(up_value, 1e-3, 7e2, 33))
    down_value, down_calls = recording(sign_changes)
    assert list(scan_brackets(down_value, 7e2, 1e-3, 33)) == full[::-1]
    assert down_calls == up_calls[::-1]
    # np.geomspace(hi, lo, n) is not that grid: 11 of its 31 interior floats differ
    assert sum(a != b for a, b in zip(np.geomspace(7e2, 1e-3, 33), down_calls)) == 11
    # stopped at its first bracket, the downward walk keeps the full scan's last
    value, calls = recording(sign_changes)
    assert next(scan_brackets(value, 7e2, 1e-3, 33)) == full[-1]
    assert calls == down_calls[: len(calls)] and calls[-1] == full[-1][0]
    assert len(calls) == 10  # grid indices 32 down to 23


def test_height_without_sign_breaks_a_bracket_both_ways():
    def value(s):
        return (None, False) if 0.05 < s < 0.2 else (s - 0.1, True)

    for start, stop in ((1e-3, 7e2), (7e2, 1e-3)):
        assert list(scan_brackets(value, start, stop, 33)) == []
        # the same sign change with every height signed is one bracket
        assert len(list(scan_brackets(exact(lambda s: s - 0.1), start, stop, 33))) == 1


def test_bisect_accepts_first_midpoint_within_tol():
    root = bisect_bracket(exact(lambda s: s * s - 2.0), 1.0, 3.0, False, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12


def test_collapsed_bracket_keeps_best_exact_point():
    # a sign jump of 1e-7 at s = 2: |v| never reaches tol, so the bracket
    # collapses onto the jump and the best exact midpoint is returned
    def step(s):
        return (s - 2.0) + (5e-8 if s > 2.0 else -5e-8)

    root = bisect_bracket(exact(step), 1.0, 3.0, False, 1e-10)
    assert root is not None and abs(root - 2.0) <= 1e-12
    # the same values as surrogates give no point to keep
    assert bisect_bracket(lambda s: (step(s), False), 1.0, 3.0, False, 1e-10) is None
    # a sign change at a pole is not a root
    assert bisect_bracket(exact(lambda s: 1.0 / (s - 2.0)), 1.0, 3.0, False, 1e-10) is None


def test_bisect_gives_up_on_a_midpoint_without_sign():
    calls = []

    def value(s):
        calls.append(s)
        return (None, False) if 1.5 < s < 2.5 else (s - 2.2, True)

    assert bisect_bracket(value, 1.0, 4.0, False, 1e-10) is None
    assert calls == [2.0]


def reference_bisection(value, lo, hi, lo_positive, tol):
    """The plain geometric bisection, as the heights it visits and its result."""
    heights, best = [], None
    for _ in range(MAX_EVALS):
        if hi - lo <= COLLAPSE_RTOL * hi:
            break
        mid = math.sqrt(lo * hi)
        heights.append(mid)
        v, is_exact = value(mid)
        if v is None:
            return heights, None
        if is_exact and abs(v) <= tol:
            return heights, mid
        if is_exact and (best is None or abs(v) < abs(best[0])):
            best = (v, mid)
        if (v >= 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return heights, best[1] if best is not None and abs(best[0]) <= FALLBACK_TOL else None


def recorded(value):
    calls = []

    def wrapped(s):
        calls.append(s)
        return value(s)

    return wrapped, calls


def test_exact_ends_converge_superlinearly():
    # bisection takes 40 evaluations here
    value, calls = recorded(exact(lambda s: s * s - 2.0))
    root = bisect_bracket(value, 1.0, 3.0, False, 1e-12)
    assert abs(root * root - 2.0) <= 1e-12
    assert len(calls) <= 12


def test_kinked_roots_converge_superlinearly():
    # a jump piece's value changes slope at its root (the node gap on one
    # side, 1 + sin(theta) on the other): regula falsi with Illinois halving
    # took 44, 70 and 23 evaluations on these
    kinks = (
        (lambda s: s - 2.0 if s < 2.0 else 30.0 * (s - 2.0), False),
        (lambda s: -math.sqrt(2.0 - s) if s < 2.0 else s - 2.0, False),
        (lambda s: 2.0 - s if s < 2.0 else -30.0 * (s - 2.0) ** 2, True),
    )
    for fn, lo_positive in kinks:
        value, calls = recorded(exact(fn))
        root = bisect_bracket(value, 1.0, 3.0, lo_positive, 1e-9)
        assert abs(fn(root)) <= 1e-9
        assert len(calls) <= 20


def test_surrogate_ends_keep_the_geometric_midpoints():
    # a surrogate value (find_regular's +-pi for a vertical shot) only signs
    # its height: while one bounds the bracket the refine must visit the
    # bisection's heights one for one
    def surrogate_above(s):
        return (s - 2.0, True) if s < 2.0 else (0.1 + (s - 2.0), False)

    def step(s):
        return (s - 2.0) + (5e-8 if s > 2.0 else -5e-8), False

    for fn, tol in ((surrogate_above, 1e-9), (step, 1e-10)):
        value, calls = recorded(fn)
        root = bisect_bracket(value, 1.0, 3.0, False, tol)
        heights, want = reference_bisection(fn, 1.0, 3.0, False, tol)
        assert calls == heights
        assert root == want


def test_stalled_brackets_stay_within_three_bisections():
    # interpolation can keep one end for ever on a jump, a pole or a flat
    # root; brentq's bisection steps bound the cost
    def step(s):
        return (s - 2.0) + (5e-8 if s > 2.0 else -5e-8)

    def pole(s):
        return 1.0 / (s - 2.0)

    def flat(s):
        return (s - 1.0) ** 5

    for fn, lo, hi, tol, root_ok in (
        (step, 1.0, 3.0, 1e-10, lambda r: abs(r - 2.0) <= 1e-12),
        (pole, 1.0, 3.0, 1e-10, lambda r: r is None),
        (flat, 0.5, 3.0, 1e-14, lambda r: abs(flat(r)) <= 1e-14),
    ):
        value, calls = recorded(exact(fn))
        root = bisect_bracket(value, lo, hi, False, tol)
        n_bisect = len(reference_bisection(exact(fn), lo, hi, False, tol)[0])
        assert len(calls) <= min(3 * n_bisect, 200)
        assert root_ok(root)


def test_stalled_bracket_spends_each_height_once():
    # a sign jump with no zero: the refine ends when the bracket collapses,
    # a few ulp wide, and never shoots a height twice
    def step(s):
        return (s - 2.0) + (5e-8 if s > 2.0 else -5e-8)

    value, calls = recorded(exact(step))
    root = bisect_bracket(value, 1.0, 3.0, False, 1e-10)
    assert abs(root - 2.0) <= 1e-12
    assert len(calls) <= 55
    assert len(set(calls)) == len(calls)


def test_zero_surrogate_is_never_a_root():
    # heights up to 2.0 carry a surrogate 0, which signs them positive; the
    # first midpoint of [1, 4] is 2.0, and the exact root is 2.05
    def value(s):
        return (0.0, False) if s <= 2.0 else (2.05 - s, True)

    wrapped, calls = recorded(value)
    root = bisect_bracket(wrapped, 1.0, 4.0, True, 1e-12)
    assert calls[0] == 2.0
    assert root == pytest.approx(2.05, rel=1e-12)


def classifier(fn, is_settled):
    """A recording classifier (v, exact, settled) and its list of calls."""
    calls = []

    def value(s):
        calls.append(s)
        return fn(s), True, is_settled(s)

    return value, calls


def settled(r):
    return r[2]


def test_settled_walk_yields_the_plain_walks_brackets_bit_for_bit():
    # roots at 0.02 and 20: the heights below 1e-2 and above 1e2 are positive
    for start, stop, is_settled in ((1e-9, 7e2, lambda s: s < 1e-2), (1e9, 1e-3, lambda s: s > 1e2)):
        value, calls = classifier(sign_changes, is_settled)
        plain, plain_calls = recording(sign_changes)
        brackets = list(scan_brackets(value, start, stop, 97, settled=settled))
        assert brackets == list(scan_brackets(plain, start, stop, 97))
        assert len(brackets) == 2
        # settled heights are skipped; every other height is shot, once
        assert len(calls) == len(set(calls)) < len(plain_calls) - 40
        assert set(calls) >= {s for s in plain_calls if not is_settled(s)}
        assert set(calls) <= set(plain_calls)


def test_settled_prefix_costs_one_bisection():
    n = 97
    grid = [float(s) for s in np.geomspace(1e-3, 1e3, n)]
    bound = math.ceil(math.log2(n)) + 2
    for k in range(n - 4):
        # grid[: k + 1] is settled; g unsettled negative heights follow it
        for g in (0, 3):
            value, calls = classifier(lambda s: -1.0 if s <= grid[k + g] else 1.0, lambda s: s <= grid[k])
            walk = scan_brackets(value, grid[0], grid[-1], n, settled=settled)
            assert next(walk) == (grid[k + g], grid[k + g + 1], False)
            assert len(calls) <= bound + g
            assert next(walk, None) is None
            assert len(calls) == len(set(calls))


def test_unsettled_first_height_walks_the_plain_grid():
    # settled only away from the start: no prefix to skip
    for start, stop in ((1e-3, 7e2), (7e2, 1e-3)):
        value, calls = classifier(sign_changes, lambda s: 1.0 < s < 2.0)
        plain, plain_calls = recording(sign_changes)
        assert list(scan_brackets(value, start, stop, 33, settled=settled)) == list(scan_brackets(plain, start, stop, 33))
        assert calls == plain_calls


def test_fully_settled_grid_yields_no_bracket():
    for start, stop in ((1e-3, 7e2), (7e2, 1e-3)):
        value, calls = classifier(lambda s: -1.0, lambda s: True)
        assert list(scan_brackets(value, start, stop, 97, settled=settled)) == []
        assert len(calls) <= math.ceil(math.log2(97)) + 1


def test_bisect_midpoint_of_heights_whose_product_underflows():
    # below about 1e-154 lo * hi underflows to 0; the geometric midpoint must not
    calls = []

    def value(s):
        calls.append(s)
        return math.log(s / 1e-200), True

    root = bisect_bracket(value, 1e-210, 1e-190, False, 1e-12)
    assert calls[0] == pytest.approx(1e-200, rel=1e-12)
    assert root == pytest.approx(1e-200, rel=1e-11)


def test_bisect_midpoint_of_heights_whose_product_overflows():
    # above about 1e154 lo * hi overflows to inf; the geometric midpoint must not
    calls = []

    def value(s):
        calls.append(s)
        return (0.0, False) if s < 1e200 else (math.log(s / 1e200), True)

    root = bisect_bracket(value, 1e190, 1e210, True, 1e-12)
    assert calls[0] == pytest.approx(1e200, rel=1e-12)
    assert root == pytest.approx(1e200, rel=1e-11)


def test_log_height_coarser_than_the_bracket_falls_back_to_bisection():
    # near 1e-300 one step of log height is 1.1e-13 relative, so the ends
    # of a bracket 1e-13 wide share one log height and give brentq nothing
    # to refine: the refinement bisects to the collapse instead, inside the
    # bracket and never at one height twice
    lo, hi = 1e-300, 1e-300 * (1.0 + 1e-13)
    mid = math.sqrt(lo) * math.sqrt(hi)

    def step(s):
        return (s - mid) / mid + (5e-8 if s > mid else -5e-8)

    value, calls = recorded(exact(step))
    root = bisect_bracket(value, lo, hi, False, 1e-10)
    assert root is not None and abs(root - mid) <= 1e-14 * mid
    assert all(lo < s < hi for s in calls)
    assert len(set(calls)) == len(calls) <= 60
