import math

from curvebif.util import bisect_bracket, scan_brackets


def exact(fn):
    return lambda s: (fn(s), True)


def test_scan_brackets_skips_heights_without_sign():
    brackets = scan_brackets(exact(lambda s: s - 2.0), 1e-3, 1e3, 16)
    assert len(brackets) == 1
    lo, hi, lo_positive = brackets[0]
    assert lo < 2.0 < hi and not lo_positive
    # a sign change across a height with no sign is not a bracket
    assert scan_brackets(lambda s: (None, False) if 1.0 < s < 4.0 else (s - 2.0, True), 1e-3, 1e3, 16) == []


def test_bisect_accepts_first_midpoint_within_tol():
    root = bisect_bracket(exact(lambda s: s * s - 2.0), 1.0, 3.0, False, 1e-12, 1e-15, 200)
    assert abs(root - math.sqrt(2.0)) <= 1e-12


def test_collapsed_bracket_keeps_best_exact_point():
    # a sign jump of 1e-7 at s = 2: |v| never reaches tol, so the bracket
    # collapses onto the jump and the best exact midpoint is returned
    def step(s):
        return (s - 2.0) + (5e-8 if s > 2.0 else -5e-8)

    root = bisect_bracket(exact(step), 1.0, 3.0, False, 1e-10, 1e-15, 200)
    assert root is not None and abs(root - 2.0) <= 1e-12
    # the same values as surrogates give no point to keep
    assert bisect_bracket(lambda s: (step(s), False), 1.0, 3.0, False, 1e-10, 1e-15, 200) is None
    # a sign change at a pole is not a root
    assert bisect_bracket(exact(lambda s: 1.0 / (s - 2.0)), 1.0, 3.0, False, 1e-10, 1e-15, 200) is None


def test_bisect_gives_up_on_a_midpoint_without_sign():
    calls = []

    def value(s):
        calls.append(s)
        return (None, False) if 1.5 < s < 2.5 else (s - 2.2, True)

    assert bisect_bracket(value, 1.0, 4.0, False, 1e-10, 1e-15, 200) is None
    assert calls == [2.0]
