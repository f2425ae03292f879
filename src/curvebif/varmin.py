"""Discretized length-plus-potential functional and its minimization.

An independent existence oracle: the graph-length functional

    J(u) = int (sqrt(1 + u'^2) - 1) - lam int a F(u)

is discretized on a uniform grid, steep cells standing in for jumps at
O(h) cost, and minimized by scipy's L-BFGS-B, whose accepted steps never
raise the value.  Cell averages of the weight are exact, so constants
reproduce their functional value to machine precision, and the potential
F is extended evenly so replacing a minimizer by its absolute value never
raises the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize

__all__ = ["DiscreteBVFunction", "functional_value", "functional_gradient", "minimize", "minimize_multistart"]


@dataclass
class DiscreteBVFunction:
    """Nodal values on the uniform grid over [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def n(self):
        return len(self.values) - 1

    @property
    def xs(self):
        return np.linspace(0.0, 1.0, len(self.values))

    @property
    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def variation(self):
        return float(np.sum(np.abs(np.diff(self.values))))


# keyed by the weight itself: a Weight hashes by value, and any other weight
# hashes by identity but is kept alive by its entry, so no key can go stale
@lru_cache(maxsize=64)
def _cell_averages(weight, n):
    """Exact integral of a over each nodal cell (half cells at the ends)."""
    h = 1.0 / n
    edges = np.concatenate([[0.0], (np.arange(n) + 0.5) * h, [1.0]])
    ints = np.array([weight.integral(a, b) for a, b in zip(edges[:-1], edges[1:])])
    ints.flags.writeable = False  # shared by every caller with an equal weight
    return ints


def _as_values(u, n=None):
    if isinstance(u, DiscreteBVFunction):
        return u.values
    v = np.asarray(u, dtype=float)
    if v.ndim == 0:
        if n is None:
            raise ValueError("scalar initial guesses need a grid size")
        return np.full(n + 1, float(v))
    return v


def functional_value(pb, u):
    """Discrete J(u): graph length over the grid minus the weighted potential."""
    v = _as_values(u)
    n = len(v) - 1
    if n < 16:
        raise ValueError("grid too coarse (need n >= 16)")
    h = 1.0 / n
    length = float(np.sum(np.sqrt(h * h + np.diff(v) ** 2) - h))
    cells = _cell_averages(pb.weight, n)
    potential = float(np.sum(cells * pb.f.potential(v)))
    out = length - pb.lam * potential
    if not math.isfinite(out):
        raise ValueError("functional value is not finite; check weight and nonlinearity")
    return out


def functional_gradient(pb, u):
    v = _as_values(u)
    n = len(v) - 1
    h = 1.0 / n
    d = np.diff(v)
    w = d / np.sqrt(h * h + d ** 2)
    g = np.zeros_like(v)
    g[:-1] -= w
    g[1:] += w
    cells = _cell_averages(pb.weight, n)
    g -= pb.lam * cells * pb.f(v)  # dF/du is the odd extension of f
    return g


def minimize(pb, init=None, n=240, max_iter=30000):
    """L-BFGS-B descent to a stationary point; returns (|u|, value, info).

    scipy's L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) accepts only steps
    that satisfy its sufficient-decrease line search, so the history of
    accepted values never increases.  Iteration stops on max |g| <= 1e-9, on
    a relative value change of at most 1e-15 in one step, or at max_iter.
    The absolute value of the final iterate is returned, which cannot raise
    the discrete functional.
    """
    v = np.zeros(n + 1) if init is None else _as_values(init, n)
    history = [functional_value(pb, v)]

    def fun(x):
        return functional_value(pb, x), functional_gradient(pb, x)

    def record(intermediate_result):
        history.append(float(intermediate_result.fun))

    res = optimize.minimize(
        fun,
        v,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        # an iteration runs at most two line searches of 20 evaluations, so
        # maxfun never stops a run before max_iter does
        options={"maxiter": max_iter, "maxfun": 40 * max_iter + 1, "ftol": 1e-15, "gtol": 1e-9},
    )
    v = np.abs(res.x)
    fval = functional_value(pb, v)
    return DiscreteBVFunction(v), fval, {"iterations": int(res.nit), "history": history}


def minimize_multistart(pb, n=240, starts=6):
    """Deterministic multi-start minimization; returns runs sorted by value."""
    height_scale = 2.0 * pb.f.M
    rng = np.random.default_rng(0)
    xs = np.linspace(0.0, 1.0, n + 1)
    inits = [
        np.zeros(n + 1),
        np.full(n + 1, 0.5 * height_scale),
        np.full(n + 1, 2.0 * height_scale),
        height_scale * (xs <= pb.weight.z).astype(float),  # step at the node
        height_scale * (1.0 - xs),
        height_scale * np.exp(-8.0 * (xs - pb.weight.z) ** 2),
    ]
    while len(inits) < starts:
        inits.append(height_scale * rng.uniform(0.0, 1.5, n + 1))
    runs = [minimize(pb, init=v, n=n) for v in inits[:starts]]
    runs.sort(key=lambda r: r[1])
    return runs

