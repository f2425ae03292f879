"""Discretized length-plus-potential functional and its minimization.

An independent existence oracle: the graph-length functional

    J(u) = int (sqrt(1 + u'^2) - 1) - lam int a F(u)

is discretized on a uniform grid, steep cells standing in for jumps at
O(h) cost, and minimized by scipy's L-BFGS-B, whose accepted steps never
raise the value.  Cell averages of the weight are exact, so constants
reproduce their functional value to machine precision, and the potential
F is extended evenly so replacing a minimizer by its absolute value never
raises the value.  One evaluation gives the value and the gradient
together: functional_value and functional_gradient are its two halves, and
the descent calls it once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize

__all__ = ["DiscreteBVFunction", "functional_value", "functional_gradient", "minimize", "minimize_multistart"]

_MAX_ITER = 30000  # L-BFGS-B iterations per descent


@dataclass
class DiscreteBVFunction:
    """Nodal values on the uniform grid over [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


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


def _whole(name, count):
    """count as an int, refused with a ValueError naming it unless it is a whole number."""
    if not float(count).is_integer():
        raise ValueError(f"{name} must be a whole number, got {count}")
    return int(count)


def _grid_size(n):
    """n as an int, refused unless it is a whole number of at least 16 cells."""
    n = _whole("n", n)
    if n < 16:
        raise ValueError("grid too coarse (need n >= 16)")
    return n


def _grid_cells(pb, n):
    """(cells, lam * cells) on the n-grid, the weight's and lam's share of every evaluation there."""
    n = _grid_size(n)
    cells = _cell_averages(pb.weight, n)
    return cells, pb.lam * cells


def _evaluate(pb, v, cells, lam_cells):
    """(J(v), grad J(v)) from one sweep over the grid, with cells and lam_cells from _grid_cells.

    One diff and one square root serve the length and its gradient
    w = d / r, and one pass over f's law gives f(v) and F(v).  A value that
    is not finite is refused, so no gradient is returned without a finite
    value.
    """
    h = 1.0 / (len(v) - 1)
    d = np.diff(v)
    r = np.sqrt(h * h + d ** 2)
    fv, Fv = pb.f.value_and_potential(v)
    out = float((r - h).sum()) - pb.lam * float((cells * Fv).sum())
    if not math.isfinite(out):
        raise ValueError("functional value is not finite; check weight and nonlinearity")
    w = d / r
    g = np.zeros(len(v))
    g[:-1] -= w
    g[1:] += w
    g -= lam_cells * fv  # dF/du is the odd extension of f
    return out, g


def functional_value(pb, u):
    """Discrete J(u): graph length over the grid minus the weighted potential."""
    v = _as_values(u)
    return _evaluate(pb, v, *_grid_cells(pb, len(v) - 1))[0]


def functional_gradient(pb, u):
    """The gradient of functional_value in the nodal values, refused wherever the value is."""
    v = _as_values(u)
    return _evaluate(pb, v, *_grid_cells(pb, len(v) - 1))[1]


def _stop_reason(res):
    """How an L-BFGS-B run ended: "gradient-tolerance", "value-change", "iteration-cap" or "abnormal".

    Read from its status, and from its message only to tell the two
    convergence tests apart (scipy words them differently across releases).
    """
    if res.status == 0:
        return "gradient-tolerance" if "GRAD" in res.message.upper() else "value-change"
    # maxfun never binds before maxiter (see minimize)
    return "iteration-cap" if res.status == 1 else "abnormal"


def minimize(pb, init=None, n=240):
    """L-BFGS-B descent to a stationary point; returns (|u|, value, info).

    scipy's L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) accepts only steps
    that satisfy its sufficient-decrease line search, so the history of
    accepted values never increases.  Iteration stops on max |g| <= 1e-9, on
    a relative value change of at most 1e-15 in one step, or after _MAX_ITER
    iterations; info's "stop" names which ("gradient-tolerance",
    "value-change" or "iteration-cap", else "abnormal", a line search that
    could not go on), and "max_grad" is max |g| at the final iterate.  Each
    point the search visits costs one evaluation, which gives the value and
    the gradient from one sweep over the grid.  The absolute value of the
    final iterate is returned, which cannot raise the discrete functional.
    n is a whole number of at least 16 cells, and an array init must hold
    n + 1 values.
    """
    n = _grid_size(n)
    v = np.zeros(n + 1) if init is None else _as_values(init, n)
    if v.shape != (n + 1,):
        raise ValueError(f"init has shape {v.shape}; a grid of n = {n} needs {n + 1} values")
    history = [functional_value(pb, v)]
    cells, lam_cells = _grid_cells(pb, n)

    def record(intermediate_result):
        history.append(float(intermediate_result.fun))

    res = optimize.minimize(
        # _evaluate is looked up per call, so a wrapper on the module attribute sees every evaluation
        lambda x: _evaluate(pb, x, cells, lam_cells),
        v,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        # an iteration runs at most two line searches of 20 evaluations, so
        # maxfun never stops a run before _MAX_ITER does
        options={"maxiter": _MAX_ITER, "maxfun": 40 * _MAX_ITER + 1, "ftol": 1e-15, "gtol": 1e-9},
    )
    v = np.abs(res.x)
    fval = functional_value(pb, v)
    info = {
        "iterations": int(res.nit),
        "history": history,
        "stop": _stop_reason(res),
        "max_grad": float(np.max(np.abs(res.jac))),
    }
    return DiscreteBVFunction(v), fval, info


def minimize_multistart(pb, n=240, starts=6):
    """Deterministic multi-start minimization of starts >= 1 runs; returns them sorted by value.

    n and starts are whole numbers, n of at least 16 cells.
    """
    n = _grid_size(n)
    starts = _whole("starts", starts)
    if starts < 1:
        raise ValueError(f"need at least 1 start, got {starts}")
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

