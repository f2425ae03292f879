"""Deterministic text emission: JSON, CSV, and standalone SVG plots.

All floats are written with 17 significant digits so identical inputs give
byte-identical files; no plotting library is involved, SVG paths are
emitted directly.  json_text writes a finite 1-D or 2-D float ndarray
(a solution mesh) in one pass, its .tolist() values filled into a
"%.17g" template of the array's shape; an array holding a nan or an
infinity, and every other value, takes the element-by-element path, which
gives the same text.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fmt", "json_text", "csv_text", "svg_plot"]

_WIDTH, _HEIGHT, _MARGIN = 820, 560, 64  # SVG canvas and plot-frame inset, px
_N_TICKS = 5


def fmt(x):
    """17-significant-digit rendering of a float."""
    return "%.17g" % float(x)


def json_text(obj):
    """Deterministic JSON with fixed float formatting and insertion order."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return fmt(v)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2) and np.isfinite(obj).all():
        # fmt's "%.17g" for every element, filled into one template in a single pass
        row = "[" + ",".join(["%.17g"] * obj.shape[-1]) + "]"
        template = row if obj.ndim == 1 else "[" + ",".join([row] * len(obj)) + "]"
        return template % tuple(obj.ravel().tolist())
    if isinstance(obj, dict):
        inner = ",".join(f"{json_text(str(k))}:{json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            else:
                cells.append(fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, _N_TICKS)


def svg_plot(series, *, xlabel="", ylabel="", logx=False, logy=False):
    """Standalone SVG polyline plot.

    series: list of {"x": ..., "y": ..., "dashed": bool}; dashed curves are
    rendered with a dash pattern (the convention for near-singular data).
    """
    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    xs_all, ys_all = [], []
    clean = []
    for s in series:
        # a log axis drops the whole point when its coordinate is not positive (or NaN)
        pair = [(tx(x), ty(y)) for x, y in zip(s["x"], s["y"]) if (x > 0 or not logx) and (y > 0 or not logy)]
        if not pair:
            continue
        clean.append((pair, bool(s.get("dashed", False))))
        xs_all.extend(p[0] for p in pair)
        ys_all.extend(p[1] for p in pair)
    if not xs_all:
        xs_all = ys_all = [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi - x_lo < 1e-300:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-300:
        y_hi = y_lo + 1.0
    width, height, margin = _WIDTH, _HEIGHT, _MARGIN
    iw = width - 2 * margin
    ih = height - 2 * margin

    def px(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * iw

    def py(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{iw}" height="{ih}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for v in _ticks(x_lo, x_hi):
        X = px(v)
        label = f"1e{v:.2f}" if logx else f"{v:.3g}"
        parts.append(f'<line x1="{X:.2f}" y1="{height - margin}" x2="{X:.2f}" y2="{height - margin + 6}" stroke="black"/>')
        parts.append(f'<text x="{X:.2f}" y="{height - margin + 20}" font-size="11" text-anchor="middle">{label}</text>')
    for v in _ticks(y_lo, y_hi):
        Y = py(v)
        label = f"1e{v:.2f}" if logy else f"{v:.3g}"
        parts.append(f'<line x1="{margin - 6}" y1="{Y:.2f}" x2="{margin}" y2="{Y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 9}" y="{Y + 4:.2f}" font-size="11" text-anchor="end">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2:.1f}" y="{height - 18}" font-size="13" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="18" y="{height / 2:.1f}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>'
        )
    for pair, dashed in clean:
        pts = " ".join(f"{px(a):.3f},{py(b):.3f}" for a, b in pair)
        dash = ' stroke-dasharray="7 5"' if dashed else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"{dash}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
