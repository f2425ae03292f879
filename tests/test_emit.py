import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from curvebif.emit import csv_text, fmt, json_text, svg_plot


def test_float_formatting_is_fixed_width_precision():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert fmt(-2.5e-7) == "-2.4999999999999999e-07"


def test_json_text_shapes():
    blob = json_text({"a": 1, "b": [0.5, None, True], "c": "x\"y"})
    assert blob == '{"a":1,"b":[0.5,null,true],"c":"x\\"y"}'


def test_json_text_handles_arrays_and_nonfinite():
    assert json_text(np.array([1.0, 2.0])) == "[1,2]"
    assert json_text(float("inf")) == '"inf"'
    assert json_text(float("nan")) == '"nan"'


_FLOAT_ARRAYS = arrays(
    dtype=st.sampled_from([np.dtype(np.float64), np.dtype(np.float32)]),
    shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
)


@settings(max_examples=300, deadline=None)
@given(_FLOAT_ARRAYS)
@example(np.array([]))
@example(np.zeros((0, 3)))
@example(np.zeros((3, 0), dtype=np.float32))
@example(np.array([[-0.0, 5e-324, -2.2250738585072014e-308], [1e308, 0.1, -1.5]]))
@example(np.array([1.0, np.nan, -np.inf], dtype=np.float32))
@example(np.array([[np.inf, 0.0], [-0.0, 1e-45]], dtype=np.float32))
def test_json_text_of_a_float_array_equals_its_list(arr):
    # finite arrays take the one-template path, the rest the element path
    assert json_text(arr) == json_text(arr.tolist())


def test_json_is_parseable_back():
    import json

    obj = {"lambda": 5.4937473164087915, "mesh": [[0.0, 1.0, -0.5]], "kind": "regular"}
    assert json.loads(json_text(obj)) == obj


def test_csv_text_roundtrip():
    txt = csv_text(("lambda", "sup_norm", "kind"), [(1.5, 2.0, "regular")])
    assert txt == "lambda,sup_norm,kind\n1.5,2,regular\n"


def test_svg_plot_is_standalone_and_deterministic():
    series = [{"x": [1, 10, 100], "y": [2.0, 4.0, 8.0], "dashed": True}]
    a = svg_plot(series, logx=True, logy=True, xlabel="lam", ylabel="u")
    b = svg_plot(series, logx=True, logy=True, xlabel="lam", ylabel="u")
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "stroke-dasharray" in a
    assert "http://www.w3.org/2000/svg" in a



def _polyline_points(svg):
    (line,) = [line for line in svg.splitlines() if line.startswith("<polyline")]
    return [tuple(map(float, p.split(","))) for p in line.split('points="', 1)[1].split('"', 1)[0].split()]


def test_svg_plot_log_axes_drop_whole_points():
    # x = -1 leaves the log-log plot with its own y, so (10, 1) and (100, 10) remain
    got = _polyline_points(svg_plot([{"x": [-1.0, 10.0, 100.0], "y": [1000.0, 1.0, 10.0]}], logx=True, logy=True))
    want = _polyline_points(svg_plot([{"x": [10.0, 100.0], "y": [1.0, 10.0]}], logx=True, logy=True))
    assert got == want
    assert got[0][1] > got[1][1]  # y rises from 1 to 10: the SVG y coordinate falls

