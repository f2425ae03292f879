import copy
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from curvebif.asymptotics import default_ladder
from curvebif.cli import DEFAULT_PROBLEM, _load_problem, _parse_ladder, build_parser, main


def run_cli(args):
    return main(args)


def test_eig_matches_oracle(tmp_path):
    out = tmp_path / "eig.json"
    assert run_cli(["eig", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert set(got) == {"lambda0", "residual", "mesh_size"}

    def g(lam):
        return math.tan(math.sqrt(lam) * 0.4) - math.sqrt(2.0) * math.tanh(math.sqrt(2.0 * lam) * 0.6)

    from scipy.optimize import brentq

    oracle = brentq(g, 1e-9, (math.pi / 2) ** 2 / 0.16 * (1 - 1e-12), xtol=1e-14)
    assert abs(got["lambda0"] - oracle) / oracle < 1e-6


MILD_PROBLEM = copy.deepcopy(DEFAULT_PROBLEM)
MILD_PROBLEM["f"] = {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": 0.05}


@pytest.mark.parametrize(
    "argv",
    # about 2 lambda0 of the default problem: at its default lambda = 0 no start descends;
    # solve uses the mild bump, whose one solution stores a mesh (the default problem has none)
    [
        ["eig"],
        ["minimize", "--n", "120", "--starts", "3", "--lambda", "11"],
        ["solve", "--lambda", "11", "--problem", json.dumps(MILD_PROBLEM)],
        ["singular", "--lambda", "50"],
    ],
    ids=["eig", "minimize", "solve", "singular"],
)
def test_determinism_byte_identical(tmp_path, argv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(argv + ["--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_power_weight(tmp_path):
    problem = json.dumps(
        {
            "weight": {
                "z": 0.4,
                "segments": [
                    {"interval": [0.0, 0.4], "form": {"kind": "power", "amplitude": 1.0, "exponent": 1.0}},
                    {"interval": [0.4, 1.0], "form": {"kind": "power", "amplitude": 2.0, "exponent": 1.0}},
                ],
            },
            "f": {"kind": "prototype", "p": 1.0, "q": 0.5, "M": 1.0},
        }
    )
    out = tmp_path / "verdict.json"
    assert run_cli(["classify", "--problem", problem, "--lambda", "50", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["verdict"] == "RegularByCriterion"
    assert got["i_left"]["finite"] is False


def test_solve_emits_solutions(tmp_path, lam0_jump):
    out = tmp_path / "sols.json"
    problem = json.dumps(
        {
            "weight": {
                "z": 0.4,
                "segments": [
                    {"interval": [0.0, 0.4], "form": {"kind": "constant", "c": 1.0}},
                    {"interval": [0.4, 1.0], "form": {"kind": "constant", "c": -2.0}},
                ],
            },
            "f": {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": 0.05},
        }
    )
    code = run_cli(
        ["solve", "--problem", problem, "--lambda", str(2 * lam0_jump), "--scan", "1e-6", "1e3", "64", "--out", str(out)]
    )
    assert code == 0
    sols = json.loads(out.read_text())
    assert len(sols) == 1
    assert sols[0]["kind"] == "regular"
    assert sols[0]["residual"] <= 1e-5
    assert len(sols[0]["mesh"]) <= 2001  # emitted meshes are thinned


def test_classify_refuses_a_weight_that_dips_below_zero(capsys):
    # the left poly segment is < 0 on (0.2006, 0.2026), so a has no sign split
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    spec["weight"]["segments"][0]["form"] = {"kind": "poly", "coeffs": [0.04062644140625, -0.403125, 1.0]}
    assert run_cli(["classify", "--problem", json.dumps(spec), "--lambda", "50"]) == 1
    assert "sign-split" in capsys.readouterr().err


def test_singular_subcommand(tmp_path):
    out = tmp_path / "sing.json"
    assert run_cli(["singular", "--lambda", "50", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["kind"] == "singular"
    assert got["jump"] > 0


def test_singular_refusal_payload(tmp_path):
    out = tmp_path / "sing.json"
    assert run_cli(["singular", "--lambda", "0.3", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["absent"] == "smallness"


def test_minimize_subcommand(tmp_path, lam0_jump):
    out = tmp_path / "min.json"
    problem = json.dumps(
        {
            "weight": {
                "z": 0.4,
                "segments": [
                    {"interval": [0.0, 0.4], "form": {"kind": "constant", "c": 1.0}},
                    {"interval": [0.4, 1.0], "form": {"kind": "constant", "c": -2.0}},
                ],
            },
            "f": {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": 0.05},
        }
    )
    code = run_cli(["minimize", "--problem", problem, "--lambda", str(2 * lam0_jump), "--n", "120", "--starts", "3", "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())
    assert got["value"] < 0
    assert len(got["minimizer"]) == 121
    # the best run's stop reason and final max |g|
    assert got["stop"] == "value-change" and 0.0 < got["max_grad"] < 1e-3


def test_minimize_says_why_each_start_stopped(tmp_path, monkeypatch, lam0_jump):
    # every start carries its own run's stop reason and final max |g|: with
    # the iteration cap at a few steps, runs stop on it (the zero start sits
    # on a critical point and stops on the gradient at once)
    from curvebif import varmin

    monkeypatch.setattr(varmin, "_MAX_ITER", 3)
    out = tmp_path / "min.json"
    argv = ["minimize", "--lambda", str(2 * lam0_jump), "--n", "40", "--starts", "3", "--out", str(out)]
    assert run_cli(argv) == 0
    got = json.loads(out.read_text())
    stops = [s["stop"] for s in got["starts"]]
    assert "iteration-cap" in stops
    assert set(stops) <= {"gradient-tolerance", "value-change", "iteration-cap", "abnormal"}
    assert all(s["max_grad"] >= 0.0 for s in got["starts"])
    assert got["starts"][0]["stop"] == got["stop"] and got["starts"][0]["max_grad"] == got["max_grad"]


def test_minimize_flags_a_best_run_that_did_not_converge(tmp_path, monkeypatch, capsys, lam0_jump):
    # a best run cut by the iteration cap is flagged on stderr, not ranked
    # silently; stdout is the payload that --out writes, and nothing else
    from curvebif import varmin

    argv = ["minimize", "--lambda", str(2 * lam0_jump), "--n", "40", "--starts", "3"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(varmin, "_MAX_ITER", 3)
    assert run_cli(argv) == 0
    capped = capsys.readouterr()
    got = json.loads(capped.out)
    assert got["stop"] == "iteration-cap"
    assert capped.err == f"curvebif: the best run stopped on iteration-cap, at max |g| = {got['max_grad']:.3g}\n"
    out = tmp_path / "min.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert out.read_text() == capped.out
    assert capsys.readouterr() == ("", capped.err)


def test_branch_and_diagram_roundtrip(tmp_path):
    problem = json.dumps(
        {
            "weight": {
                "z": 0.4,
                "segments": [
                    {"interval": [0.0, 0.4], "form": {"kind": "power", "amplitude": 1.0, "exponent": 1.0}},
                    {"interval": [0.4, 1.0], "form": {"kind": "power", "amplitude": 2.0, "exponent": 1.0}},
                ],
            },
            "f": {"kind": "smoothed", "p": 1.0, "q": 0.5, "M": 0.002},
        }
    )
    csv = tmp_path / "branch.csv"
    svg = tmp_path / "branch.svg"
    code = run_cli(
        ["branch", "--problem", problem, "--seed", "lambda0", "--max-points", "25",
         "--lambda-max", "100", "--out", str(csv), "--svg", str(svg)]
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "lambda,sup_norm,kind"
    assert len(lines) > 10
    assert svg.read_text().startswith("<svg")

    merged = tmp_path / "merged.csv"
    msvg = tmp_path / "merged.svg"
    assert run_cli(["diagram", "--in", str(csv), str(csv), "--out", str(merged), "--svg", str(msvg)]) == 0
    assert len(merged.read_text().strip().splitlines()) == 2 * (len(lines) - 1) + 1


def test_branch_seeds_a_table_head_at_lam0_over_c(tmp_path):
    # this table f is 2 u below its first node, so the branch leaves at lam0 / 2
    problem = copy.deepcopy(DEFAULT_PROBLEM)
    problem["f"] = {"kind": "table", "p": 1.0, "q": 0.5, "M": 1.0, "u": [0.5, 1.0, 2.0], "f": [1.0, 1.5, 1.2]}
    csv = tmp_path / "branch.csv"
    code = run_cli(["branch", "--problem", json.dumps(problem), "--max-points", "5", "--out", str(csv)])
    assert code == 0
    first = csv.read_text().splitlines()[1].split(",")
    assert float(first[0]) == pytest.approx(2.7468708, rel=1e-7)


def test_diagram_svg_draws_each_input_as_its_own_branch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("lambda,sup_norm,kind\n1,1,regular\n2,2,regular\n3,3,near-singular\n")
    b.write_text("lambda,sup_norm,kind\n10,0.5,regular\n11,0.4,regular\n")
    merged, svg = tmp_path / "merged.csv", tmp_path / "merged.svg"
    assert run_cli(["diagram", "--in", str(a), str(b), "--out", str(merged), "--svg", str(svg)]) == 0
    rows = [line.split(",") for line in merged.read_text().strip().splitlines()[1:]]
    assert [(float(lam), float(sup), kind) for lam, sup, kind in rows] == [
        (1, 1, "regular"), (2, 2, "regular"), (3, 3, "near-singular"), (10, 0.5, "regular"), (11, 0.4, "regular")
    ]
    text = svg.read_text()
    width = float(text.split('width="', 1)[1].split('"', 1)[0])
    lines = [
        ([tuple(map(float, p.split(","))) for p in line.split('points="', 1)[1].split('"', 1)[0].split()],
         "stroke-dasharray" in line)
        for line in text.splitlines()
        if line.startswith("<polyline")
    ]
    assert [(len(pts), dashed) for pts, dashed in lines] == [(2, False), (2, True), (2, False)]
    # lambda spans [1, 11], so a's points sit left of the middle and b's right of it
    for pts, _ in lines:
        assert len({x < width / 2 for x, _ in pts}) == 1
    (solid, _), (dashed, _), _ = lines
    assert dashed[0] == solid[-1]  # the dashed run starts on the last regular point


def test_diagram_log_y_drops_a_zero_sup_norm(tmp_path):
    csv = tmp_path / "a.csv"
    csv.write_text("lambda,sup_norm,kind\n1,0,regular\n2,2,regular\n3,3,regular\n")
    svg = tmp_path / "a.svg"
    assert run_cli(["diagram", "--in", str(csv), "--out", str(tmp_path / "m.csv"), "--svg", str(svg), "--log-y"]) == 0
    (line,) = [line for line in svg.read_text().splitlines() if line.startswith("<polyline")]
    assert len(line.split('points="', 1)[1].split('"', 1)[0].split()) == 2


def test_branch_rejects_a_bad_step(capsys):
    assert run_cli(["branch", "--step", "0"]) == 1
    assert "step must be positive and finite" in capsys.readouterr().err


def test_branch_origin_seed_rides_the_trivial_line(tmp_path):
    csv = tmp_path / "origin.csv"
    code = run_cli(["branch", "--seed", "origin", "--max-points", "15", "--out", str(csv)])
    assert code == 0
    rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
    assert all(abs(float(r[0])) <= 1e-8 for r in rows)
    sups = [float(r[1]) for r in rows]
    assert sups == sorted(sups)


def test_branch_large_lambda_seed(tmp_path):
    problem = json.dumps(
        {
            "weight": {
                "z": 0.4,
                "segments": [
                    {"interval": [0.0, 0.4], "form": {"kind": "constant", "c": 1.0}},
                    {"interval": [0.4, 1.0], "form": {"kind": "constant", "c": -2.0}},
                ],
            },
            "f": {"kind": "prototype", "p": 2.0, "q": 0.5, "M": 1.0},
        }
    )
    csv = tmp_path / "large.csv"
    code = run_cli(
        ["branch", "--problem", problem, "--seed", "large-lambda", "--lambda-max", "200",
         "--max-points", "8", "--out", str(csv)]
    )
    assert code == 0
    rows = csv.read_text().strip().splitlines()[1:]
    assert len(rows) >= 2
    lams = [float(r.split(",")[0]) for r in rows]
    assert lams[0] == 200.0
    assert lams[-1] < lams[0]  # traced toward smaller parameters


def test_branch_large_lambda_seed_starts_from_the_height_at_zero(tmp_path):
    # a < 0 left of the node makes u increase, so the sup norm is u(1), not
    # the height u(0) that trace shoots from
    problem = {
        "weight": {
            "z": 0.6,
            "segments": [
                {"interval": [0.0, 0.6], "form": {"kind": "constant", "c": -2.0}},
                {"interval": [0.6, 1.0], "form": {"kind": "constant", "c": 1.0}},
            ],
        },
        "f": {"kind": "prototype", "p": 2.0, "q": 0.5, "M": 1.0},
    }
    csv = tmp_path / "large.csv"
    code = run_cli(
        ["branch", "--problem", json.dumps(problem), "--seed", "large-lambda", "--lambda-max", "200",
         "--max-points", "5", "--out", str(csv)]
    )
    assert code == 0
    rows = csv.read_text().strip().splitlines()[1:]
    assert len(rows) == 5
    assert float(rows[0].split(",")[0]) == 200.0


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli(["classify", "--problem", "{not json"]) == 1
    assert run_cli(["solve", "--lambda", "-3"]) == 1
    assert run_cli(["eig", "--problem", "{}", "--problem-file", "x"]) == 1
    assert run_cli(["nonsense"]) == 1
    assert run_cli(["classify", "--lambda", "nan"]) == 1
    assert run_cli(["eig", "--tol", "nan"]) == 1
    assert run_cli(["eig", "--problem", "[1]"]) == 1
    assert run_cli(["minimize", "--lambda", "11", "--starts", "0"]) == 1
    capsys.readouterr()
    for n in ("-3", "15"):  # below the functional's coarsest grid
        assert run_cli(["minimize", "--lambda", "11", "--n", n]) == 1
        err = capsys.readouterr().err
        assert "need n >= 16" in err and "Traceback" not in err
    assert run_cli(["minimize", "--n", "16", "--starts", "1"]) == 1  # lambda defaults to 0
    assert run_cli(["verify", "--criteria", "11"]) == 1
    capsys.readouterr()
    for n in ("0", "-3"):  # the start point is the first of max_points
        assert run_cli(["branch", "--max-points", n]) == 1
        err = capsys.readouterr().err
        assert f"max_points must be at least 1, got {n}" in err and "Traceback" not in err
    # a nan cap would never stop the trace; +inf is no cap
    assert run_cli(["branch", "--lambda-max", "nan", "--max-points", "3"]) == 1
    err = capsys.readouterr().err
    assert "lam_max must be a number, got nan" in err and "Traceback" not in err
    assert run_cli(["rates", "--ladder", "1e2,1e2,1e2,1e2"]) == 1
    assert "ladder rungs must be distinct" in capsys.readouterr().err
    assert run_cli(["solve", "--scan", "1e-6", "inf", "16"]) == 1
    err = capsys.readouterr().err
    assert "height window" in err and "inf" in err and "Warning" not in err
    for n in ("inf", "16.9"):  # the scan count must be a whole number
        assert run_cli(["solve", "--scan", "1e-6", "1e3", n]) == 1
        err = capsys.readouterr().err
        assert "whole number" in err and n in err and "Traceback" not in err
    reversed_interval = copy.deepcopy(DEFAULT_PROBLEM)
    reversed_interval["weight"]["segments"] = [
        {"interval": ends, "form": {"kind": "constant", "c": c}}
        for ends, c in (([0.0, 0.6], 1.0), ([0.6, 0.4], 1.0), ([0.4, 1.0], -2.0))
    ]
    assert run_cli(["eig", "--problem", json.dumps(reversed_interval)]) == 1
    nan_peak = copy.deepcopy(DEFAULT_PROBLEM)
    nan_peak["f"]["M"] = math.nan
    assert run_cli(["classify", "--lambda", "50", "--problem", json.dumps(nan_peak)]) == 1
    # polynomial coefficients must be a nonempty list: a string is not read digit by digit
    for coeffs in ("12", []):
        poly = copy.deepcopy(DEFAULT_PROBLEM)
        poly["weight"]["segments"][0]["form"] = {"kind": "poly", "coeffs": coeffs}
        for cmd in (["eig"], ["classify", "--lambda", "50"]):
            assert run_cli([*cmd, "--problem", json.dumps(poly)]) == 1
    # numbers must be JSON numbers, not strings
    string_c = copy.deepcopy(DEFAULT_PROBLEM)
    string_c["weight"]["segments"][0]["form"]["c"] = "1"
    assert run_cli(["eig", "--problem", json.dumps(string_c)]) == 1
    string_p = copy.deepcopy(DEFAULT_PROBLEM)
    string_p["f"]["p"] = "1"
    assert run_cli(["classify", "--lambda", "50", "--problem", json.dumps(string_p)]) == 1


def test_a_weight_unbounded_at_the_node_is_refused_by_every_shot(capsys):
    # a = -+k d^(-1/2) is infinite at the node: every command that shoots
    # exits 1 naming the exponent, while classify needs no shot
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    spec["weight"]["segments"] = [
        {"interval": ends, "form": {"kind": "power", "amplitude": k, "exponent": -0.5}}
        for ends, k in (([0.0, 0.4], 1.0), ([0.4, 1.0], 2.0))
    ]
    problem = json.dumps(spec)
    capsys.readouterr()
    for cmd in (["solve", "--lambda", "5"], ["singular", "--lambda", "50"], ["eig"], ["branch", "--max-points", "3"]):
        assert run_cli([*cmd, "--problem", problem]) == 1, cmd
        err = capsys.readouterr().err
        assert "exponent -0.5 < 0" in err and "Traceback" not in err, cmd
    assert run_cli(["classify", "--lambda", "50", "--problem", problem]) == 0


@pytest.mark.parametrize("f", ["x", ["x"]], ids=["string", "list"])
def test_non_object_f_is_a_bad_spec(f, capsys):
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    spec["f"] = f
    for cmd in (["classify", "--lambda", "50"], ["rates", "--p", "2"]):
        assert run_cli([*cmd, "--problem", json.dumps(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("curvebif: bad problem spec: ") and "Traceback" not in err


def test_misspelled_keys_are_a_bad_spec(capsys):
    # "lamda" would run lambda = 0 and "qq" would leave q = 0.5 if unknown keys were ignored
    spec = {"weight": DEFAULT_PROBLEM["weight"], "f": {"kind": "prototype", "qq": 0.3}, "lamda": 50}
    assert run_cli(["classify", "--problem", json.dumps(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("curvebif: bad problem spec: unknown key 'lamda' in the problem") and "Traceback" not in err
    del spec["lamda"]
    assert run_cli(["classify", "--problem", json.dumps(spec)]) == 1
    assert "unknown key 'qq' in f" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["10**400", "0**-1", "-8**0.5", "2**3**4", "inf", "nan", "", "1e2x"])
def test_bad_ladder_tokens_exit_one(token, capsys):
    assert run_cli(["rates", f"--ladder=1e2,{token},1e3,1e4"]) == 1
    err = capsys.readouterr().err
    assert f"ladder token {token!r} is not a finite real number" in err and "Traceback" not in err


def test_rates_defaults_to_the_library_ladder():
    args = build_parser().parse_args(["rates"])
    assert args.ladder == default_ladder() == tuple(_parse_ladder("1e2,10**2.5,1e3,10**3.5,1e4"))


def test_flags_leave_the_default_problem_alone():
    # --p rewrites the loaded spec before the short ladder is refused
    assert run_cli(["rates", "--p", "2", "--ladder", "1e2,1e3"]) == 1
    assert DEFAULT_PROBLEM["f"]["p"] == 1.0


def test_q_flag_overrides_the_problem(capsys):
    assert run_cli(["rates", "--q", "1.5"]) == 1
    assert "q in (0, 1)" in capsys.readouterr().err
    assert DEFAULT_PROBLEM["f"]["q"] == 0.5


def test_problem_file_gives_the_same_bytes_as_inline(tmp_path):
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    spec["weight"]["segments"][1]["form"]["c"] = -3.0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    inline, from_file, default = tmp_path / "inline.json", tmp_path / "file.json", tmp_path / "default.json"
    assert run_cli(["eig", "--problem", json.dumps(spec), "--out", str(inline)]) == 0
    assert run_cli(["eig", "--problem-file", str(path), "--out", str(from_file)]) == 0
    assert run_cli(["eig", "--out", str(default)]) == 0
    assert from_file.read_bytes() == inline.read_bytes() != default.read_bytes()


def test_stdout_gives_the_same_bytes_as_out(tmp_path, capsys):
    out = tmp_path / "eig.json"
    assert run_cli(["eig", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["eig"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_diagram_rejects_a_csv_that_is_not_a_diagram(tmp_path, capsys):
    good, bad, merged = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "merged.csv"
    good.write_text("lambda,sup_norm,kind\n1,1,regular\n")
    bad.write_text("lambda,sup_norm\n1,1\n")
    assert run_cli(["diagram", "--in", str(good), str(bad), "--out", str(merged)]) == 1
    err = capsys.readouterr().err
    assert f"{bad} is not a diagram CSV" in err and "Traceback" not in err
    assert not merged.exists()


@pytest.mark.parametrize("row", ["nan,inf,regular", "2,x,regular", "2,2", "2,2,regular,extra"])
def test_diagram_names_the_file_and_line_of_a_bad_row(tmp_path, capsys, row):
    # a non-finite or non-number value, or a wrong field count
    csv, merged = tmp_path / "a.csv", tmp_path / "merged.csv"
    csv.write_text(f"lambda,sup_norm,kind\n1,1,regular\n{row}\n")
    assert run_cli(["diagram", "--in", str(csv), "--out", str(merged), "--svg", str(tmp_path / "m.svg")]) == 1
    err = capsys.readouterr().err
    assert err == f"curvebif: {csv}, line 3: {row!r} is not a row lambda,sup_norm,kind with finite numbers\n"
    assert not merged.exists()


def test_a_weight_form_without_a_kind_is_a_bad_spec(capsys):
    spec = copy.deepcopy(DEFAULT_PROBLEM)
    del spec["weight"]["segments"][0]["form"]["kind"]
    assert run_cli(["eig", "--problem", json.dumps(spec)]) == 1
    err = capsys.readouterr().err
    assert err == 'curvebif: bad problem spec: a weight form needs a "kind" of constant, poly, power, not None\n'


def test_rates_emits_json_and_svg(tmp_path):
    # the ladder's ** tokens are powers; identical runs give identical bytes
    a, b, svg = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "rates.svg"
    for out in (a, b):
        assert run_cli(["rates", "--ladder", "1e2,10**2.25,10**2.5,10**2.75", "--out", str(out), "--svg", str(svg)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["ladder"] == [1e2, 10.0**2.25, 10.0**2.5, 10.0**2.75]
    assert svg.read_text().startswith("<svg")


def test_singular_refuses_lambda_past_the_float_range(tmp_path, capsys):
    out = tmp_path / "sing.json"
    for lam in ("1e6", "1e200"):
        assert run_cli(["singular", "--lambda", lam, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["absent"] == "float-range"
    assert capsys.readouterr().err == ""


def _readme_commands():
    """The argument lists of the README's "Command line" block, one per curvebif token."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for token in shlex.split(block, comments=True):
        if token == "curvebif":
            commands.append([])
        else:
            commands[-1].append(token)
    return commands


def test_readme_commands_parse_and_load_their_problem():
    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        args = build_parser().parse_args(argv)
        if hasattr(args, "problem"):
            _load_problem(args)


def test_module_entry_point_prints_what_main_prints(capsys):
    import curvebif

    assert run_cli(["eig"]) == 0
    want = capsys.readouterr().out.encode()
    src = str(Path(curvebif.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "curvebif", "eig"], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == want


def test_verify_subset_exit_codes():
    assert run_cli(["verify", "--criteria", "1,2"]) == 0


@pytest.mark.parametrize(
    "value,token",
    [("", ""), ("1,x", "x"), ("1,,2", ""), ("2.0", "2.0")],
    ids=["empty", "letter", "empty-inner", "decimal"],
)
def test_bad_criteria_tokens_exit_one(value, token, monkeypatch, capsys):
    # an empty subset is refused, not read as "all ten criteria"
    from curvebif import acceptance

    calls = []
    monkeypatch.setattr(acceptance, "run_all", lambda subset=None: calls.append(subset) or True)
    assert run_cli(["verify", f"--criteria={value}"]) == 1
    err = capsys.readouterr().err
    assert f"--criteria token {token!r} is not an integer" in err and "Traceback" not in err
    assert calls == []
    assert run_cli(["verify", "--criteria", " 7, 1"]) == 0
    assert calls == [[7, 1]]


def test_project_script_entry_runs_main(capsys):
    # pyproject's [project.scripts] entry resolves to cli.main, which runs eig
    tomllib = pytest.importorskip("tomllib")
    from curvebif import cli

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["curvebif"]
    module, _, attr = entry.partition(":")
    script = getattr(importlib.import_module(module), attr)
    assert script is cli.main
    assert script(["eig"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"lambda0", "residual", "mesh_size"}


def test_failed_criterion_quadrature_exits_one(monkeypatch, capsys):
    from curvebif import quadrature

    def failing(*args, **kwargs):
        return 0.0, 1.0, {}, "The maximum number of subdivisions (200) has been achieved."

    monkeypatch.setattr(quadrature, "quad", failing)
    assert run_cli(["classify", "--lambda", "50"]) == 1
    assert "criterion integral failed" in capsys.readouterr().err
