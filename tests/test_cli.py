import copy
import json
import math

import pytest

from curvebif.cli import DEFAULT_PROBLEM, main


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


def test_usage_errors_exit_one(tmp_path):
    assert run_cli(["classify", "--problem", "{not json"]) == 1
    assert run_cli(["solve", "--lambda", "-3"]) == 1
    assert run_cli(["eig", "--problem", "{}", "--problem-file", "x"]) == 1
    assert run_cli(["nonsense"]) == 1
    assert run_cli(["classify", "--lambda", "nan"]) == 1
    assert run_cli(["eig", "--tol", "nan"]) == 1
    assert run_cli(["eig", "--problem", "[1]"]) == 1
    assert run_cli(["minimize", "--lambda", "11", "--starts", "0"]) == 1
    assert run_cli(["minimize", "--n", "16", "--starts", "1"]) == 1  # lambda defaults to 0
    assert run_cli(["verify", "--criteria", "11"]) == 1
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


def test_flags_leave_the_default_problem_alone():
    # --p rewrites the loaded spec before the short ladder is refused
    assert run_cli(["rates", "--p", "2", "--ladder", "1e2,1e3"]) == 1
    assert DEFAULT_PROBLEM["f"]["p"] == 1.0


def test_verify_subset_exit_codes():
    assert run_cli(["verify", "--criteria", "1,2"]) == 0
