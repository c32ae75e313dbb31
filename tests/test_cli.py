import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import symcone as sc
from symcone import cli, suites
from symcone.cli import main
from symcone.rng import SplitMix64


@pytest.fixture
def instance(tmp_path):
    data = {
        "algebra": {"kind": "orthant", "param": 2},
        "elements": {"x": [1, 2], "y": [2, 1], "boundary": [1, 0]},
        "maps": {
            "g": [{"type": "quad", "payload": [2, 3]}],
            "id": [],
        },
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def sym_instance(tmp_path):
    data = {
        "algebra": {"kind": "sym", "param": 2},
        "elements": {"e": [[1, 0], [0, 1]]},
        "maps": {
            "t": [{"type": "congruence", "payload": [[2, 0], [0, 3]]}],
            "w": [{"type": "scalar", "payload": 2.0}],
        },
    }
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_report(capsys, instance):
    code, out, _ = run(capsys, "metric", instance, "x", "y")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["distance"] - math.log(4.0)) <= 1e-12
    assert rep["lambda_max"] == 2.0
    assert rep["version"] == sc.__version__
    assert len(rep["inputs_hash"]) == 64
    assert rep["command"] == "metric"
    # 16+ significant digits survive the JSON round trip
    assert json.loads(json.dumps(rep["distance"])) == rep["distance"]


def test_metric_same_element(capsys, instance):
    code, out, _ = run(capsys, "metric", instance, "x", "x")
    assert code == 0
    assert json.loads(out)["distance"] <= 1e-15


def test_metric_boundary_exit_3(capsys, instance):
    code, _, err = run(capsys, "metric", instance, "x", "boundary")
    assert code == 3
    assert "boundary" in err


def test_metric_unknown_name(capsys, instance):
    code, _, err = run(capsys, "metric", instance, "x", "nope")
    assert code == 2
    assert "nope" in err


def test_metric_rerun_bit_identical(capsys, instance):
    _, out1, _ = run(capsys, "metric", instance, "x", "y")
    _, out2, _ = run(capsys, "metric", instance, "x", "y")
    assert out1 == out2


# ---------------------------------------------------------------------------
# solve / bushell
# ---------------------------------------------------------------------------

def test_solve_identity(capsys, instance):
    code, out, _ = run(capsys, "solve", instance, "id", "--p", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["converged"] is True
    assert rep["iterations"] <= 2
    np.testing.assert_allclose(rep["solution"], [1, 1], atol=1e-12)
    assert isinstance(rep["distance_trace"], list)


def test_solve_quad_map(capsys, instance):
    code, out, _ = run(capsys, "solve", instance, "g", "--p", "2")
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(rep["solution"], [4, 9], rtol=1e-10)
    assert rep["residual"] <= 1e-10


def test_solve_rejects_small_p(capsys, instance):
    code, _, err = run(capsys, "solve", instance, "g", "--p", "0.5")
    assert code == 5
    assert "|p| > 1" in err


@pytest.mark.parametrize("flag, value", [
    ("--p", "inf"), ("--p", "-inf"), ("--tol", "inf")])
def test_solve_non_finite_option_exit_2(capsys, instance, flag, value):
    code, out, err = run(capsys, "solve", instance, "g", "--p", "2", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_solve_nonconvergence_exit_4(capsys, instance):
    code, out, err = run(capsys, "solve", instance, "g", "--p", "2",
                         "--max-iter", "1")
    assert code == 4
    rep = json.loads(out)
    assert rep["converged"] is False
    assert len(rep["distance_trace"]) == 1


def test_solve_with_initial(capsys, instance):
    code, out, _ = run(capsys, "solve", instance, "g", "--p", "2",
                       "--initial", "y")
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["solution"], [4, 9], rtol=1e-8)


def test_bushell(capsys, sym_instance):
    code, out, _ = run(capsys, "bushell", sym_instance, "t", "--k", "1",
                       "--tol", "1e-14")
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(rep["solution"], [[4, 0], [0, 9]], atol=1e-12)
    assert rep["residual"] <= 1e-10
    assert rep["p"] == 4.0 or rep["p"] == 2.0  # k=1 -> p=2


@pytest.mark.parametrize("payload, code", [
    (0.2 * np.eye(20), 0),
    (np.zeros((20, 20)), 2),
    (np.outer(np.arange(1.0, 21.0), np.ones(20)), 2),
])
def test_bushell_singularity_exit_codes(capsys, tmp_path, payload, code):
    path = tmp_path / "bushell.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "sym", "param": 20},
        "maps": {"t": [{"type": "congruence", "payload": payload.tolist()}]}}))
    got, out, err = run(capsys, "bushell", str(path), "t", "--k", "1")
    assert got == code
    if code == 0:
        np.testing.assert_allclose(json.loads(out)["solution"], 0.04 * np.eye(20),
                                   rtol=1e-12, atol=1e-14)
    else:
        assert out == "" and "singular" in err


@pytest.mark.parametrize("k, code, message", [
    ("200", 4, "over- or underflows"), ("1024", 2, "2^k")])
def test_bushell_huge_k_exit_codes(capsys, tmp_path, k, code, message):
    # Both gave no documented failure: k = 200 exited 0 with the zero
    # matrix as its solution, k = 1024 ended in an OverflowError traceback.
    path = tmp_path / "bushell.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "sym", "param": 2},
        "maps": {"t": [{"type": "congruence", "payload": [[1.2, 0.1], [0.0, 0.9]]}]}}))
    got, out, err = run(capsys, "bushell", str(path), "t", "--k", k)
    assert got == code
    assert out == ""
    assert message in err


def test_bushell_requires_single_congruence(capsys, sym_instance):
    code, _, err = run(capsys, "bushell", sym_instance, "w")
    assert code == 2
    assert "congruence" in err


# ---------------------------------------------------------------------------
# parse errors
# ---------------------------------------------------------------------------

def test_bad_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "metric", str(path), "x", "y")
    assert code == 2


def test_unknown_top_level_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 2},
        "elements": {"x": [1, 2]},
        "extra": 1,
    }))
    code, _, err = run(capsys, "metric", str(path), "x", "x")
    assert code == 2
    assert "extra" in err


def test_wrong_element_length(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 2},
        "elements": {"x": [1, 2, 3]},
    }))
    code, _, err = run(capsys, "metric", str(path), "x", "x")
    assert code == 2


def test_asymmetric_matrix_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "sym", "param": 2},
        "elements": {"x": [[1, 2], [2.1, 1]]},
    }))
    code, _, err = run(capsys, "metric", str(path), "x", "x")
    assert code == 2


def test_corrupted_word_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 3},
        "maps": {"w": [{"type": "scalar", "payload": -2.0}]},
    }))
    code, _, err = run(capsys, "check", "isometry", "--algebra", "orthant:3",
                       "--samples", "10", "--seed", "1",
                       "--instance", str(path), "--map", "w")
    assert code == 2


def test_unknown_generator_type(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 2},
        "maps": {"w": [{"type": "rotation", "payload": 1.0}]},
    }))
    code, _, err = run(capsys, "solve", str(path), "w", "--p", "2")
    assert code == 2


def test_unknown_keys_in_nested_objects(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 2, "note": "hi"},
    }))
    code, _, err = run(capsys, "metric", str(path), "x", "y")
    assert code == 2 and "note" in err
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 2},
        "maps": {"w": [{"type": "scalar", "payload": 1.0, "why": 0}]},
    }))
    code, _, err = run(capsys, "solve", str(path), "w", "--p", "2")
    assert code == 2 and "why" in err


def test_non_string_algebra_kind_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": {"kind": ["sym"], "param": 2}}))
    code, _, err = run(capsys, "metric", str(path), "x", "y")
    assert code == 2
    assert "unknown algebra kind" in err


@pytest.mark.parametrize("command, payload", [
    (("metric", "x", "x"), {"elements": {"x": [[math.nan, 0], [0, 1]]}}),
    (("bushell", "t"),
     {"maps": {"t": [{"type": "congruence", "payload": [[math.nan, 0], [0, 1]]}]}}),
    (("solve", "t", "--p", "2"),
     {"maps": {"t": [{"type": "congruence", "payload": [[math.inf, 0], [0, 1]]}]}}),
])
def test_non_finite_input_exit_2(capsys, tmp_path, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": {"kind": "sym", "param": 2}, **payload}))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert "finite" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passing_suite(capsys):
    code, out, _ = run(capsys, "check", "axioms", "--algebra", "sym:3",
                       "--samples", "40", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["counterexample"] is None
    assert {c["name"] for c in rep["checks"]} >= {
        "metric_symmetry", "metric_triangle", "metric_projectivity"}


def test_check_contraction(capsys):
    code, out, _ = run(capsys, "check", "contraction", "--algebra", "orthant:4",
                       "--samples", "100", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    for c in rep["checks"]:
        assert c["worst_slack"] <= 1e-9


def test_check_isometry_with_user_word(capsys, sym_instance):
    code, out, _ = run(capsys, "check", "isometry", "--algebra", "sym:2",
                       "--samples", "20", "--seed", "5",
                       "--instance", sym_instance, "--map", "t")
    assert code == 0
    rep = json.loads(out)
    assert any("congruence" in c["name"] for c in rep["checks"])


@pytest.mark.parametrize("extra, message", [
    # Each was ignored, exit 0, with the unused flags echoed in the report.
    (("isometry", "--map", "t"), "together"),
    (("isometry", "--instance", "{path}"), "together"),
    (("oracle", "--instance", "{path}", "--map", "nosuch"), "isometry suite only"),
])
def test_check_instance_and_map_only_together_on_isometry(capsys, sym_instance,
                                                          extra, message):
    argv = [a.format(path=sym_instance) for a in extra]
    code, out, err = run(capsys, "check", *argv, "--algebra", "sym:2",
                         "--samples", "5", "--seed", "5")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("seed", ["1736065177", "1811472829"])
def test_check_isometry_sym6_regressions(capsys, seed):
    # Both exited 6 while a sym distance went through y^{-1/2} and P(a)x:
    # on an ill-conditioned word the isometry gap reached 1.5e-8 and 3.0e-8,
    # above its 1e-8 bound.  Through the Cholesky congruence it is 2.1e-9
    # and 3.8e-9.
    code, out, _ = run(capsys, "check", "isometry", "--algebra", "sym:6",
                       "--samples", "10", "--seed", seed)
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_check_without_samples_exit_2(capsys, suite, samples):
    # axioms, bounds and oracle passed with nothing checked.
    with pytest.raises(ValueError, match="samples"):
        suites.SUITES[suite](sc.orthant(3), samples, 1)
    code, out, err = run(capsys, "check", suite, "--algebra", "orthant:3",
                         "--samples", str(samples), "--seed", "1")
    assert code == 2
    assert out == ""
    assert "samples must be >= 1" in err


def test_check_failure_exit_6(capsys, monkeypatch):
    def failing_suite(descriptor, samples, seed):
        res = suites.SuiteResult("bounds", descriptor, samples, seed)
        check = suites.CheckResult("rigged", 1e-9)
        check.update(1.0, {"x": [1.0, 2.0]})
        res.checks.append(check)
        return res

    monkeypatch.setitem(suites.SUITES, "bounds", failing_suite)
    code, out, _ = run(capsys, "check", "bounds", "--algebra", "orthant:2",
                       "--samples", "5", "--seed", "1")
    assert code == 6
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["counterexample"]["inputs"] == {"x": [1.0, 2.0]}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_element_deterministic_and_interior(capsys):
    code, out1, _ = run(capsys, "gen", "--algebra", "orthant:3", "--what",
                        "element", "--seed", "1")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--algebra", "orthant:3", "--what",
                        "element", "--seed", "1")
    assert out1 == out2
    frag = json.loads(out1)
    descriptor = cli.parse_algebra_obj(frag["algebra"])
    x = cli.element_from_json(descriptor, frag["elements"]["gen0"], "gen0")
    assert sc.lambda_min(x) > 1e-6


@pytest.mark.parametrize("flag", ["orthant:4", "sym:3", "spin:5"])
def test_gen_element_interior_all_kinds(capsys, flag):
    for seed in (1, 2, 3):
        code, out, _ = run(capsys, "gen", "--algebra", flag, "--what",
                           "element", "--seed", str(seed))
        assert code == 0
        frag = json.loads(out)
        descriptor = cli.parse_algebra_obj(frag["algebra"])
        x = cli.element_from_json(descriptor, frag["elements"]["gen0"], "gen0")
        assert sc.lambda_min(x) > 1e-6


def test_gen_map_is_isometry(capsys):
    code, out, _ = run(capsys, "gen", "--algebra", "sym:3", "--what", "map",
                       "--seed", "9")
    assert code == 0
    frag = json.loads(out)
    descriptor = cli.parse_algebra_obj(frag["algebra"])
    word = cli.word_from_json(descriptor, frag["maps"]["gen0"], "gen0")
    assert len(word.factors) <= 3
    rep = sc.isometry_check(word, 100, 11)
    assert abs(rep.max_ratio - 1.0) <= 1e-8
    assert abs(rep.min_ratio - 1.0) <= 1e-8


def test_gen_roundtrip_bit_exact(capsys):
    code, out, _ = run(capsys, "gen", "--algebra", "spin:6", "--what",
                       "element", "--seed", "123")
    frag = json.loads(out)
    coords = frag["elements"]["gen0"]
    assert json.loads(json.dumps(coords)) == coords
    rng = SplitMix64(123)
    regenerated = sc.random_cone_element(sc.spin_factor(6), rng)
    assert regenerated.coords.tolist() == coords


def test_gen_output_feeds_other_commands(capsys, tmp_path):
    # full pipeline: generated fragments assemble into a working instance
    _, elem_out, _ = run(capsys, "gen", "--algebra", "sym:3", "--what",
                         "element", "--seed", "21")
    _, elem2_out, _ = run(capsys, "gen", "--algebra", "sym:3", "--what",
                          "element", "--seed", "22")
    _, map_out, _ = run(capsys, "gen", "--algebra", "sym:3", "--what", "map",
                        "--seed", "23")
    instance = {
        "algebra": {"kind": "sym", "param": 3},
        "elements": {
            "a": json.loads(elem_out)["elements"]["gen0"],
            "b": json.loads(elem2_out)["elements"]["gen0"],
        },
        "maps": {"g": json.loads(map_out)["maps"]["gen0"]},
    }
    path = tmp_path / "assembled.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run(capsys, "metric", str(path), "a", "b")
    assert code == 0
    assert json.loads(out)["distance"] > 0
    code, out, _ = run(capsys, "solve", str(path), "g", "--p", "3",
                       "--initial", "a")
    assert code == 0
    assert json.loads(out)["converged"] is True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_console_script_runs():
    # The child imports the package this process imported, which pytest may
    # have found through its own pythonpath setting rather than PYTHONPATH.
    src = str(pathlib.Path(sc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "symcone.cli", "gen", "--algebra", "orthant:2",
         "--what", "element", "--seed", "4"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "elements" in json.loads(proc.stdout)


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once per process; each call must still act as
    # the same call in a fresh process.  COLUMNS fixes the help width.
    monkeypatch.setenv("COLUMNS", "80")
    src = str(pathlib.Path(sc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    check = ["check", "bounds", "--algebra", "orthant:3", "--samples", "5", "--seed", "3"]
    calls = [
        (check, 0),
        (["gen", "--algebra", "spin:4", "--what", "map", "--seed", "2"], 0),
        (["check", "axioms", "--algebra", "cube:3", "--samples", "5"], 2),
        (["check", "axioms", "--algebra", "orthant:3", "--samples", "0"], 2),
        (["frobnicate", "--algebra", "orthant:3"], 2),
        (["check", "--help"], 0),
        (check, 0),
    ]
    for argv, code in calls:
        got = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "symcone.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert got == (code, proc.stdout, proc.stderr), argv


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
