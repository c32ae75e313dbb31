import json
import math

import numpy as np
import pytest

import symcone as sc
from symcone import cli, metric, suites, transforms
from symcone.cli import main
from symcone.rng import SplitMix64

from conftest import (
    RELATIVE_SPECTRUM_OUT_OF_RANGE,
    REPORT_DIGESTS,
    REPORT_INPUTS,
    assert_report_keeps_its_bits,
    fresh_cli,
)


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


@pytest.mark.parametrize("kind, coords", [
    ("spin", [1.5e308, 1e308, 0.0]),
    ("sym", [[1.5e308, 1e308], [1e308, 1.5e308]]),
])
def test_metric_on_an_element_whose_largest_eigenvalue_overflows_exit_2(capsys, tmp_path,
                                                                       kind, coords):
    # In the cone with finite coordinates: the spin distance warned and
    # exited 3, blaming the identity.
    param = len(coords)
    identity = np.eye(param).tolist() if kind == "sym" else [1.0] + [0.0] * (param - 1)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"algebra": {"kind": kind, "param": param},
                                "elements": {"x": coords, "e": identity}}))
    for names in (("x", "e"), ("e", "x")):
        code, out, err = run(capsys, "metric", str(path), *names)
        assert code == 2
        assert out == ""
        assert "eigenvalue beyond the float range" in err


@pytest.mark.parametrize("case", sorted(RELATIVE_SPECTRUM_OUT_OF_RANGE))
def test_metric_on_a_pair_whose_relative_spectrum_leaves_the_float_range_exit_2(
        capsys, tmp_path, case):
    # The orthant overflow exited 0 and printed "distance": Infinity; the
    # others exited 3, blaming an argument in the cone.
    descriptor, x, y = RELATIVE_SPECTRUM_OUT_OF_RANGE[case]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "algebra": {"kind": descriptor.kind, "param": descriptor.param},
        "elements": {"x": x, "y": y}}))
    code, out, err = run(capsys, "metric", str(path), "x", "y")
    assert code == 2
    assert out == ""
    assert "P(y^(-1/2))x has an eigenvalue beyond the float range" in err
    assert "Infinity" not in err


def test_metric_unknown_name(capsys, instance):
    code, _, err = run(capsys, "metric", instance, "x", "nope")
    assert code == 2
    assert "nope" in err


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


@pytest.mark.parametrize("p", ["2", "-2"])
@pytest.mark.parametrize("kind", ["orthant", "sym", "spin"])
def test_solve_overflowing_map_exit_4(capsys, tmp_path, kind, p):
    # A valid map whose image overflows: 1e300 * 1e300.  It exited 3 with
    # "y is not in the open cone", 1 with a ZeroDivisionError traceback, or
    # 2 with the Jacobi's "needs finite entries".
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "algebra": {"kind": kind, "param": 3},
        "maps": {"g": [{"type": "scalar", "payload": 1e300}] * 2}}))
    code, out, err = run(capsys, "solve", str(path), "g", f"--p={p}")
    assert code == 4
    assert out == ""
    assert "iteration 1: g(x) overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, payload, p", [
    ("orthant", [1.0, 1e-160], "-1.01"),
    ("sym", [[1.0, 0.0], [0.0, 1e-160]], "1.01"),
    ("sym", [[1.0, 0.0], [0.0, 1e-160]], "-1.01"),
])
def test_solve_step_leaving_the_float_range_exit_4(capsys, tmp_path, kind, payload, p):
    # A valid map near |p| = 1 whose step leaves the float range.  The sym
    # solves exited 2, a validation error, with the Jacobi's "needs finite
    # entries"; the orthant one exited 3, blaming y.
    path = tmp_path / "near-one.json"
    path.write_text(json.dumps({
        "algebra": {"kind": kind, "param": 2},
        "maps": {"g": [{"type": "quad", "payload": payload}]}}))
    code, out, err = run(capsys, "solve", str(path), "g", f"--p={p}")
    assert code == 4
    assert out == ""
    assert "iteration 1: " in err
    assert "Traceback" not in err


def test_solve_with_initial(capsys, instance):
    code, out, _ = run(capsys, "solve", instance, "g", "--p", "2",
                       "--initial", "y")
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["solution"], [4, 9], rtol=1e-8)


def test_solve_names_an_initial_point_whose_scaling_underflows(capsys, tmp_path):
    # It exited 3 with "an iterate left the open cone: the supplied map
    # does not preserve it", although the scalar map does.
    data = {
        "algebra": {"kind": "orthant", "param": 3},
        "elements": {"x": [1e308, 1e308, 1e-308]},
        "maps": {"g": [{"type": "scalar", "payload": 2.0}]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", str(path), "g", "--p", "2", "--initial", "x")
    assert code == 3
    assert out == ""
    assert "initial point cannot be scaled to spectral norm 1" in err
    assert "does not preserve it" not in err


def test_solve_names_an_initial_point_whose_largest_eigenvalue_overflows(capsys, tmp_path):
    # Its coordinates are finite, but x0 + ||xbar|| is not: the error said
    # that the least eigenvalue 5e+307 underflows at the scale 1/inf.
    data = {
        "algebra": {"kind": "spin", "param": 3},
        "elements": {"x": [1.5e308, 1e308, 0.0]},
        "maps": {"g": [{"type": "scalar", "payload": 2.0}]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", str(path), "g", "--p", "2", "--initial", "x")
    assert code == 3
    assert out == ""
    assert "its largest eigenvalue overflows the float range" in err
    assert "underflows" not in err


def test_solve_residual_gate_exit_4_with_the_partial_report(capsys, tmp_path):
    # One exact step converges, but the residual 1.160e-16 is above
    # 100 * tol.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"algebra": {"kind": "orthant", "param": 2},
                                "maps": {"g": [{"type": "scalar", "payload": 2.0}]}}))
    code, out, err = run(capsys, "solve", str(path), "g", "--p", "3", "--tol", "1e-19")
    assert code == 4
    assert ("solve did not converge: iteration converged but the residual "
            "1.160e-16 exceeds 1.000e-17") in err
    rep = json.loads(out)
    assert (rep["iterations"], rep["converged"]) == (1, False)
    assert rep["distance_trace"] == [0.0]


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


def test_bushell_solves_a_large_well_conditioned_t(capsys, tmp_path):
    # Exited 2 with "matrix coordinates are not symmetric", from an
    # iterate's t' x t, though kappa(t) = 2.4.
    path = tmp_path / "bushell.json"
    path.write_text(json.dumps(REPORT_INPUTS["bushell.json"]))
    code, out, err = run(capsys, "bushell", str(path), "t")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["converged"] is True and rep["iterations"] == 41


def test_bushell_report_on_a_large_t_keeps_its_bits(capsys, monkeypatch, tmp_path):
    # The t above.
    assert_report_keeps_its_bits("sym:4", "bushell bushell.json t", capsys, monkeypatch,
                                 tmp_path)


def test_bushell_partial_report_carries_k_and_p(capsys, sym_instance):
    code, out, err = run(capsys, "bushell", sym_instance, "t", "--k", "2",
                         "--max-iter", "1")
    assert code == 4 and "bushell did not converge" in err
    rep = json.loads(out)
    assert rep["converged"] is False
    assert (rep["k"], rep["p"]) == (2, 4.0)


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


_O2 = {"kind": "orthant", "param": 2}
_SOLVE = ["solve", "{path}", "g", "--p", "2"]


@pytest.mark.parametrize("data, argv, message", [
    ({"maps": {}}, _SOLVE, "missing key(s) ['algebra']"),
    ({"algebra": []}, _SOLVE, "algebra must be an object"),
    (None, ["check", "axioms", "--algebra", "sym", "--samples", "1"],
     "cannot parse algebra 'sym': expected kind:param"),
    ({"algebra": _O2, "elements": {"x": [10 ** 400, 1]}}, ["metric", "{path}", "x", "x"],
     "elements[x]: coordinates are not numeric"),
    ({"algebra": _O2, "maps": {"g": [5]}}, _SOLVE, "maps[g][0]: generator must be an object"),
    ({"algebra": _O2, "maps": {"g": [{"type": "permutation", "payload": 5}]}}, _SOLVE,
     "maps[g][0]: bad payload"),
    ({"algebra": _O2, "maps": {"g": {}}}, _SOLVE, "maps[g]: a map must be a list"),
    ({"algebra": _O2, "maps": {}}, _SOLVE, "no map named 'g'"),
    (None, _SOLVE, "cannot read"),
    ([], _SOLVE, "top level must be an object"),
    ({"algebra": _O2, "maps": {"t": [{"type": "scalar", "payload": 2.0}]}},
     ["bushell", "{path}", "t"], "bushell needs a sym algebra instance"),
    ({"algebra": _O2, "maps": {"g": []}},
     ["check", "isometry", "--algebra", "orthant:3", "--instance", "{path}", "--map", "g",
      "--samples", "1"], "instance algebra does not match --algebra"),
], ids=["no-algebra", "algebra-list", "algebra-flag-without-param", "huge-integer",
        "generator-not-object", "permutation-payload", "map-not-list", "unknown-map",
        "unreadable-path", "top-level-list", "bushell-on-orthant", "instance-algebra-mismatch"])
def test_malformed_input_exit_2(capsys, tmp_path, data, argv, message):
    # A missing file stands for an unreadable path.
    path = tmp_path / "instance.json"
    if data is not None:
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, *[arg.format(path=path) for arg in argv])
    assert code == 2
    assert out == ""
    assert message in err


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


@pytest.mark.parametrize("key, value", [
    ("elements", [[1, 2]]), ("elements", "x"), ("elements", None),
    ("maps", [[{"type": "scalar", "payload": 2.0}]]), ("maps", 3),
])
def test_elements_and_maps_must_be_objects(capsys, tmp_path, key, value):
    # A list of elements ended metric in an AttributeError traceback.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": {"kind": "orthant", "param": 2}, key: value}))
    command = ("metric", "x", "x") if key == "elements" else ("solve", "w", "--p", "2")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert f"{key} must be an object" in err


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


_COORDS = "coordinates must be JSON numbers"
_SCALAR = "scalar factor must be a positive finite number"
_PERMUTATION = "permutation entries must be integers"


@pytest.mark.parametrize("instance_data, message", [
    ({"elements": {"s": ["1.5", "2"]}}, _COORDS),
    ({"elements": {"s": [True, 2.0]}}, _COORDS),
    ({"elements": {"s": [None, 2.0]}}, _COORDS),
    ({"maps": {"w": [{"type": "scalar", "payload": "2"}]}}, _SCALAR),
    ({"maps": {"w": [{"type": "scalar", "payload": True}]}}, _SCALAR),
    ({"maps": {"w": [{"type": "scalar", "payload": [2.0]}]}}, _SCALAR),
    ({"maps": {"w": [{"type": "quad", "payload": [1.0, "2"]}]}}, _COORDS),
    ({"maps": {"w": [{"type": "permutation", "payload": [1.7, 0.2]}]}}, _PERMUTATION),
    ({"maps": {"w": [{"type": "permutation", "payload": [True, False]}]}}, _PERMUTATION),
    ({"maps": {"w": [{"type": "permutation", "payload": ["1", "0"]}]}}, _PERMUTATION),
    ({"maps": {"w": [{"type": "permutation", "payload": "10"}]}}, _PERMUTATION),
], ids=["string-coords", "bool-coords", "null-coords", "string-scalar", "bool-scalar",
        "list-scalar", "string-quad", "fractional-perm", "bool-perm", "string-perm",
        "string-perm-payload"])
def test_non_number_payloads_exit_2(capsys, tmp_path, instance_data, message):
    # Strings and bools were read as numbers, and [1.7, 0.2] ran as the
    # swap (1, 0); every one of these exited 0.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": {"kind": "orthant", "param": 2},
                                **instance_data}))
    command = ("metric", "s", "s") if "elements" in instance_data else (
        "solve", "w", "--p", "2")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert message in err


def test_integral_float_permutation_entries_are_accepted(capsys, tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "orthant", "param": 2},
        "maps": {"w": [{"type": "permutation", "payload": [1.0, 0]}]}}))
    code, out, _ = run(capsys, "solve", str(path), "w", "--p", "2")
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["solution"], [1.0, 1.0])


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


@pytest.mark.parametrize("param", ["2.5", "true", "1e999", "null", '"3"'])
def test_non_integer_algebra_param_exit_2(capsys, tmp_path, param):
    # 2.5 ran as orthant:2, true as orthant:1 and "3" as orthant:3, and
    # 1e999 (infinity) ended in an OverflowError traceback.
    path = tmp_path / "bad.json"
    path.write_text('{"algebra": {"kind": "orthant", "param": %s}, '
                    '"elements": {"x": [1, 2]}}' % param)
    code, out, err = run(capsys, "metric", str(path), "x", "x")
    assert code == 2
    assert out == ""
    assert "param must be an integer" in err


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


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_suites_take_only_an_integer_sample_count(suite):
    # True ran one sample and reported "samples": true; 2.5 and
    # np.float64(2.0) failed with a raw TypeError from range().
    run_suite = suites.SUITES[suite]
    for samples in (True, False, 2.5, np.float64(2.0), "3", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            run_suite(sc.orthant(3), samples, 1)
    summary = run_suite(sc.orthant(3), np.int64(3), 1).summary()
    assert summary == run_suite(sc.orthant(3), 3, 1).summary()
    assert type(summary["samples"]) is int


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


def test_an_axioms_counterexample_rebuilds_the_drawn_points(capsys, monkeypatch):
    # No tier-1 run had failed a suite that captures Element coordinates.
    # A NaN distance fails metric_symmetry at the first sample, whose x, y
    # and z are the first three points of the suite's stream.
    nan = metric.MetricReport(math.nan, math.nan, math.nan)
    monkeypatch.setattr(metric, "distance", lambda x, y: nan)
    code, out, _ = run(capsys, "check", "axioms", "--algebra", "sym:3",
                       "--samples", "2", "--seed", "5")
    assert code == 6
    counterexample = json.loads(out)["counterexample"]
    assert counterexample["check"] == "metric_symmetry"
    inputs = counterexample["inputs"]
    assert sorted(inputs) == ["x", "y", "z"]
    s3 = sc.sym_matrix(3)
    drawn = transforms._random_cone_elements(s3, SplitMix64(5), 3)
    for name, point in zip("xyz", drawn):
        assert isinstance(inputs[name], list)
        rebuilt = cli.element_from_json(s3, inputs[name], name)
        assert rebuilt.coords.tobytes() == point.coords.tobytes()


@pytest.mark.parametrize("suite", ["contraction", "isometry"])
@pytest.mark.parametrize("algebra", ["orthant:1", "sym:1"])
def test_check_on_a_rank_one_cone_measures_no_pair_and_passes(capsys, suite, algebra):
    # Every pair of a rank-1 cone lies on one ray, so d = 0 and every pair
    # is skipped.  isometry exited 6 with slack 1.0 on every word, and
    # contraction passed with slack -|p| and nothing measured.
    code, out, _ = run(capsys, "check", suite, "--algebra", algebra,
                       "--samples", "5", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True and rep["counterexample"] is None
    assert rep["checks"] and all(
        (c["count"], c["worst_slack"], c["passed"]) == (0, None, True)
        for c in rep["checks"])


def test_a_nan_slack_fails_its_check():
    # CheckResult.update(nan) counted the sample and left the check passing;
    # with only NaN updates its worst slack read -inf.
    check = suites.CheckResult("c", 1e-9)
    check.update(-1.0, {"x": 0})
    check.update(math.nan, {"x": 1})
    check.update(-2.0, {"x": 2})
    assert not check.passed
    assert math.isnan(check.worst)
    assert check.counterexample["inputs"] == {"x": 1}
    only = suites.CheckResult("c", 1e-9)
    only.update(math.nan)
    summary = json.loads(json.dumps(only.summary()))
    assert math.isnan(summary["worst_slack"]) and summary["passed"] is False


def test_check_with_a_nan_ratio_exits_6(capsys, monkeypatch):
    # A NaN distance between images gives NaN ratios, which fail the check
    # and are reported in a report that json.loads reads.
    row_distances = metric._row_distances
    calls = []

    def nan_images(descriptor, xs, ys):
        calls.append(None)
        out = row_distances(descriptor, xs, ys)
        return out if len(calls) % 2 else [math.nan] * len(out)

    monkeypatch.setattr(metric, "_row_distances", nan_images)
    code, out, _ = run(capsys, "check", "contraction", "--algebra", "orthant:2",
                       "--samples", "5", "--seed", "1")
    assert code == 6
    rep = json.loads(out)
    assert rep["passed"] is False
    assert all(math.isnan(c["worst_slack"]) for c in rep["checks"])
    assert rep["counterexample"]["inputs"] == {"p": -1.0, "seed": 1}


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

def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once per process; each call must still act as
    # the same call in a fresh process.  COLUMNS fixes the help width.
    monkeypatch.setenv("COLUMNS", "80")
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
        assert got[0] == code and got == fresh_cli(*argv), argv


@pytest.mark.parametrize("tag, run", [key for key in REPORT_DIGESTS
                                      if key[1].startswith(("gen", "metric"))])
def test_gen_and_metric_reports_keep_their_bits(tag, run, capsys, monkeypatch, tmp_path):
    assert_report_keeps_its_bits(tag, run, capsys, monkeypatch, tmp_path)


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
