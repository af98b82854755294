import json
import subprocess
import sys
from pathlib import Path

import pytest

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "qdouble" / "scenarios"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdouble.cli", *args],
        capture_output=True,
        text=True,
        timeout=500,
    )


def test_classes_report():
    out = run_cli("classes")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    orders = sorted(c["centralizer_order"] for c in report["classes"])
    assert orders == [2, 3, 6]


def test_double_irreps_report():
    out = run_cli("double-irreps")
    report = json.loads(out.stdout)
    assert report["sum_of_squares"] == report["group_order_squared"] == 36
    assert sorted(b["dimension"] for b in report["blocks"]) == [1, 1, 2, 2, 2, 2, 3, 3]


def test_transfer_report_exact_serialization():
    out = run_cli("transfer")
    report = json.loads(out.stdout)
    assert report["factors_through_functions"] is True
    assert report["normalisation"] == {"N": 1, "coeffs": [[1, 2]]}


def test_reports_are_deterministic(tmp_path):
    a = run_cli("calculus").stdout
    b = run_cli("calculus").stdout
    assert a == b


def test_float_flag_appends_numeric():
    out = run_cli("transfer", "--float")
    report = json.loads(out.stdout)
    sample = report["normalisation"]
    assert "float" in sample and abs(sample["float"][0] - 0.5) < 1e-12


def test_out_directory(tmp_path):
    out = run_cli("group", "--out", str(tmp_path))
    assert out.returncode == 0
    written = json.loads((tmp_path / "group.json").read_text())
    assert written["order"] == 6


def test_envelope_dims():
    out = run_cli(
        "envelope", "--scenario", str(SCENARIOS / "s3_case_iii_plus.json"), "--degree", "2"
    )
    report = json.loads(out.stdout)
    assert report["enveloping_dims"] == [1, 9, 33]
    assert report["frt_dims"] == [1, 9, 33]


def test_negative_degree_is_a_configuration_error():
    out = run_cli("envelope", "--degree", "-1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("configuration error: --degree")
    out = run_cli("envelope", "--degree", "0")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["enveloping_dims"] == report["frt_dims"] == [1]


def test_quotient_dims():
    out = run_cli("quotient", "--scenario", str(SCENARIOS / "s3_case_iii_plus.json"))
    report = json.loads(out.stdout)
    assert report["hopf_dims"][2] == 24
    assert report["braided_dims"][2] == 24


def test_braided_report():
    out = run_cli("braided", "--scenario", str(SCENARIOS / "s3_case_iii_plus.json"))
    report = json.loads(out.stdout)
    assert set(report["axioms"]) == {"L1", "L2", "L3", "L4", "braid_relation", "regular"}
    assert all(report["axioms"].values())
    assert report["image"]["surjective"] is True


def test_config_error_exit_code(tmp_path):
    out = run_cli("group", "--scenario", str(tmp_path / "missing.json"))
    assert out.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": {"name": "s3_uvw"}}))
    out = run_cli("transfer", "--scenario", str(bad))
    assert out.returncode == 2


def test_quaternion_group_is_a_configuration_error(tmp_path):
    # Q8 has order 8 but one involution, so the order-8 catalogue has no reflection
    q8 = tmp_path / "q8.json"
    q8.write_text(json.dumps({"group": {"generators": [[[1, 2, 4, 7], [3, 6, 8, 5]], [[1, 3, 4, 8], [2, 5, 7, 6]]]}}))
    out = run_cli("double-irreps", "--scenario", str(q8))
    assert out.returncode == 2
    assert "configuration error" in out.stderr


@pytest.mark.parametrize(
    "change, key",
    [
        ({"lengths": {"u": 0.1, "uv": "l2"}}, "lengths.u"),
        ({"lengths": {"u": [1.5, 2], "uv": "l2"}}, "lengths.u"),
        ({"lengths": {"uv": "l2"}, "stratum": ["u", 2, 0, "l2"]}, "stratum"),
        ({"lengths": {"u": True, "uv": "l2"}}, "lengths.u"),
        ({"lengths": {"u": "0.1", "uv": "l2"}}, "lengths.u"),
        ({"lengths": {"uv": "l2"}, "stratum": ["u", "2", 3, "l2"]}, "stratum"),
    ],
    ids=["float", "float-pair", "zero-denominator", "bool", "string-number", "string-pair"],
)
def test_inexact_scenario_numbers_are_configuration_errors(tmp_path, change, key):
    scenario = json.loads((SCENARIOS / "s3_case_ii.json").read_text())
    scenario.update(change)
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(scenario))
    out = run_cli("geometry", "--scenario", str(path))
    assert out.returncode == 2
    assert out.stderr.startswith(f"configuration error: {key}:")


CHARACTER = {"kind": "centralizer_character"}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"irrep": {**CHARACTER, "j": 1.5}}, "irrep.j: expected an integer, got 1.5"),
        ({"irrep": {**CHARACTER, "j": True}}, "irrep.j: expected an integer, got True"),
        ({"irrep": {**CHARACTER, "j": "1"}}, "irrep.j: expected an integer, got '1'"),
        ({"group": {"name": "symmetric", "degree": 3.9}}, "group.degree: expected an integer"),
        ({"group": {"generators": [[[1, 2]], [[2, 3]]], "degree": 3.5}}, "group.degree: expected"),
        ({"irrep": {"kind": "cyclic", "j": "x"}}, "irrep.j: expected an integer, got 'x'"),
        ({"irrep": {"kind": "user", "matrices": [[[1]], [[1]]]}}, "irrep.matrices: expected 3,"),
        ({"irrep": {"kind": "user", "matrices": [[[1.5]]]}}, "irrep.matrices[0][0][0]:"),
        ({"irrep": {"kind": "seminormal"}}, "irrep.partition: required for kind 'seminormal'"),
        ({"irrep": {"j": 1}}, "irrep.kind: expected one of"),
    ],
    ids=[
        "float-j", "bool-j", "string-j", "float-degree", "float-generators-degree",
        "cyclic-string-j", "user-count", "user-float-entry", "seminormal-no-partition", "no-kind",
    ],
)
def test_malformed_scenario_is_a_configuration_error(tmp_path, change, message):
    scenario = json.loads((SCENARIOS / "s3_case_ii.json").read_text())
    scenario.update(change)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(scenario))
    out = run_cli("transfer", "--scenario", str(path))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"configuration error: {message}")


def _scenario(tmp_path, **spec):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": {"name": "s3_uvw"}, "class_rep": "e", **spec}))
    return str(path)


def test_cotorsion_on_one_dimensional_lambda_imposes_nothing(tmp_path):
    # dim Lambda^1 = 1 has no pairs i < j, so cotorsion adds no equation
    spec = {"irrep": {"kind": "sign"}, "lengths": {"u": "l1", "uv": "l2"}}
    dims = []
    for flags in (["covariant", "torsion_free"], ["covariant", "torsion_free", "cotorsion_free"]):
        out = run_cli("geometry", "--scenario", _scenario(tmp_path, flags=flags, **spec))
        assert out.returncode == 0
        dims.append(json.loads(out.stdout)["family_dimension"])
    assert dims == [1, 1]


def test_trivial_pair_calculus_prints_empty_matrices(tmp_path):
    spec = {"irrep": {"kind": "trivial"}, "lengths": {"u": 1, "uv": 2}, "print_matrices": ["u"]}
    out = run_cli("calculus", "--scenario", _scenario(tmp_path, **spec))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["lambda_dim"] == 0
    assert report["gamma"] == report["rho"] == {"u": []}


def test_trivial_pair_geometry_is_a_configuration_error(tmp_path):
    spec = {"irrep": {"kind": "trivial"}, "lengths": {"u": 1, "uv": 2}}
    out = run_cli("geometry", "--scenario", _scenario(tmp_path, **spec))
    assert out.returncode == 2
    assert out.stderr.startswith("configuration error:")


def test_verify_paper_stdout_is_json(monkeypatch, capsys):
    from qdouble import cli, regression

    fake = [("c1 fake check", True, ""), ("c2 fake check", False, "detail")]
    monkeypatch.setattr(regression, "run_regression", lambda: fake)
    assert cli.main(["verify-paper"]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["passed"] == 1 and report["failed"] == ["c2 fake check"]
    assert err.splitlines() == ["PASS  c1 fake check", "FAIL  c2 fake check  [detail]"]
