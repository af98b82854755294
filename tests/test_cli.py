import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIOS = SRC / "qdouble" / "scenarios"
# a child interpreter does not see pytest's pythonpath setting, so it gets src/
# first on its PYTHONPATH, ahead of any entries already there
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdouble.cli", *args],
        capture_output=True,
        text=True,
        timeout=500,
        env=CHILD_ENV,
    )


def _main(*argv):
    """(exit code, stdout, stderr) of cli.main run in process."""
    from qdouble import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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


def test_out_under_a_file_is_a_configuration_error(tmp_path):
    (tmp_path / "file").write_text("")
    code, out, err = _main("group", "--out", str(tmp_path / "file" / "reports"))
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: --out: ") and err.count("\n") == 1


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


def test_quotient_refuses_a_block_whose_antipode_breaks_the_relations():
    path = Path(__file__).resolve().parent / "scenarios" / "s4_four_cycle_j2.json"
    out = run_cli("quotient", "--scenario", str(path))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "configuration error: braided antipode does not preserve the enveloping algebra's relations: relation 0\n"
    )


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


# the subcommand run for a key that transfer does not read
_READER = {
    "stratum": "geometry",
    "flags": "geometry",
    "lengths": "geometry",
    "ricci": "geometry",
    "subset": "dual",
    "basis": "calculus",
    "print_matrices": "calculus",
}


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
        ({"group": {"name": "cyclic", "order": 0}}, "group.order: expected a positive integer, got 0"),
        ({"group": {"name": "cyclic", "order": -2}}, "group.order: expected a positive integer, got -2"),
        ({"group": {"name": "symmetric", "degree": 0}}, "group.degree: expected a positive integer"),
        ({"group": "s3"}, "group: expected an object with a name or generators, got 's3'"),
        ({"stratum": [1, 2]}, "stratum: expected [target, num, den, source], got [1, 2]"),
        (
            {"stratum": ["u", 2, 3, "zz"]},
            "stratum: source 'zz' is not a length variable, expected one of ['l1', 'l2']",
        ),
        ({"flags": "metric_compat"}, "flags: expected a list of flag names, got 'metric_compat'"),
        (
            {"flags": ["covariant", "torsion_free", "cotorsion_free", "metrc_compat"]},
            "flags: unknown flag 'metrc_compat'",
        ),
        ({"subset": "uvw"}, "subset: expected a list of element labels, got 'uvw'"),
        ({"subset": ["u", "v", "w", "zz"]}, "subset: unknown element label 'zz'"),
        ({"basis": "uv"}, "basis: expected a list of element labels, got 'uv'"),
        ({"basis": ["u", "v", "uv", "zz"]}, "basis: unknown element label 'zz'"),
        ({"basis": ["e", "u", "v", "uv", "vu"]}, "preferred basis is linearly dependent at 'e'"),
        ({"print_matrices": "uv"}, "print_matrices: expected a list of element labels, got 'uv'"),
        ({"print_matrices": ["u", "zz"]}, "print_matrices: unknown element label 'zz'"),
        ({"class_rep": "zz"}, "class_rep: unknown element label 'zz'"),
        ({"q_override": {"zz": "u"}}, "q_override: unknown element label 'zz'"),
        (
            {"q_override": "uv"},
            "q_override: expected an object from class labels to element labels, got 'uv'",
        ),
        ({"q_override": {"uv": "e", "vu": "zz"}}, "q_override: unknown element label 'zz'"),
        ({"q_override": {"uv": "e", "vu": "u", "u": "e"}}, "q_override: 'u' is not in the class"),
        ({"lengths": ["l1"]}, "lengths: expected an object from element labels to lengths, got ['l1']"),
        ({"lengths": {"zz": 1, "uv": "l2"}}, "lengths: unknown element label 'zz'"),
        ({"stratum": ["zz", 2, 3, "l2"]}, "stratum: unknown element label 'zz'"),
        (
            {"lengths": {"u": "l1", "uv": "l2", "w": 3}},
            "lengths: 'u' and 'w' name one conjugacy class",
        ),
        ({"lengths": {"u": "l1", "uv": "l2", "e": 1}}, "lengths: 'e' is the identity"),
        (
            {"stratum": ["w", 2, 3, "l2"]},
            "stratum: target 'w' is in the class of the lengths key 'u'",
        ),
        ({"stratum": ["e", 2, 3, "l2"]}, "stratum: target 'e' is the identity"),
        ({"ricci": "no"}, "ricci: expected true or false, got 'no'"),
        ({"ricci": 1}, "ricci: expected true or false, got 1"),
        ({"group": {"generators": [[1, 0, 2], [0, 2, 1]], "labels": ["a"]}}, "group: 1 labels for 2 generators"),
        ({"group": {"generators": [[1, 0, 2], [0, 2, 1]], "labels": ["a", "a"]}}, "group: label 'a' names two"),
        ({"group": {"generators": [[1, 0, 2], [0, 2, 1]], "relabel": {"ab": "a"}}}, "group: label 'a' names two"),
        ({"group": {"generators": [[1, 0, 2]], "labels": 5}}, "group.labels: expected a list of strings, got 5"),
        ({"group": {"generators": [[1, 0, 2]], "labels": [1]}}, "group.labels: expected a list of strings"),
        ({"group": {"generators": [[1, 0, 2]], "relabel": 5}}, "group.relabel: expected an object"),
        ({"group": {"generators": [[1, 0, 2]], "relabel": {"a": 1}}}, "group.relabel: expected an object"),
        ({"group": {"generators": [[1.0, 0, 2]]}}, "group.generators[0]: expected a list of integers"),
        ({"group": {"generators": [5]}}, "group.generators[0]: expected a list of integers"),
        ({"group": {"generators": [[1, 0, 2], [["1", "2"]]]}}, "group.generators[1]: expected a list"),
    ],
    ids=[
        "float-j", "bool-j", "string-j", "float-degree", "float-generators-degree",
        "cyclic-string-j", "user-count", "user-float-entry", "seminormal-no-partition", "no-kind",
        "zero-order", "negative-order", "zero-degree", "string-group", "short-stratum",
        "undeclared-stratum-source", "string-flags", "misspelled-flag", "string-subset",
        "unknown-subset-label", "string-basis", "unknown-basis-label", "identity-in-basis",
        "string-print-matrices",
        "unknown-print-matrices-label", "unknown-class-rep", "unknown-q-override-key",
        "string-q-override", "unknown-q-override-value", "q-override-key-outside-class",
        "list-lengths", "unknown-lengths-label", "unknown-stratum-target", "lengths-one-class",
        "identity-length", "stratum-in-a-lengths-class", "identity-stratum-target", "string-ricci",
        "int-ricci", "too-few-labels", "repeated-label", "relabel-onto-a-word",
        "int-labels", "int-label", "int-relabel", "int-relabel-value", "float-image", "int-generator",
        "string-cycle-entry",
    ],
)
def test_malformed_scenario_is_a_configuration_error(tmp_path, change, message):
    scenario = json.loads((SCENARIOS / "s3_case_ii.json").read_text())
    scenario.update(change)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(scenario))
    command = next((_READER[key] for key in change if key in _READER), "transfer")
    out = run_cli(command, "--scenario", str(path))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"configuration error: {message}")


@pytest.mark.parametrize(
    "key, value",
    [("flgs", ["covariant", "torsion_free"]), ("q_overide", {"uv": "e", "vu": "u"}), ("colour", "red")],
    ids=["flgs", "q_overide", "colour"],
)
def test_unknown_scenario_key_is_a_configuration_error(tmp_path, key, value):
    scenario = json.loads((SCENARIOS / "s3_case_ii.json").read_text())
    scenario[key] = value
    path = tmp_path / "unknown_key.json"
    path.write_text(json.dumps(scenario))
    out = run_cli("geometry", "--scenario", str(path))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"configuration error: {key}: unknown scenario key\n"


@pytest.mark.parametrize(
    "scenario, kind", [([{"group": {"name": "s3_uvw"}}], "list"), ("s3_case_ii", "str")], ids=["list", "string"]
)
def test_scenario_that_is_not_an_object_is_a_configuration_error(tmp_path, scenario, kind):
    path = tmp_path / "not_an_object.json"
    path.write_text(json.dumps(scenario))
    out = run_cli("geometry", "--scenario", str(path))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"configuration error: scenario: expected a JSON object, got {kind}\n"


@pytest.mark.parametrize("flag", ["cotorsion_free", "metric_compat"])
def test_degenerate_metric_is_refused_where_its_inverse_is_needed(tmp_path, flag):
    """On s3_case_ii's block with lengths u = 7/12, uv = 1 the determinant
    l2^3 (12 l1 - 7 l2)/16 is 0, so conditions cleared with the adjugate would
    hold vacuously; without these flags the report prints that determinant."""
    degenerate = Path(__file__).resolve().parent / "scenarios" / "s3_degenerate_metric.json"
    scenario = json.loads(degenerate.read_text())
    scenario["flags"].append(flag)
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _main("geometry", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert re.fullmatch(r"configuration error: lengths: .*\n", err)


def test_missing_scenario_key_is_named():
    s4 = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios" / "s4_four_cycle.json"
    out = run_cli("dual", "--scenario", str(s4))
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "configuration error: subset: required\n")


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


def test_order_one_group_calculus_is_inner_and_connected():
    # the order-1 group has no generators, so innerness solves a system with no rows
    c1 = Path(__file__).resolve().parent / "scenarios" / "c1_trivial.json"
    out = run_cli("calculus", "--scenario", str(c1))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert (report["lambda_dim"], report["inner"], report["connected"]) == (0, True, True)


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


@pytest.mark.parametrize(
    "error", [KeyError("x"), ValueError("an engine check failed")], ids=["KeyError", "ValueError"]
)
def test_an_engine_fault_is_an_internal_error(monkeypatch, error):
    from qdouble import double

    def fault(group):
        raise error

    monkeypatch.setattr(double, "double_irreps", fault)
    assert _main("double-irreps") == (4, "", f"internal error: {type(error).__name__}: {error}\n")


def test_symmetric_group_of_degree_one_reports_order_one():
    s1 = str(Path(__file__).resolve().parent / "scenarios" / "s1_symmetric.json")
    code, out, err = _main("group", "--scenario", s1)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"subcommand": "group", "order": 1, "labels": ["e"], "inverses": {"e": "e"}}
    code, out, err = _main("classes", "--scenario", s1)
    assert (code, err) == (0, "")
    assert json.loads(out)["classes"] == [{"representative": "e", "elements": ["e"], "centralizer_order": 1}]


# Cyc.__mul__ calls of envelope on s3_case_iii_plus at degree 4 while QuadAlg
# still multiplied each relation coefficient by a remainder coefficient ONE
ENVELOPE_MULS_WITH_PRODUCTS_BY_ONE = 61_482


def test_envelope_dims_hold_with_fewer_products(monkeypatch):
    from qdouble.cyclotomic import Cyc

    for name in ("s3_case_ii", "s3_case_ii_stratum"):
        code, out, _ = _main("envelope", "--scenario", str(SCENARIOS / f"{name}.json"))
        report = json.loads(out)
        assert (code, report["enveloping_dims"], report["frt_dims"]) == (0, [1, 4, 6, 8], [1, 4, 6, 8])
    calls, multiply = [0], Cyc.__mul__

    def counted(a, b):
        calls[0] += 1
        return multiply(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    code, out, _ = _main("envelope", "--scenario", str(SCENARIOS / "s3_case_iii_plus.json"), "--degree", "4")
    report = json.loads(out)
    assert (code, report["enveloping_dims"], report["frt_dims"]) == (0, [1, 9, 33, 63, 71], [1, 9, 33, 63, 71])
    assert calls[0] < ENVELOPE_MULS_WITH_PRODUCTS_BY_ONE


def test_readme_lists_exactly_the_scenario_keys():
    from qdouble import cli

    readme = (SRC.parent / "README.md").read_text()
    start = readme.index("must be a JSON object whose keys are")
    sentence = readme[start:readme.index(". Any other key", start)]
    assert f"the {len(cli.READERS)} " in sentence
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(cli.READERS)


_CLI = {"qdouble", "qdouble.cli", "qdouble.cyclotomic", "qdouble.groups"}
_REPS = _CLI | {"qdouble.linalg", "qdouble.reps"}
_DOUBLE = _REPS | {"qdouble.double"}
_BRAIDED = _DOUBLE | {"qdouble.braided", "qdouble.quadalg"}
_EVERY = {"qdouble"} | {f"qdouble.{p.stem}" for p in (SRC / "qdouble").glob("*.py") if p.stem != "__init__"}


def _qdouble_modules(code, *argv):
    """The qdouble modules a fresh interpreter holds after running code."""
    probe = f"import json, sys; {code}; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'qdouble']))"
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=500, env=CHILD_ENV
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "subcommand, scenario, modules",
    [
        ("group", "s3_case_ii", _CLI),
        ("classes", "s3_case_ii", _CLI),
        ("double-irreps", "s3_case_ii", _DOUBLE),
        ("transfer", "s3_case_ii", _DOUBLE | {"qdouble.transfer"}),
        ("calculus", "s3_case_ii", _REPS | {"qdouble.calculus"}),
        ("geometry", "s3_case_ii", _REPS | {"qdouble.calculus", "qdouble.geometry", "qdouble.poly"}),
        ("dual", "s3_dual_union", _REPS | {"qdouble.dualgeometry", "qdouble.poly"}),
        ("braided", "s3_case_ii", _BRAIDED),
        ("killing", "s3_case_ii", _BRAIDED),
        ("envelope", "s3_case_ii", _BRAIDED),
        ("quotient", "s3_case_iii_plus", _BRAIDED),
        ("verify-paper", None, _EVERY),
    ],
    ids=[
        "group", "classes", "double-irreps", "transfer", "calculus", "geometry", "dual", "braided",
        "killing", "envelope", "quotient", "verify-paper",
    ],
)
def test_each_subcommand_imports_only_what_it_runs(subcommand, scenario, modules):
    """A report subcommand loads the modules it calls and no others, so not
    the regression suite, which alone loads every module.  dual runs on the
    one bundled scenario with a subset, quotient on a real orthogonal block."""
    main = "from qdouble.cli import main; assert main(sys.argv[1:]) == 0"
    argv = [subcommand] + (["--scenario", str(SCENARIOS / f"{scenario}.json")] if scenario else [])
    assert _qdouble_modules(main, *argv) == modules


def test_package_import_is_lazy():
    assert _qdouble_modules("import qdouble") == {"qdouble"}


def test_package_reexports_resolve_to_their_home_modules():
    import importlib

    import qdouble

    for name in qdouble.__all__:
        home = importlib.import_module(f"qdouble.{qdouble._HOMES[name]}")
        assert getattr(qdouble, name) is getattr(home, name)
    from qdouble import Cyc, cyclotomic

    assert Cyc is cyclotomic.Cyc
    with pytest.raises(AttributeError):
        qdouble.no_such_name
