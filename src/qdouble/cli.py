"""Command line driver.

Subcommands consume a scenario JSON and emit deterministic reports with
exact cyclotomic serialization ({"N": ..., "coeffs": [[num, den], ...]})
and optional floating-point renderings.  ``verify-paper`` runs the bundled
regression suite and exits nonzero on any mismatch.

Each subcommand imports the engine modules it runs in its own body, so one
invocation loads only those; ``verify-paper`` loads them all.

Each top-level scenario key has one reader in ``READERS``; README's list of
scenario keys is that table's.  Exit codes: 0 ok, 2 configuration error
(``ConfigError``: input the engine cannot use), 3 verification failure,
4 internal error (any other exception: one stderr line, empty stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cyclotomic import Cyc, cyc
from .groups import ConfigError, FiniteGroup, class_context


def load_scenario(path: str) -> dict:
    """The scenario object, refused if it is not a JSON object or has a key
    with no reader in ``READERS``, such as a misspelled one."""
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigError(f"cannot read scenario: {ex}")
    if not isinstance(scenario, dict):
        raise ConfigError(f"scenario: expected a JSON object, got {type(scenario).__name__}")
    for key in scenario:
        if key not in READERS:
            raise ConfigError(f"{key}: unknown scenario key")
    return scenario


def scenario_reader(scenario: dict):
    """read(key): the value of a scenario key, parsed once by its reader in
    ``READERS``, which gets the raw scenario and read for the keys it needs;
    keys with one reader share its result."""
    parsed = {}

    def read(key: str):
        rule = READERS[key]
        if rule not in parsed:
            parsed[rule] = rule(scenario, read)
        return parsed[rule]

    return read


def _group(scenario: dict, read) -> FiniteGroup:
    if "group" not in scenario:
        raise ConfigError("group: required")
    spec = scenario["group"]
    if not isinstance(spec, dict):
        raise ConfigError(f"group: expected an object with a name or generators, got {spec!r}")
    if spec.get("name") == "s3_uvw":
        return FiniteGroup.s3_with_uvw_labels()
    if spec.get("name") == "symmetric":
        return FiniteGroup.symmetric(_positive_integer(spec.get("degree"), "group.degree"))
    if spec.get("name") == "cyclic":
        return FiniteGroup.cyclic(_positive_integer(spec.get("order"), "group.order"))
    if "generators" in spec:
        degree, labels, relabel = spec.get("degree"), spec.get("labels"), spec.get("relabel")
        if labels is not None and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ConfigError(f"group.labels: expected a list of strings, got {labels!r}")
        if relabel is not None and not (
            isinstance(relabel, dict) and all(isinstance(x, str) for x in relabel.values())
        ):
            raise ConfigError(f"group.relabel: expected an object from element words to labels, got {relabel!r}")
        generators = _generators(spec["generators"])
        degree = None if degree is None else _positive_integer(degree, "group.degree")
        try:
            return FiniteGroup.from_generators(generators, labels=labels, degree=degree, relabel=relabel)
        except ValueError as ex:
            raise ConfigError(f"group: {ex}")
    raise ConfigError("group spec needs a name or generators")


def _generators(value) -> list:
    """Each generator a permutation image (a list of integers) or a list of
    1-based cycles (lists of positive integers)."""
    if not isinstance(value, list):
        raise ConfigError(f"group.generators: expected a list of generators, got {value!r}")
    for i, g in enumerate(value):
        if not isinstance(g, list) or not (
            all(map(_is_integer, g)) or all(isinstance(c, list) and all(_is_integer(a) and a > 0 for a in c) for c in g)
        ):
            raise ConfigError(
                f"group.generators[{i}]: expected a list of integers or a list of cycles of positive integers, "
                f"got {g!r}"
            )
    return value


def _context(scenario: dict, read):
    """The class context of class_rep and q_override, or None without a class_rep."""
    group, rep, q = read("group"), scenario.get("class_rep"), scenario.get("q_override")
    if rep is None:
        return None
    _labels(group, [rep], "class_rep")
    if q is not None:
        if not isinstance(q, dict):
            raise ConfigError(f"q_override: expected an object from class labels to element labels, got {q!r}")
        _labels(group, [*q, *q.values()], "q_override")
    return class_context(group, rep, q_override=q)


def _irrep(scenario: dict, read):
    """The block's centralizer irrep, its spec checked in full first."""
    from .reps import KINDS, centralizer_character

    ctx, spec = read("class_rep"), scenario.get("irrep")
    if ctx is None:
        raise ConfigError("scenario needs class_rep")
    if spec is None:
        raise ConfigError("scenario needs an irrep spec")
    required = {"centralizer_character": "j", **{kind: key for kind, (key, _) in KINDS.items()}}
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in required):
        raise ConfigError(f"irrep.kind: expected one of {sorted(required)}, got {kind!r}")
    key = required[kind]
    if key and key not in spec:
        raise ConfigError(f"irrep.{key}: required for kind {kind!r}")
    value = spec.get(key)
    if key == "j":
        value = _integer(value, "irrep.j")
    elif key == "partition" and not (isinstance(value, list) and all(_is_integer(p) and p > 0 for p in value)):
        raise ConfigError(f"irrep.partition: expected a list of positive integers, got {value!r}")
    elif key == "matrices":
        value = _matrices(value, ctx.centralizer.n)
        try:
            return KINDS[kind][1](ctx.centralizer, value)
        except ValueError as ex:  # the homomorphism check, which also guards engine-built matrices
            raise ConfigError(ex) from ex
    if kind == "centralizer_character":
        return centralizer_character(ctx, value)
    return KINDS[kind][1](ctx.centralizer, *([value] if key else []))


def _matrices(value, count: int) -> list:
    """count square matrices of one size, every entry an exact number."""
    dim = len(value[0]) if isinstance(value, list) and value and isinstance(value[0], list) else 0
    if not dim or not all(
        isinstance(m, list) and len(m) == dim
        and all(isinstance(r, list) and len(r) == dim for r in m)
        for m in value
    ):
        raise ConfigError(f"irrep.matrices: expected square matrices of one size, got {value!r}")
    out = [
        [[cyc(exact_number(x, f"irrep.matrices[{a}][{i}][{j}]")) for j, x in enumerate(row)]
         for i, row in enumerate(m)]
        for a, m in enumerate(value)
    ]
    if len(out) != count:
        raise ConfigError(f"irrep.matrices: expected {count}, one per centralizer element, got {len(out)}")
    return out


def _basis(scenario: dict, read):
    """The Lambda^1 basis labels, or None to let the calculus choose."""
    basis = scenario.get("basis")
    return None if basis is None else _labels(read("group"), basis, "basis")


def _lengths(scenario: dict, read):
    """(lengths, variables): a length per element label, a string declaring a
    variable, and the stratum binding target = (num/den) source."""
    from .poly import Poly

    group, spec = read("group"), scenario.get("lengths", {})
    if not isinstance(spec, dict):
        raise ConfigError(f"lengths: expected an object from element labels to lengths, got {spec!r}")
    _labels(group, list(spec), "lengths")
    variables = tuple(sorted({v for v in spec.values() if isinstance(v, str)}))
    lengths = {}
    for key, value in spec.items():
        if isinstance(value, str):
            if not value.isidentifier():
                raise ConfigError(f"lengths.{key}: {value!r} is neither a number nor a variable name")
            lengths[key] = Poly.variable(value, variables)
        else:
            lengths[key] = cyc(exact_number(value, f"lengths.{key}"))
    if "stratum" not in scenario:
        return lengths, variables
    stratum = scenario["stratum"]
    if not (
        isinstance(stratum, list) and len(stratum) == 4
        and isinstance(stratum[0], str) and isinstance(stratum[3], str)
    ):
        raise ConfigError(f"stratum: expected [target, num, den, source], got {stratum!r}")
    target, num, den, source = stratum
    _labels(group, [target], "stratum")
    if source not in variables:
        raise ConfigError(f"stratum: source {source!r} is not a length variable, expected one of {list(variables)}")
    target_class = group.class_of(group.element(target))
    if target_class == [0]:
        raise ConfigError(f"stratum: target {target!r} is the identity, whose length is 0")
    for key in lengths:
        if group.element(key) in target_class:
            raise ConfigError(f"stratum: target {target!r} is in the class of the lengths key {key!r}")
    lengths[target] = Poly.variable(source, variables) * cyc(exact_number([num, den], "stratum"))
    return lengths, variables


def _flags(scenario: dict, read) -> list:
    from .geometry import LINEAR_FLAGS, RESIDUALS

    flags = scenario.get("flags", list(LINEAR_FLAGS))
    if not isinstance(flags, list):
        raise ConfigError(f"flags: expected a list of flag names, got {flags!r}")
    for flag in flags:
        if not (isinstance(flag, str) and (flag in LINEAR_FLAGS or flag in RESIDUALS)):
            raise ConfigError(f"flags: unknown flag {flag!r}, expected one of {[*LINEAR_FLAGS, *RESIDUALS]}")
    return flags


def _ricci(scenario: dict, read) -> bool:
    ricci = scenario.get("ricci", False)
    if not isinstance(ricci, bool):
        raise ConfigError(f"ricci: expected true or false, got {ricci!r}")
    return ricci


def _subset(scenario: dict, read) -> list:
    group = read("group")
    if "subset" not in scenario:
        raise ConfigError("subset: required")
    return _labels(group, scenario["subset"], "subset")


# each top-level scenario key and its one reader; README lists these keys
READERS = {
    "group": _group,
    "class_rep": _context,
    "q_override": _context,
    "irrep": _irrep,
    "basis": _basis,
    "lengths": _lengths,
    "stratum": _lengths,
    "print_matrices": lambda scenario, read: _labels(
        read("group"), scenario.get("print_matrices", []), "print_matrices"),
    "subset": _subset,
    "flags": _flags,
    "ricci": _ricci,
}


def _is_integer(value) -> bool:
    """The one scenario integer rule: an int, not a bool, a float or a string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, key: str) -> int:
    if not _is_integer(value):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _positive_integer(value, key: str) -> int:
    """A group size: an integer by the rule above, and at least 1."""
    if _integer(value, key) < 1:
        raise ConfigError(f"{key}: expected a positive integer, got {value!r}")
    return value


def _labels(group: FiniteGroup, value, key: str) -> list:
    """The one element-label rule: a list of labels of the group's elements.
    A string is not such a list, even when each of its characters is one."""
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of element labels, got {value!r}")
    for label in value:
        if label not in group.labels:
            raise ConfigError(f"{key}: unknown element label {label!r}")
    return value


def exact_number(value, key: str) -> Fraction:
    """An int, or an [int, int] pair with a nonzero denominator, as a Fraction.

    Scenario numbers are exact: a float, a bool or a number written as a
    string is a configuration error, not something to round.
    """
    if _is_integer(value):
        return Fraction(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_integer, value)) and value[1]:
        return Fraction(value[0], value[1])
    raise ConfigError(
        f"{key}: expected an integer or an [integer, integer] pair with a nonzero denominator, got {value!r}"
    )


def scalar_json(value) -> dict:
    if isinstance(value, Cyc):
        return value.to_json()
    from .poly import Poly

    if isinstance(value, Poly):
        return {
            "vars": list(value.vars),
            "terms": [{"exps": list(e), "coeff": c.to_json()} for e, c in sorted(value.terms.items())],
        }
    return cyc(value).to_json()


def with_floats(node):
    """The report with a [real, imaginary] "float" beside each exact scalar."""
    if isinstance(node, dict):
        if set(node) == {"N", "coeffs"}:
            z = Cyc.from_json(node).to_complex()
            return {**node, "float": [z.real, z.imag]}
        return {k: with_floats(v) for k, v in node.items()}
    if isinstance(node, list):
        return [with_floats(x) for x in node]
    return node


def emit(report: dict, args) -> None:
    report = with_floats(report) if args.float else report
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / f"{report['subcommand']}.json").write_text(text + "\n")
        except OSError as ex:
            raise ConfigError(f"--out: {ex}")
    else:
        print(text)


def cmd_group(read, args):
    group = read("group")
    return {
        "subcommand": "group",
        "order": group.n,
        "labels": group.labels,
        "inverses": {group.labels[g]: group.labels[group.inv[g]] for g in range(group.n)},
    }


def cmd_classes(read, args):
    group = read("group")
    out = [
        {
            "representative": group.labels[cls_[0]],
            "elements": [group.labels[c] for c in cls_],
            "centralizer_order": len(group.centralizer(cls_[0])),
        }
        for cls_ in group.conjugacy_classes()
    ]
    report = {"subcommand": "classes", "classes": out}
    if read("class_rep") is not None:
        report["context"] = read("class_rep").table_report()
    return report


def cmd_double_irreps(read, args):
    from .double import double_irreps

    group = read("group")
    blocks = [
        {"class": group.labels[ctx.rep], "pi": pi.name, "dimension": len(ctx.cls) * pi.dim}
        for ctx, pi in double_irreps(group)
    ]
    return {
        "subcommand": "double-irreps",
        "blocks": blocks,
        "sum_of_squares": sum(block["dimension"] ** 2 for block in blocks),
        "group_order_squared": group.n * group.n,
    }


def cmd_transfer(read, args):
    from .double import build_VCpi
    from .transfer import factorization_check, transfer_to_group_algebra

    group, ctx, pi = read("group"), read("class_rep"), read("irrep")
    module = build_VCpi(ctx, pi)
    cols = transfer_to_group_algebra(ctx, pi, module)
    image = {
        f"({group.labels[c]},{i})": [
            {"position": group.labels[g], "fiber": str(module.basis[w]), "coeff": scalar_json(v)}
            for (g, w), v in sorted(col.items())
        ]
        for (c, i), col in sorted(cols.items())
    }
    return {
        "subcommand": "transfer",
        "normalisation": scalar_json(cyc(Fraction(ctx.centralizer.n, group.n))),
        "image": image,
        "factors_through_functions": factorization_check(ctx, pi, module),
    }


def cmd_calculus(read, args):
    from .reps import induced_rep
    from .calculus import GroupAlgebraCalculus, lambda_basis

    group, ctx, pi = read("group"), read("class_rep"), read("irrep")
    calc = GroupAlgebraCalculus(induced_rep(ctx, pi))
    basis = lambda_basis(calc, preferred=read("basis"))
    report = {
        "subcommand": "calculus",
        "lambda_dim": calc.lambda_dim,
        "connected": calc.is_connected(),
        "inner": calc.is_inner()[0],
        "basis": [group.labels[g] for g in basis.basis],
        "gamma": {},
        "rho": {},
    }
    for gen in read("print_matrices"):
        g = group.element(gen)
        report["gamma"][gen] = [[scalar_json(x) for x in row] for row in basis.gamma(g)]
        report["rho"][gen] = [[scalar_json(x) for x in row] for row in basis.rho_matrix(g)]
    return report


def cmd_geometry(read, args):
    from .reps import induced_rep
    from .calculus import GroupAlgebraCalculus, lambda_basis
    from .geometry import LINEAR_FLAGS, RESIDUALS, connection_solve, ip_from_lengths, ricci_scalar

    flags, ricci = read("flags"), read("ricci")
    ctx, pi = read("class_rep"), read("irrep")
    calc = GroupAlgebraCalculus(induced_rep(ctx, pi))
    basis = lambda_basis(calc, preferred=read("basis"))
    ip = ip_from_lengths(basis, *read("lengths"))
    family = connection_solve(basis, ip, [f for f in flags if f in LINEAR_FLAGS])
    report = {
        "subcommand": "geometry",
        "metric_determinant": scalar_json(ip.det()),
        "strictly_covariant_gram": ip.covariant(),
        "family_dimension": family.n_params(),
        "free_parameters": list(family.params),
        "residual_flags": {
            flag: {"residual_count": len(res), "satisfied_identically": not res}
            for flag, res in ((f, RESIDUALS[f](family, ip)) for f in flags if f in RESIDUALS)
        },
    }
    if ricci:
        report["ricci_scalar"] = scalar_json(ricci_scalar(family, ip))
    return report


def cmd_dual(read, args):
    from .reps import irrep_catalog
    from .dualgeometry import dual_constraints

    group, subset = read("group"), read("subset")
    irreps = irrep_catalog(group)
    weight_vars = {}
    counter = 1
    for cls_ in group.conjugacy_classes():
        if any(group.labels[c] in subset for c in cls_):
            weight_vars[cls_[0]] = f"lstar{counter}"
            counter += 1
    lambda_vars = {}
    for k, rho in enumerate(irreps):
        lambda_vars[rho.name] = None if rho.is_trivial() else f"astar{k}"
    constraints, closed = dual_constraints(group, subset, weight_vars, lambda_vars)
    return {
        "subcommand": "dual",
        "constraints": [scalar_json(c) for c in constraints],
        "eigenvalue_formulas": {k: scalar_json(v) for k, v in closed.items()},
    }


def cmd_braided(read, args):
    from .braided import covering_map_image, lie_cpi

    ctx, pi = read("class_rep"), read("irrep")
    lie = lie_cpi(ctx, pi)
    axioms = lie.axioms()
    for name, ok in axioms.items():
        if not ok and name != "regular":
            axiom, indices, lhs, rhs = lie._first_failure(name)
            print(f"witness: {axiom} fails at {indices}: lhs {lhs} != rhs {rhs}", file=sys.stderr)
    return {
        "subcommand": "braided",
        "dimension": lie.dim,
        "axioms": axioms,
        "image": covering_map_image(ctx, pi),
    }


def cmd_killing(read, args):
    from .braided import killing_form, lie_cpi
    from . import linalg

    ctx, pi = read("class_rep"), read("irrep")
    lie = lie_cpi(ctx, pi)
    K = killing_form(lie)
    return {
        "subcommand": "killing",
        "matrix": [[scalar_json(x) for x in row] for row in K],
        "nondegenerate": linalg.rank(K) == lie.dim,
    }


def cmd_envelope(read, args):
    from .braided import envelope, frt, lie_cpi

    if args.degree < 0:
        raise ConfigError(f"--degree must be 0 or more, got {args.degree}")
    ctx, pi = read("class_rep"), read("irrep")
    lie = lie_cpi(ctx, pi)
    return {
        "subcommand": "envelope",
        "enveloping_dims": envelope(lie).hilbert_prefix(args.degree),
        "frt_dims": frt(ctx, pi).hilbert_prefix(args.degree),
    }


def cmd_quotient(read, args):
    from .braided import quotient_hopf

    ctx, pi = read("class_rep"), read("irrep")
    H, B = quotient_hopf(ctx, pi)
    return {
        "subcommand": "quotient",
        "hopf_dims": H.hilbert_prefix(2),
        "braided_dims": B.hilbert_prefix(2),
    }


def cmd_verify_paper(read, args):
    from .regression import run_regression

    results = run_regression()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""), file=sys.stderr)
    failed = [name for name, ok, _ in results if not ok]
    return {
        "subcommand": "verify-paper",
        "passed": len(results) - len(failed),
        "failed": failed,
    }


COMMANDS = {
    "group": cmd_group,
    "classes": cmd_classes,
    "double-irreps": cmd_double_irreps,
    "transfer": cmd_transfer,
    "calculus": cmd_calculus,
    "geometry": cmd_geometry,
    "dual": cmd_dual,
    "braided": cmd_braided,
    "killing": cmd_killing,
    "envelope": cmd_envelope,
    "quotient": cmd_quotient,
    "verify-paper": cmd_verify_paper,
}

DEFAULT_SCENARIO = Path(__file__).parent / "scenarios" / "s3_case_ii.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qdouble", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", default=None, help="scenario JSON path")
    parser.add_argument("--out", default=None, help="report output directory")
    parser.add_argument("--degree", type=int, default=3, help="graded dimension cutoff")
    parser.add_argument("--float", action="store_true", help="append numeric renderings")
    args = parser.parse_args(argv)
    try:
        path = args.scenario or (None if args.subcommand == "verify-paper" else DEFAULT_SCENARIO)
        scenario = load_scenario(path) if path else {}
        report = COMMANDS[args.subcommand](scenario_reader(scenario), args)
        emit(report, args)
    except ConfigError as ex:
        print(f"configuration error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # an engine fault, not the scenario's
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 4
    if args.subcommand == "verify-paper" and report["failed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
