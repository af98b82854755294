"""Command line driver.

Subcommands consume a scenario JSON and emit deterministic reports with
exact cyclotomic serialization ({"N": ..., "coeffs": [[num, den], ...]})
and optional floating-point renderings.  ``verify-paper`` runs the bundled
regression suite and exits nonzero on any mismatch.

Each subcommand imports the engine modules it runs in its own body, so one
invocation loads only those; ``verify-paper`` loads them all.

Exit codes: 0 ok, 2 configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cyclotomic import Cyc, cyc
from .groups import FiniteGroup, class_context


class ConfigError(Exception):
    pass


# every top-level key a subcommand reads
_SCENARIO_KEYS = {
    "group", "class_rep", "q_override", "irrep", "basis", "lengths", "print_matrices", "subset",
    "flags", "ricci", "stratum",
}


def load_scenario(path: str) -> dict:
    """The scenario object, refused if it is not a JSON object or has a key
    no subcommand reads, such as a misspelled one."""
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigError(f"cannot read scenario: {ex}")
    if not isinstance(scenario, dict):
        raise ConfigError(f"scenario: expected a JSON object, got {type(scenario).__name__}")
    for key in scenario:
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{key}: unknown scenario key")
    return scenario


def build_group(spec: dict) -> FiniteGroup:
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


def build_context(group: FiniteGroup, scenario: dict):
    rep = scenario.get("class_rep")
    if rep is None:
        raise ConfigError("scenario needs class_rep")
    _labels(group, [rep], "class_rep")
    q = scenario.get("q_override")
    if q is not None:
        if not isinstance(q, dict):
            raise ConfigError(
                f"q_override: expected an object from class labels to element labels, got {q!r}"
            )
        _labels(group, list(q), "q_override")
        _labels(group, list(q.values()), "q_override")
        cls = {group.labels[c] for c in group.class_of(group.element(rep))}
        for label in q:
            if label not in cls:
                raise ConfigError(f"q_override: {label!r} is not in the class of {rep!r}")
    return class_context(group, rep, q_override=q)


def build_pi(ctx, scenario: dict):
    """The scenario's centralizer irrep, its spec checked in full first."""
    from .reps import KINDS, catalog, centralizer_character

    spec = scenario.get("irrep")
    if spec is None:
        raise ConfigError("scenario needs an irrep spec")
    required = {"centralizer_character": "j", **{kind: key for kind, (key, _) in KINDS.items()}}
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in required:
        raise ConfigError(f"irrep.kind: expected one of {sorted(required)}, got {kind!r}")
    key = required[kind]
    if key and key not in spec:
        raise ConfigError(f"irrep.{key}: required for kind {kind!r}")
    value = spec.get(key)
    if key == "j":
        value = _integer(value, "irrep.j")
    elif key == "partition" and not (
        isinstance(value, list) and all(_is_integer(p) and p > 0 for p in value)
    ):
        raise ConfigError(f"irrep.partition: expected a list of positive integers, got {value!r}")
    elif key == "matrices":
        value = _matrices(value, ctx.centralizer.n)
    if kind == "centralizer_character":
        return centralizer_character(ctx, value)
    return catalog(ctx.centralizer, kind, **({key: value} if key else {}))


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
        raise ConfigError(
            f"irrep.matrices: expected {count}, one per centralizer element, got {len(out)}"
        )
    return out


def _block(scenario: dict):
    """(group, class context, centralizer irrep) of a block subcommand."""
    group = build_group(_required(scenario, "group"))
    ctx = build_context(group, scenario)
    return group, ctx, build_pi(ctx, scenario)


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


def _required(scenario: dict, key: str):
    """A top-level scenario key the subcommand cannot run without."""
    if key not in scenario:
        raise ConfigError(f"{key}: required")
    return scenario[key]


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
        f"{key}: expected an integer or an [integer, integer] pair with a nonzero denominator, "
        f"got {value!r}"
    )


def scalar_json(value) -> dict:
    if isinstance(value, Cyc):
        return value.to_json()
    from .poly import Poly

    if isinstance(value, Poly):
        return {
            "vars": list(value.vars),
            "terms": [
                {"exps": list(e), "coeff": c.to_json()} for e, c in sorted(value.terms.items())
            ],
        }
    return cyc(value).to_json()


def with_floats(report, enabled: bool):
    if not enabled:
        return report
    def walk(node):
        if isinstance(node, dict):
            if set(node) == {"N", "coeffs"}:
                z = Cyc.from_json(node).to_complex()
                return {**node, "float": [z.real, z.imag]}
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(x) for x in node]
        return node
    return walk(report)


def emit(report: dict, args) -> None:
    report = with_floats(report, args.float)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / f"{report['subcommand']}.json").write_text(text + "\n")
    else:
        print(text)


def cmd_group(scenario, args):
    group = build_group(_required(scenario, "group"))
    return {
        "subcommand": "group",
        "order": group.n,
        "labels": group.labels,
        "inverses": {group.labels[g]: group.labels[group.inv[g]] for g in range(group.n)},
    }


def cmd_classes(scenario, args):
    group = build_group(_required(scenario, "group"))
    out = []
    for cls_ in group.conjugacy_classes():
        ctx = class_context(group, cls_[0])
        out.append(
            {
                "representative": group.labels[cls_[0]],
                "elements": [group.labels[c] for c in cls_],
                "centralizer_order": ctx.centralizer.n,
            }
        )
    report = {"subcommand": "classes", "classes": out}
    if "class_rep" in scenario:
        report["context"] = build_context(group, scenario).table_report()
    return report


def cmd_double_irreps(scenario, args):
    from .double import double_irreps

    group = build_group(_required(scenario, "group"))
    blocks = []
    total = 0
    for ctx, pi in double_irreps(group):
        dim = len(ctx.cls) * pi.dim
        total += dim * dim
        blocks.append(
            {
                "class": group.labels[ctx.rep],
                "pi": pi.name,
                "dimension": dim,
            }
        )
    return {
        "subcommand": "double-irreps",
        "blocks": blocks,
        "sum_of_squares": total,
        "group_order_squared": group.n * group.n,
    }


def cmd_transfer(scenario, args):
    from .double import build_VCpi
    from .transfer import factorization_check, transfer_to_group_algebra

    group, ctx, pi = _block(scenario)
    module = build_VCpi(ctx, pi)
    cols = transfer_to_group_algebra(ctx, pi, module)
    image = {}
    for (c, i), col in sorted(cols.items()):
        entries = [
            {"position": group.labels[g], "fiber": str(module.basis[w]), "coeff": scalar_json(v)}
            for (g, w), v in sorted(col.items())
        ]
        image[f"({group.labels[c]},{i})"] = entries
    return {
        "subcommand": "transfer",
        "normalisation": scalar_json(cyc(Fraction(ctx.centralizer.n, group.n))),
        "image": image,
        "factors_through_functions": factorization_check(ctx, pi, module),
    }


def _preferred_basis(group: FiniteGroup, scenario: dict):
    """The scenario's Lambda^1 basis labels, or None to let the calculus choose."""
    basis = scenario.get("basis")
    return None if basis is None else _labels(group, basis, "basis")


def cmd_calculus(scenario, args):
    from .reps import induced_rep
    from .calculus import fodc_group_algebra, lambda_basis

    group, ctx, pi = _block(scenario)
    rho = induced_rep(ctx, pi)
    calc = fodc_group_algebra(rho)
    basis = lambda_basis(calc, preferred=_preferred_basis(group, scenario))
    report = {
        "subcommand": "calculus",
        "lambda_dim": calc.lambda_dim,
        "connected": calc.is_connected(),
        "inner": calc.is_inner()[0],
        "basis": [group.labels[g] for g in basis.basis],
        "gamma": {},
        "rho": {},
    }
    for gen in _labels(group, scenario.get("print_matrices", []), "print_matrices"):
        g = group.element(gen)
        report["gamma"][gen] = [[scalar_json(x) for x in row] for row in basis.gamma(g)]
        report["rho"][gen] = [[scalar_json(x) for x in row] for row in basis.rho_matrix(g)]
    return report


def cmd_geometry(scenario, args):
    from .reps import induced_rep
    from .calculus import fodc_group_algebra, lambda_basis
    from .poly import Poly
    from .geometry import (
        LINEAR_FLAGS,
        connection_solve,
        ip_from_lengths,
        metric_compat_residuals,
        ricci_scalar,
        riemann_compat_residuals,
        star_compat_residuals,
    )

    residuals = {
        "metric_compat": metric_compat_residuals,
        "star_compat": lambda family, ip: star_compat_residuals(family.complex_split()),
        "riemann_compat": lambda family, ip: riemann_compat_residuals(family),
    }
    flags = scenario.get("flags", list(LINEAR_FLAGS))
    if not isinstance(flags, list):
        raise ConfigError(f"flags: expected a list of flag names, got {flags!r}")
    for flag in flags:
        if not (isinstance(flag, str) and (flag in LINEAR_FLAGS or flag in residuals)):
            raise ConfigError(
                f"flags: unknown flag {flag!r}, expected one of {[*LINEAR_FLAGS, *residuals]}"
            )
    ricci = scenario.get("ricci", False)
    if not isinstance(ricci, bool):
        raise ConfigError(f"ricci: expected true or false, got {ricci!r}")
    group, ctx, pi = _block(scenario)
    calc = fodc_group_algebra(induced_rep(ctx, pi))
    basis = lambda_basis(calc, preferred=_preferred_basis(group, scenario))
    lengths_spec = scenario.get("lengths", {})
    if not isinstance(lengths_spec, dict):
        raise ConfigError(
            f"lengths: expected an object from element labels to lengths, got {lengths_spec!r}"
        )
    _labels(group, list(lengths_spec), "lengths")
    variables = tuple(sorted({v for v in lengths_spec.values() if isinstance(v, str)}))
    lengths = {}
    for key, value in lengths_spec.items():
        if isinstance(value, str):
            if not value.isidentifier():
                raise ConfigError(f"lengths.{key}: {value!r} is neither a number nor a variable name")
            lengths[key] = Poly.variable(value, variables)
        else:
            lengths[key] = cyc(exact_number(value, f"lengths.{key}"))
    if "stratum" in scenario:
        # bindings like l1 = (a/b) l2
        stratum = scenario["stratum"]
        if not (
            isinstance(stratum, list) and len(stratum) == 4
            and isinstance(stratum[0], str) and isinstance(stratum[3], str)
        ):
            raise ConfigError(f"stratum: expected [target, num, den, source], got {stratum!r}")
        target, num, den, source = stratum
        _labels(group, [target], "stratum")
        if source not in variables:
            raise ConfigError(
                f"stratum: source {source!r} is not a length variable, "
                f"expected one of {list(variables)}"
            )
        target_class = group.class_of(group.element(target))
        if target_class == [0]:
            raise ConfigError(f"stratum: target {target!r} is the identity, whose length is 0")
        for key in lengths:
            if group.element(key) in target_class:
                raise ConfigError(
                    f"stratum: target {target!r} is in the class of the lengths key {key!r}"
                )
        lengths[target] = Poly.variable(source, variables) * cyc(exact_number([num, den], "stratum"))
    ip = ip_from_lengths(basis, lengths, variables)
    family = connection_solve(basis, ip, [f for f in flags if f in LINEAR_FLAGS])
    report = {
        "subcommand": "geometry",
        "metric_determinant": scalar_json(ip.det()),
        "strictly_covariant_gram": ip.covariant(),
        "family_dimension": family.n_params(),
        "free_parameters": list(family.params),
        "residual_flags": {},
    }
    for flag in flags:
        if flag in residuals:
            res = residuals[flag](family, ip)
            report["residual_flags"][flag] = {
                "residual_count": len(res),
                "satisfied_identically": not res,
            }
    if ricci:
        scal = ricci_scalar(family, ip)
        report["ricci_scalar"] = scalar_json(scal)
    return report


def cmd_dual(scenario, args):
    from .reps import irrep_catalog
    from .dualgeometry import dual_constraints

    group = build_group(_required(scenario, "group"))
    subset = _labels(group, _required(scenario, "subset"), "subset")
    irreps = irrep_catalog(group)
    weight_vars = {}
    counter = 1
    for cls_ in group.conjugacy_classes():
        if group.labels[cls_[0]] in subset or any(
            group.labels[c] in subset for c in cls_
        ):
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


def cmd_braided(scenario, args):
    from .braided import covering_map_image, lie_cpi

    _, ctx, pi = _block(scenario)
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
        "image": covering_map_image([(ctx, pi)]),
    }


def cmd_killing(scenario, args):
    from .braided import killing_form, lie_cpi
    from . import linalg

    _, ctx, pi = _block(scenario)
    lie = lie_cpi(ctx, pi)
    K = killing_form(lie)
    return {
        "subcommand": "killing",
        "matrix": [[scalar_json(x) for x in row] for row in K],
        "nondegenerate": linalg.rank(K) == lie.dim,
    }


def cmd_envelope(scenario, args):
    from .braided import envelope, frt, lie_cpi

    if args.degree < 0:
        raise ConfigError(f"--degree must be 0 or more, got {args.degree}")
    _, ctx, pi = _block(scenario)
    lie = lie_cpi(ctx, pi)
    return {
        "subcommand": "envelope",
        "enveloping_dims": envelope(lie).hilbert_prefix(args.degree),
        "frt_dims": frt([(ctx, pi)]).hilbert_prefix(args.degree),
    }


def cmd_quotient(scenario, args):
    from .braided import quotient_hopf

    _, ctx, pi = _block(scenario)
    H, B = quotient_hopf(ctx, pi)
    return {
        "subcommand": "quotient",
        "hopf_dims": H.hilbert_prefix(2),
        "braided_dims": B.hilbert_prefix(2),
    }


def cmd_verify_paper(scenario, args):
    from .regression import run_regression

    results = run_regression()
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
        print(line, file=sys.stderr)
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


def default_scenario_path() -> str:
    return str(Path(__file__).parent / "scenarios" / "s3_case_ii.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qdouble", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", default=None, help="scenario JSON path")
    parser.add_argument("--out", default=None, help="report output directory")
    parser.add_argument("--degree", type=int, default=3, help="graded dimension cutoff")
    parser.add_argument("--float", action="store_true", help="append numeric renderings")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario) if args.scenario else (
            load_scenario(default_scenario_path()) if args.subcommand != "verify-paper" else {}
        )
        report = COMMANDS[args.subcommand](scenario, args)
    except (ConfigError, ValueError, KeyError) as ex:
        print(f"configuration error: {ex}", file=sys.stderr)
        return 2
    emit(report, args)
    if args.subcommand == "verify-paper" and report["failed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
