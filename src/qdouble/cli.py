"""Command line driver.

Subcommands consume a scenario JSON and emit deterministic reports with
exact cyclotomic serialization ({"N": ..., "coeffs": [[num, den], ...]})
and optional floating-point renderings.  ``verify-paper`` runs the bundled
regression suite and exits nonzero on any mismatch.

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
from .reps import catalog, centralizer_character, irrep_catalog, induced_rep
from .double import build_VCpi, double_irreps
from .transfer import (
    transfer_to_group_algebra,
    factorization_check,
)
from .calculus import fodc_group_algebra, lambda_basis
from .geometry import (
    ip_from_lengths,
    connection_solve,
    metric_compat_residuals,
    star_compat_residuals,
    riemann_compat_residuals,
    ricci_scalar,
)
from .dualgeometry import dual_constraints
from .braided import (
    lie_cpi,
    envelope,
    frt,
    covering_map_image,
    killing_form,
    quotient_hopf,
)
from .poly import Poly
from . import linalg


class ConfigError(Exception):
    pass


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigError(f"cannot read scenario: {ex}")


def build_group(spec: dict) -> FiniteGroup:
    if spec.get("name") == "s3_uvw":
        return FiniteGroup.s3_with_uvw_labels()
    if spec.get("name") == "symmetric":
        return FiniteGroup.symmetric(_integer(spec.get("degree"), "group.degree"))
    if spec.get("name") == "cyclic":
        return FiniteGroup.cyclic(_integer(spec.get("order"), "group.order"))
    if "generators" in spec:
        degree = spec.get("degree")
        return FiniteGroup.from_generators(
            spec["generators"],
            labels=spec.get("labels"),
            degree=None if degree is None else _integer(degree, "group.degree"),
            relabel=spec.get("relabel"),
        )
    raise ConfigError("group spec needs a name or generators")


def build_context(group: FiniteGroup, scenario: dict):
    rep = scenario.get("class_rep")
    if rep is None:
        raise ConfigError("scenario needs class_rep")
    return class_context(group, rep, q_override=scenario.get("q_override"))


# the key each irrep kind requires, None for none
_IRREP_KEYS = {
    "centralizer_character": "j", "cyclic": "j", "seminormal": "partition", "user": "matrices",
    "trivial": None, "sign": None, "s3_two_dim": None, "dihedral2": None,
}


def build_pi(ctx, scenario: dict):
    """The scenario's centralizer irrep, its spec checked in full first."""
    spec = scenario.get("irrep")
    if spec is None:
        raise ConfigError("scenario needs an irrep spec")
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _IRREP_KEYS:
        raise ConfigError(f"irrep.kind: expected one of {sorted(_IRREP_KEYS)}, got {kind!r}")
    key = _IRREP_KEYS[kind]
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
    group = build_group(scenario["group"])
    ctx = build_context(group, scenario)
    return group, ctx, build_pi(ctx, scenario)


def _is_integer(value) -> bool:
    """The one scenario integer rule: an int, not a bool, a float or a string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, key: str) -> int:
    if not _is_integer(value):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
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
        f"{key}: expected an integer or an [integer, integer] pair with a nonzero denominator, "
        f"got {value!r}"
    )


def scalar_json(value) -> dict:
    if isinstance(value, Cyc):
        return value.to_json()
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
    group = build_group(scenario["group"])
    return {
        "subcommand": "group",
        "order": group.n,
        "labels": group.labels,
        "inverses": {group.labels[g]: group.labels[group.inv[g]] for g in range(group.n)},
    }


def cmd_classes(scenario, args):
    group = build_group(scenario["group"])
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
    group = build_group(scenario["group"])
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
    group, ctx, pi = _block(scenario)
    module = build_VCpi(ctx, pi)
    cols = transfer_to_group_algebra(ctx, pi, module)
    image = {}
    for (c, i), col in sorted(cols.items()):
        entries = [
            {
                "position": group.labels[idx // module.dim],
                "fiber": str(module.basis[idx % module.dim]),
                "coeff": scalar_json(v),
            }
            for idx, v in enumerate(col)
            if v
        ]
        image[f"({group.labels[c]},{i})"] = entries
    return {
        "subcommand": "transfer",
        "normalisation": scalar_json(cyc(Fraction(ctx.centralizer.n, group.n))),
        "image": image,
        "factors_through_functions": factorization_check(ctx, pi, module),
    }


def cmd_calculus(scenario, args):
    group, ctx, pi = _block(scenario)
    rho = induced_rep(ctx, pi)
    calc = fodc_group_algebra(rho)
    basis = lambda_basis(calc, preferred=scenario.get("basis"))
    report = {
        "subcommand": "calculus",
        "lambda_dim": calc.lambda_dim,
        "connected": calc.is_connected(),
        "inner": calc.is_inner()[0],
        "basis": [group.labels[g] for g in basis.basis],
        "gamma": {},
        "rho": {},
    }
    for gen in scenario.get("print_matrices", []):
        g = group.element(gen)
        report["gamma"][gen] = [[scalar_json(x) for x in row] for row in basis.gamma(g)]
        report["rho"][gen] = [[scalar_json(x) for x in row] for row in basis.rho_matrix(g)]
    return report


def cmd_geometry(scenario, args):
    group, ctx, pi = _block(scenario)
    calc = fodc_group_algebra(induced_rep(ctx, pi))
    basis = lambda_basis(calc, preferred=scenario.get("basis"))
    lengths_spec = scenario.get("lengths", {})
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
        target, num, den, source = scenario["stratum"]
        lengths[target] = Poly.variable(source, variables) * cyc(exact_number([num, den], "stratum"))
    ip = ip_from_lengths(basis, lengths, variables)
    flags = scenario.get("flags", ["covariant", "torsion_free", "cotorsion_free"])
    linear = [f for f in flags if f in ("covariant", "torsion_free", "cotorsion_free")]
    family = connection_solve(basis, ip, linear)
    report = {
        "subcommand": "geometry",
        "metric_determinant": scalar_json(ip.det()),
        "strictly_covariant_gram": ip.covariant(),
        "family_dimension": family.n_params(),
        "free_parameters": list(family.params),
        "residual_flags": {},
    }
    for flag in flags:
        if flag == "metric_compat":
            res = metric_compat_residuals(family, ip)
        elif flag == "star_compat":
            res = star_compat_residuals(family.complex_split())
        elif flag == "riemann_compat":
            res = riemann_compat_residuals(family)
        else:
            continue
        report["residual_flags"][flag] = {
            "residual_count": len(res),
            "satisfied_identically": not res,
        }
    if scenario.get("ricci"):
        scal = ricci_scalar(family, ip)
        report["ricci_scalar"] = scalar_json(scal)
    return report


def cmd_dual(scenario, args):
    group = build_group(scenario["group"])
    subset = scenario["subset"]
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
    _, ctx, pi = _block(scenario)
    lie = lie_cpi(ctx, pi)
    return {
        "subcommand": "braided",
        "dimension": lie.dim,
        "axioms": lie.axioms(),
        "image": covering_map_image([(ctx, pi)]),
    }


def cmd_killing(scenario, args):
    _, ctx, pi = _block(scenario)
    lie = lie_cpi(ctx, pi)
    K = killing_form(lie)
    return {
        "subcommand": "killing",
        "matrix": [[scalar_json(x) for x in row] for row in K],
        "nondegenerate": linalg.rank(K) == lie.dim,
    }


def cmd_envelope(scenario, args):
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
    except ConfigError as ex:
        print(f"configuration error: {ex}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as ex:
        print(f"configuration error: {ex}", file=sys.stderr)
        return 2
    emit(report, args)
    if args.subcommand == "verify-paper" and report["failed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
