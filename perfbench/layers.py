"""Per-layer metrics of the traced run, and where each must be nonzero.

Every metric is named ``<module>.<metric>`` after the qdouble module it
measures.  ``SPEC`` maps a metric to how it is computed from the span
dumps; ``EXPECT`` names the workloads on which the metric must be nonzero.
A traced run fails when a function named here no longer exists, or when
an expected metric reads zero: a renamed function or a rebinding the
tracer missed would otherwise report silent zeros.
"""

from __future__ import annotations

from tracer import MODULES, Profile

CYC = "cyclotomic.Cyc."
CYC_ORDERS = (1, 2, 3, 4, 12)
SUBCOMMANDS = (
    "group",
    "classes",
    "double-irreps",
    "transfer",
    "calculus",
    "geometry",
    "dual",
    "braided",
    "killing",
    "envelope",
    "quotient",
    "verify-paper",
)
BRACKETS = [f"braided.{c}.bracket" for c in ("BraidedLie", "BlockBraidedLie", "RegularBraidedLie")]
AXIOMS = [f"braided.BraidedLie.check_{a}" for a in ("L1", "L2", "L3", "L4", "braid_relation")]
RATFUNC_OPS = [
    f"poly.RatFunc.{op}"
    for op in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__rtruediv__")
]
GROUP_BUILDERS = [
    f"groups.FiniteGroup.{m}"
    for m in ("__init__", "from_generators", "symmetric", "cyclic", "s3_with_uvw_labels")
] + ["groups.Subgroup.__init__"]

# metric -> (kind, functions); kinds: calls, returned, raised, busy
SPEC: dict[str, tuple[str, list[str]]] = {
    "cyclotomic.mul": ("calls", [CYC + "__mul__"]),
    "cyclotomic.add": ("calls", [CYC + op for op in ("__add__", "__sub__", "__rsub__", "__neg__")]),
    "cyclotomic.inverse": ("calls", [CYC + "inverse"]),
    "cyclotomic.promote": ("calls", [CYC + "promote"]),
    "cyclotomic.eq_hash": ("calls", [CYC + "__eq__", CYC + "__hash__"]),
    "linalg.rref": ("calls", ["linalg.rref"]),
    "linalg.mat_mul": ("calls", ["linalg.mat_mul"]),
    "linalg.sparse_add": ("calls", ["linalg.SparseSpan.add"]),
    "reps.validated": ("returned", ["reps.Rep._validate"]),
    "reps.rejected": ("raised", ["reps.Rep._validate"]),
    "double.module_verified": ("returned", ["double.CrossedModule.verify"]),
    "double.dg_mul": ("calls", ["double.DoubleElement.dg_mul"]),
    "calculus.is_inner_s": (
        "busy",
        ["calculus.FunctionCalculus.is_inner", "calculus.GroupAlgebraCalculus.is_inner"],
    ),
    "calculus.lambda_basis_s": ("busy", ["calculus.lambda_basis", "calculus.LambdaBasis.__init__"]),
    "braided.axiom_checks": ("calls", AXIOMS),
    "braided.bracket": ("calls", BRACKETS),
    "poly.mul": ("calls", ["poly.Poly.__mul__"]),
    "poly.gcd": ("calls", ["poly.poly_gcd"]),
    "poly.ratfunc_ops": ("calls", RATFUNC_OPS),
    "geometry.connection_solve_s": ("busy", ["geometry.connection_solve"]),
    "quadalg.graded_dimension": ("calls", ["quadalg.QuadAlg.graded_dimension"]),
    "groups.build_s": ("busy", GROUP_BUILDERS),
    "cli.emit_s": ("busy", ["cli.emit"]),
}
SPEC.update({f"regression.c{k}_s": ("busy", [f"regression.criterion_{k}"]) for k in range(1, 16)})
SPEC.update({f"cli.{s}_s": ("busy", [f"cli.cmd_{s.replace('-', '_')}"]) for s in SUBCOMMANDS})

DERIVED = (
    [f"cyclotomic.order_{n}" for n in CYC_ORDERS]
    + ["cyclotomic.order_other", "linalg.rref_cells", "linalg.rank_yield", "linalg.sparse_add_yield"]
    + [f"{m}.{k}" for m in MODULES for k in ("busy_s", "self_s")]
    + ["trace.overhead_ratio"]
)
NAMES = list(SPEC) + DERIVED

ALL = ("paper", "s3-reports", "s4-scale")
PAPER_S3 = ("paper", "s3-reports")
PAPER_S4 = ("paper", "s4-scale")
EXPECT: dict[str, tuple[str, ...]] = {
    "cyclotomic.mul": ALL,
    "cyclotomic.add": ALL,
    "cyclotomic.inverse": ALL,
    "cyclotomic.promote": ALL,
    "cyclotomic.eq_hash": ALL,
    "cyclotomic.order_1": ALL,
    "cyclotomic.order_2": PAPER_S3,
    "cyclotomic.order_3": PAPER_S3,
    "cyclotomic.order_4": PAPER_S4,
    "cyclotomic.order_12": ("paper",),
    "linalg.rref": ALL,
    "linalg.rref_cells": ALL,
    "linalg.rank_yield": ALL,
    "linalg.mat_mul": ALL,
    "linalg.sparse_add": ("s3-reports",),
    "linalg.sparse_add_yield": ("s3-reports",),
    "reps.validated": ("s4-scale",),
    "double.module_verified": ("s4-scale",),
    "double.dg_mul": ("s4-scale",),
    "calculus.is_inner_s": ("s3-reports",),
    "calculus.lambda_basis_s": ("s3-reports",),
    "braided.axiom_checks": PAPER_S4,
    "braided.bracket": PAPER_S4,
    "poly.mul": PAPER_S3,
    "poly.gcd": PAPER_S3,
    "poly.ratfunc_ops": PAPER_S3,
    "geometry.connection_solve_s": PAPER_S3,
    "quadalg.graded_dimension": ("s3-reports",),
    "groups.build_s": ALL,
    "cli.emit_s": ALL,
    "trace.overhead_ratio": ALL,
}
EXPECT.update({f"regression.c{k}_s": ("paper",) for k in range(1, 16)})
MODULE_WORKLOADS = {
    "regression": ("paper",),
    "calculus": PAPER_S3,
    "geometry": PAPER_S3,
    "dualgeometry": PAPER_S3,
    "poly": PAPER_S3,
}
EXPECT.update(
    {f"{m}.{k}": MODULE_WORKLOADS.get(m, ALL) for m in MODULES for k in ("busy_s", "self_s")}
)


def traffic(dumps: list[dict]) -> dict:
    """Cyc ops by order, rref/nullspace shape histograms and SparseSpan.add outcomes."""
    out = {"cyc_ops_by_order": {}, "rref_shapes": {}, "nullspace_shapes": {}, "sparse_add": [0, 0]}
    for d in dumps:
        for order, n in d["orders"].items():
            out["cyc_ops_by_order"][order] = out["cyc_ops_by_order"].get(order, 0) + n
        for kind, total in (("rref", "rank_sum"), ("nullspace", "nullity_sum")):
            hist = out[f"{kind}_shapes"]
            for shape, (n, dim) in d["shapes"][kind].items():
                entry = hist.setdefault(shape, {"calls": 0, total: 0})
                entry["calls"] += n
                entry[total] += dim
        out["sparse_add"] = [a + b for a, b in zip(out["sparse_add"], d["sparse_add"])]
    return out


def compute(profile: Profile, overhead_ratio: float) -> dict[str, float]:
    """Every metric in NAMES for one traced pass."""
    out: dict[str, float] = {}
    for name, (kind, funcs) in SPEC.items():
        wanted = set(funcs)
        if kind == "busy":
            out[name] = profile.busy(wanted.__contains__)
        elif kind == "calls":
            out[name] = profile.calls(wanted)
        elif kind == "raised":
            out[name] = profile.raised(wanted)
        else:
            out[name] = profile.calls(wanted) - profile.raised(wanted)
    seen = traffic(profile.dumps)
    orders = {int(k): n for k, n in seen["cyc_ops_by_order"].items()}
    for n in CYC_ORDERS:
        out[f"cyclotomic.order_{n}"] = orders.get(n, 0)
    out["cyclotomic.order_other"] = sum(n for k, n in orders.items() if k not in CYC_ORDERS)
    rows = cells = rank = 0
    for shape, entry in seen["rref_shapes"].items():
        nr, nc = map(int, shape.split("x"))
        rows += entry["calls"] * nr
        cells += entry["calls"] * nr * nc
        rank += entry["rank_sum"]
    out["linalg.rref_cells"] = cells
    out["linalg.rank_yield"] = rank / rows if rows else 0.0
    adds, raised = seen["sparse_add"]
    out["linalg.sparse_add_yield"] = raised / adds if adds else 0.0
    for m in MODULES:
        out[f"{m}.busy_s"] = profile.busy(lambda f, m=m: f.startswith(m + "."))
        out[f"{m}.self_s"] = profile.self_time(lambda f, m=m: f.startswith(m + "."))
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def problems(profile: Profile, metrics: dict[str, float], workload: str, subcommands) -> list[str]:
    """Declared functions that do not exist, and expected metrics that read zero.

    Besides EXPECT, ``cli.<subcommand>_s`` must be nonzero for every
    subcommand the workload runs.
    """
    known = profile.known()
    expected = [name for name, workloads in EXPECT.items() if workload in workloads]
    expected += [f"cli.{s}_s" for s in sorted(set(subcommands))]
    out = [f"no such function: {f}" for _, fs in SPEC.values() for f in fs if f not in known]
    out += [f"{name} is zero on {workload}" for name in expected if not metrics.get(name)]
    return out
