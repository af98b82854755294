"""Record the report corpus: the bytes every pinned ``qdouble`` op prints.

``report_corpus.json`` maps each op's argv (joined by spaces) to the sha256
of its stdout, the sha256 of its stderr and its exit code.  The ops are the
11 subcommands on the four bundled scenarios and on
``perfbench/scenarios/s4_four_cycle.json``, ``envelope --degree 4`` on
``s3_case_iii_plus``, ``envelope --degree 3`` on the S4 block,
``transfer --float``, ``verify-paper``, and ``transfer``, ``calculus``,
``braided`` and ``quotient`` on ``tests/scenarios/s4_double_transposition.json``,
a block whose centralizer irrep has dimension 2, and ``geometry`` on
``tests/scenarios/s3_all_residuals.json``, the stratum block with every
residual flag, the star and Riemann ones included, and ``calculus`` on
``tests/scenarios/c1_trivial.json``, the order-1 group, which has no
generators and so no innerness constraint, and ``group`` and ``classes`` on
``tests/scenarios/s1_symmetric.json``, the symmetric group of degree 1,
which is that same order-1 group, and ``geometry`` on
``tests/scenarios/s3_transposition_sign.json``, the transposition class with
the sign character, whose cotorsion kernel has non-constant denominators
for ``connection_solve`` to clear, and ``geometry`` on
``tests/scenarios/s3_degenerate_metric.json``, the ``s3_case_ii`` block with
lengths whose metric determinant is 0, asked only for the flags that need no
inverse metric, and ``quotient`` on ``tests/scenarios/s4_four_cycle_j2.json``,
the S4 4-cycle block with j = 2, whose braided antipode leaves the enveloping
algebra's relations and so is refused.  Each runs in process
through ``cli.main``, with paths relative to the repository root.

Run from the repository root:

    PYTHONPATH=src python tests/record_report_corpus.py

It records only the ops missing from ``report_corpus.json`` and drops the
entries of ops no longer in ``OPS``; it never rewrites a recorded entry, so
running it cannot silently re-pin an op whose bytes moved.  To re-record an
intended byte change, delete that op's entry from the file first.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from qdouble import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "report_corpus.json"
SCENARIOS = [
    "src/qdouble/scenarios/s3_case_ii.json",
    "src/qdouble/scenarios/s3_case_ii_stratum.json",
    "src/qdouble/scenarios/s3_case_iii_plus.json",
    "src/qdouble/scenarios/s3_dual_union.json",
    "perfbench/scenarios/s4_four_cycle.json",
]
DIM2_SCENARIO = "tests/scenarios/s4_double_transposition.json"
RESIDUALS_SCENARIO = "tests/scenarios/s3_all_residuals.json"
C1_SCENARIO = "tests/scenarios/c1_trivial.json"
S1_SCENARIO = "tests/scenarios/s1_symmetric.json"
SIGN_SCENARIO = "tests/scenarios/s3_transposition_sign.json"
DEGENERATE_SCENARIO = "tests/scenarios/s3_degenerate_metric.json"
J2_SCENARIO = "tests/scenarios/s4_four_cycle_j2.json"
REPORTS = [c for c in sorted(cli.COMMANDS) if c != "verify-paper"]
OPS = (
    [(c, "--scenario", s) for s in SCENARIOS for c in REPORTS]
    + [
        ("envelope", "--scenario", "src/qdouble/scenarios/s3_case_iii_plus.json", "--degree", "4"),
        ("envelope", "--scenario", "perfbench/scenarios/s4_four_cycle.json", "--degree", "3"),
        ("transfer", "--float"),
        ("verify-paper",),
    ]
    + [(c, "--scenario", DIM2_SCENARIO) for c in ("transfer", "calculus", "braided", "quotient")]
    + [("geometry", "--scenario", RESIDUALS_SCENARIO), ("calculus", "--scenario", C1_SCENARIO)]
    + [(c, "--scenario", S1_SCENARIO) for c in ("group", "classes")]
    + [("geometry", "--scenario", SIGN_SCENARIO), ("geometry", "--scenario", DEGENERATE_SCENARIO)]
    + [("quotient", "--scenario", J2_SCENARIO)]
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(argv) -> dict:
    """The sha256 of the op's stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()), "exit": code}


def main():
    os.chdir(ROOT)
    recorded = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    corpus, added = {}, 0
    for argv in OPS:
        key = " ".join(argv)
        if key not in recorded:
            recorded[key] = run_op(argv)
            added += 1
        corpus[key] = recorded[key]
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    dropped = len(recorded) - len(corpus)
    print(f"{added} ops recorded, {dropped} dropped, {len(corpus)} in {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
