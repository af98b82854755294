"""Record the report corpus: the bytes every pinned ``qdouble`` op prints.

``report_corpus.json`` maps each op's argv (joined by spaces) to the sha256
of its stdout, the sha256 of its stderr and its exit code.  The ops are the
11 subcommands on the four bundled scenarios and on
``perfbench/scenarios/s4_four_cycle.json``, ``envelope --degree 4``,
``transfer --float`` and ``verify-paper``.  Each runs in process through
``cli.main``, with paths relative to the repository root.

Run from the repository root, to re-record after an intended byte change:

    PYTHONPATH=src python tests/record_report_corpus.py
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
REPORTS = [c for c in sorted(cli.COMMANDS) if c != "verify-paper"]
OPS = (
    [(c, "--scenario", s) for s in SCENARIOS for c in REPORTS]
    + [
        ("envelope", "--scenario", "src/qdouble/scenarios/s3_case_iii_plus.json", "--degree", "4"),
        ("transfer", "--float"),
        ("verify-paper",),
    ]
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
    corpus = {" ".join(argv): run_op(argv) for argv in OPS}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} ops written to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
