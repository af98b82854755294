"""Self-test of the benchmark's correctness gate and tracer.

Usage: python3 perfbench/selftest.py

Shows that the output check can fail: a corrupted golden must count its op
as failed.  Also checks the verify-paper parser and the tracer's alias
rebinding.  The name keeps pytest from collecting it with the package's
own tests; it runs a few cheap CLI commands and takes about two seconds.
"""

import json
import random
import subprocess
import sys
import time
import unittest

import run

S3_II = f"{run.S3_SCENARIOS}/s3_case_ii.json"
CHEAP = [run._report("group", S3_II), run._report("classes", S3_II)]


def _run_cheap(golden: dict) -> dict:
    p = run.run_pass(CHEAP, random.Random(0), golden, time.perf_counter() + 60)
    return run.result(p.failed == 0, p.attempted, p.failed, {})


class GoldenGate(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.golden = run.load_golden("s3-reports")

    def test_true_golden_passes(self):
        res = _run_cheap(self.golden)
        self.assertEqual((res["correct"], res["attempted"], res["failed"]), (True, 2, 0))

    def test_corrupted_golden_fails_its_op(self):
        golden = json.loads(json.dumps(self.golden))
        entry = golden[CHEAP[0].id]
        entry["sha256"] = ("0" if entry["sha256"][0] != "0" else "1") + entry["sha256"][1:]
        res = _run_cheap(golden)
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))
        self.assertGreater(res["failed"] / res["attempted"], 0)


class PaperVerdicts(unittest.TestCase):
    def setUp(self):
        self.op = run.WORKLOADS["paper"][0]
        self.golden = run.load_golden("paper")
        self.checks = self.golden[self.op.id]["checks"]
        report = {"subcommand": "verify-paper", "passed": len(self.checks), "failed": []}
        self.report = json.dumps(report, indent=2, sort_keys=True)

    def child(self, stdout, stderr=""):
        return run.Child(0, 1.0, 1.0, 20.0, stdout, stderr)

    def lines(self, checks):
        return "\n".join(f"{verdict}  {name}  [detail]" for name, verdict in checks) + "\n"

    def test_verdicts_on_stdout_or_stderr(self):
        lines = self.lines(self.checks)
        self.assertIsNone(run.failure(self.op, self.child(lines + self.report), self.golden))
        self.assertIsNone(run.failure(self.op, self.child(self.report, lines), self.golden))

    def test_fail_verdict_fails(self):
        checks = [list(c) for c in self.checks]
        checks[5][1] = "FAIL"
        why = run.failure(self.op, self.child(self.lines(checks) + self.report), self.golden)
        self.assertIn("FAIL verdicts", why)

    def test_missing_check_fails(self):
        lines = self.lines(self.checks[:-1])
        self.assertIsNotNone(run.failure(self.op, self.child(lines + self.report), self.golden))

    def test_nonzero_exit_fails(self):
        child = run.Child(3, 1.0, 1.0, 20.0, self.report, "")
        self.assertEqual(run.failure(self.op, child, self.golden), "exit code 3")


ALIASES = """
import tracer
tracer.install()
from qdouble import cli, geometry, regression
assert all(hasattr(f, "__wrapped__") for f in cli.COMMANDS.values())
assert regression.connection_solve is geometry.connection_solve
assert hasattr(regression.connection_solve, "__wrapped__")
assert all(hasattr(c, "__wrapped__") for c in regression.ALL_CRITERIA)
assert regression.ALL_CRITERIA[10] is regression.criterion_11
print("ok")
"""


class TracerRebinding(unittest.TestCase):
    def test_aliases_share_one_wrapper(self):
        env = {"PYTHONPATH": f"{run.SRC}:{run.BENCH}"}
        out = subprocess.run(
            [sys.executable, "-c", ALIASES], env=env, capture_output=True, text=True, timeout=60
        )
        self.assertEqual(out.stdout.strip(), "ok", out.stderr)


if __name__ == "__main__":
    unittest.main()
