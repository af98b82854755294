"""qdouble benchmark: time to a correct verdict or report, measured from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no install.  Every op is
one ``qdouble`` CLI invocation in a fresh interpreter, as a user runs it, so
each op pays import time and refills the package's caches.  The load is a
closed loop with one client: one child process at a time, started when the
previous one has exited.  A pass runs every op of the workload once, in an
order drawn from the seed; passes repeat until the next one would end after
``--seconds``, so a pass longer than that runs once.

Workloads (why each was chosen is in README.md):
    paper       qdouble verify-paper, the 74 checks of the paper
    s3-reports  every report subcommand each bundled S3 scenario supports
    s4-scale    the report subcommands on S4 with an order-4 character

Every op's output is checked against a golden recorded from a known-good
commit (golden/<workload>.json); an op fails on a nonzero exit, a FAIL
verdict, a timeout or an output that differs from its golden.

With ``--trace 0`` the result reports the end-to-end metrics:
    wall_s       median wall time of one pass
    cpu_s        median user+sys CPU time of the pass's children
    setup_s      median time for a fresh interpreter to import qdouble.cli
                 and qdouble.regression, over 16 imports before and after
                 the passes
    peak_rss_mb  median over passes of the largest child max RSS in the pass
With ``--trace 1`` it runs one untraced pass and one pass under the span
tracer (tracer.py) and reports the per-layer metrics of layers.py; the
spans and the recorded traffic go to out/trace-<workload>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from tracer import Profile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"

CLI = "import sys; from qdouble.cli import main; sys.exit(main())"
SETUP = "import qdouble.cli, qdouble.regression"
SETUP_SAMPLES = 8  # before the passes, and again after them
RUN_LIMIT = 170.0  # seconds; a run must have ended within 180

S3_SCENARIOS = "src/qdouble/scenarios"
S4_SCENARIO = "perfbench/scenarios/s4_four_cycle.json"
SCENARIO_REPORTS = ("group", "classes", "double-irreps", "transfer", "calculus", "braided", "killing")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``id`` names its golden."""

    id: str
    args: tuple[str, ...]


def _report(subcommand: str, scenario: str, *extra: str) -> Op:
    name = Path(scenario).stem
    return Op(" ".join((subcommand, name) + extra), (subcommand, "--scenario", scenario) + extra)


def _s3(name: str) -> str:
    return f"{S3_SCENARIOS}/{name}.json"


WORKLOADS: dict[str, list[Op]] = {
    "paper": [Op("verify-paper", ("verify-paper",))],
    "s3-reports": (
        [_report(s, _s3("s3_case_ii")) for s in SCENARIO_REPORTS + ("geometry", "envelope")]
        + [_report(s, _s3("s3_case_ii_stratum")) for s in SCENARIO_REPORTS + ("geometry", "envelope")]
        + [_report(s, _s3("s3_case_iii_plus")) for s in SCENARIO_REPORTS + ("quotient",)]
        + [_report("envelope", _s3("s3_case_iii_plus"), "--degree", "4")]
        + [_report(s, _s3("s3_dual_union")) for s in ("group", "classes", "double-irreps", "dual")]
    ),
    # calculus on this scenario alone takes about 43 s, more than a run can
    # afford next to the other workloads; see README.md.
    "s4-scale": (
        [_report(s, S4_SCENARIO) for s in ("classes", "double-irreps", "transfer", "braided", "killing")]
        + [_report("envelope", S4_SCENARIO, "--degree", "2")]
    ),
}


# -- one child process ---------------------------------------------------------


@dataclass
class Child:
    returncode: int | None  # None when killed on timeout
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], hashseed: int, timeout: float) -> Child:
    """Run argv from the checkout root; rusage comes from this child alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hashseed)
    out_path, err_path = OUT / f"child-{os.getpid()}.stdout", OUT / f"child-{os.getpid()}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(
        returncode=proc.returncode if ready else None,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
    out_path.unlink()
    err_path.unlink()
    return child


# -- output checks -----------------------------------------------------------------

VERDICT = re.compile(r"^(PASS|FAIL)  (.+?)(?:  \[.*\])?$")


def digest(report) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parse_output(op: Op, stdout: str, stderr: str) -> dict:
    """The golden form of an op's output: report digest, plus verdicts for verify-paper.

    verify-paper prints its PASS/FAIL lines ahead of the JSON report; they
    are read from stdout or stderr, so moving them to stderr changes nothing.
    """
    if op.args[0] != "verify-paper":
        return {"sha256": digest(json.loads(stdout))}
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("{")), len(lines))
    report = json.loads("\n".join(lines[start:]))
    checks = []
    for line in lines[:start] + stderr.splitlines():
        m = VERDICT.match(line)
        if m:
            checks.append([m.group(2), m.group(1)])
    return {"sha256": digest(report), "checks": checks}


def failure(op: Op, child: Child, golden: dict) -> str | None:
    """Why the op failed, or None when its output matches the golden."""
    if child.returncode is None:
        return "timed out"
    if child.returncode != 0:
        return f"exit code {child.returncode}"
    try:
        got = parse_output(op, child.stdout, child.stderr)
    except ValueError as ex:
        return f"unparsable output: {ex}"
    bad = [name for name, verdict in got.get("checks", []) if verdict != "PASS"]
    if bad:
        return f"FAIL verdicts: {bad}"
    if op.id not in golden:
        return "no golden recorded"
    if got != golden[op.id]:
        return "output differs from its golden"
    return None


def load_golden(workload: str) -> dict:
    with open(GOLDEN / f"{workload}.json") as fh:
        return json.load(fh)["ops"]


# -- passes ----------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)


def run_pass(ops, rng, golden, deadline, trace=False) -> Pass:
    """Run every op once in a seeded order; stop at the first timeout."""
    result = Pass()
    for op in rng.sample(ops, len(ops)):
        hashseed = rng.randrange(2**32)
        argv = [sys.executable, "-c", CLI, *op.args]
        dump = OUT / f"spans-{os.getpid()}.json"
        if trace:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(dump), *op.args]
        child = run_child(argv, hashseed, deadline - time.perf_counter())
        result.attempted += 1
        result.wall += child.wall
        result.cpu += child.cpu
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        why = failure(op, child, golden)
        if why is not None:
            result.failed += 1
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", op.id)
            (OUT / f"failed-{slug}.stdout").write_text(child.stdout)
            (OUT / f"failed-{slug}.stderr").write_text(child.stderr)
            print(f"FAILED {op.id} (PYTHONHASHSEED={hashseed}): {why}", file=sys.stderr)
        if trace and dump.exists():
            with open(dump) as fh:
                result.spans.append({"op": op.id, "argv": list(op.args), **json.load(fh)})
            dump.unlink()
        print(f"  {child.wall:8.3f} s {child.rss_mb:7.1f} MB  {op.id}")
        if child.returncode is None:
            break
    return result


def setup_times(samples: int, deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and the regression suite."""
    times = []
    for _ in range(samples):
        child = run_child([sys.executable, "-c", SETUP], 0, deadline - time.perf_counter())
        if child.returncode != 0:
            raise RuntimeError(f"importing qdouble failed: {child.stderr.strip()}")
        times.append(child.wall)
    return times


def timed_run(ops, rng, golden, seconds: float, deadline: float) -> dict:
    setup_times(1, deadline)  # fills the bytecode cache; not counted
    # Half the samples before the passes and half after, so that a slow
    # spell of a shared host does not decide the median alone.
    setup = setup_times(SETUP_SAMPLES, deadline)
    passes: list[Pass] = []
    end = time.perf_counter() + seconds
    while True:
        p = run_pass(ops, rng, golden, deadline)
        passes.append(p)
        print(f"pass {len(passes)}: {p.wall:.3f} s wall, {p.cpu:.3f} s cpu, {p.failed} failed")
        if p.failed or time.perf_counter() + p.wall > min(end, deadline):
            break
    setup += setup_times(SETUP_SAMPLES, deadline)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    print(f"{len(passes)} passes, setup from {len(setup)} imports")
    return result(failed == 0, attempted, failed, metrics)


def traced_run(workload, ops, rng, golden, deadline) -> dict:
    base = run_pass(ops, rng, golden, deadline)
    traced = run_pass(ops, rng, golden, deadline, trace=True)
    attempted = base.attempted + traced.attempted
    failed = base.failed + traced.failed
    profile = Profile(traced.spans)
    values = layers.compute(profile, traced.wall / base.wall)
    problems = layers.problems(profile, values, workload, [op.args[0] for op in ops])
    for p in problems:
        print(f"TRACE {p}", file=sys.stderr)
    write_trace(workload, traced.spans)
    metrics = {name: (values[name], _unit(name)) for name in layers.NAMES}
    return result(failed == 0 and not problems, attempted, failed, metrics)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def write_trace(workload: str, spans: list) -> None:
    """Spans per op, plus the traffic: Cyc ops by order and rref/nullspace shapes."""
    seen = layers.traffic(spans)
    with open(OUT / f"trace-{workload}.json", "w") as fh:
        json.dump({"workload": workload, "traffic": seen, "ops": spans}, fh)
    print("traffic: " + json.dumps(seen, sort_keys=True))


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT
    if not (SRC / "qdouble" / "cli.py").is_file():
        print(f"no qdouble source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload]
    golden = load_golden(args.workload)
    rng = random.Random(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass")
    if args.trace:
        res = traced_run(args.workload, ops, rng, golden, deadline)
    else:
        res = timed_run(ops, rng, golden, args.seconds, deadline)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
