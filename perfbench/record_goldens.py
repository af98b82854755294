"""Record the golden outputs the benchmark checks against.

Usage: python3 perfbench/record_goldens.py [workload ...]

Runs every op of the named workloads (default: all) once, from the current
source tree, and rewrites golden/<workload>.json.  Record only from a
commit whose outputs are known to be right: the goldens are the
benchmark's definition of a correct result.
"""

import json
import sys

import run


def record(workload: str) -> None:
    ops = {}
    for op in run.WORKLOADS[workload]:
        child = run.run_child([sys.executable, "-c", run.CLI, *op.args], 0, run.RUN_LIMIT)
        if child.returncode != 0:
            raise SystemExit(f"{op.id}: exit code {child.returncode}\n{child.stderr}")
        ops[op.id] = run.parse_output(op, child.stdout, child.stderr)
        print(f"{child.wall:8.3f} s  {op.id}")
    with open(run.GOLDEN / f"{workload}.json", "w") as fh:
        json.dump({"ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or sorted(run.WORKLOADS):
        record(workload)


if __name__ == "__main__":
    main()
