"""Run one qdouble CLI command under the span tracer.

Usage: python3 perfbench/traced_cli.py <dump.json> <qdouble arguments...>

The tracer is installed before the command runs; the span dump is written
even when the command fails.  The exit code is the command's.
"""

import sys

import tracer


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.install()
    from qdouble.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        spans.dump(dump_path)


if __name__ == "__main__":
    sys.exit(main())
