"""Run the reflectjet command line with the benchmark's tracer installed,
and write its spans and counts to a file when the command ends.

Usage: python3 perfbench/cli_traced.py SPANS_FILE CLI_ARGUMENTS...
"""

import sys

import reflectjet.cli

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return reflectjet.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
