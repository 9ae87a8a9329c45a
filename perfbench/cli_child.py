"""Run the gtld CLI in this process with the benchmark's tracer installed.

Usage: python3 -X importtime perfbench/cli_child.py SPANS.csv [gtld CLI args]

The traced counterpart of ``python3 -m gtld.cli [args]``: same exit code and
output, plus the spans of the call written to SPANS.csv on the way out.
"""

import os
import sys

from tracer import Tracer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

COMMANDS = ("fit", "props", "simulate", "curves")


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import gtld.cli

    tracer = Tracer()
    tracer.install()
    command = next((a for a in argv if a in COMMANDS), "none")
    try:
        return tracer.wrap(gtld.cli.main, f"cli.main.{command}")(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
