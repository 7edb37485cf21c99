"""Runs one rootfold CLI job in-process with every traced function wrapped.

Usage: launch.py <spans.json> <job id> <rootfold arguments...>

Equivalent to ``python -m rootfold <arguments...>``, except that the spans of
the job are written to spans.json before exiting with the CLI's exit code.
"""

import sys

import rootfold.cli
from tracer import Tracer


def main():
    spans_path, job = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.install()
    tracer.job = job
    try:
        code = rootfold.cli.main(sys.argv[3:])
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
