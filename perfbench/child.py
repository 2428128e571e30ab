"""One benchmark operation: run the pretzeltab CLI once in this interpreter.

Usage: python3 child.py REPORT_FD [--trace] -- CLI_ARGS...

Runs like ``python -m pretzeltab.cli CLI_ARGS`` with the sources on
PYTHONPATH: same stdout, stderr and exit code.  It also writes one JSON
object to the inherited file descriptor REPORT_FD: the monotonic time at which
``pretzeltab.cli`` had finished importing and, with --trace, the per-layer
trace of the command.  The parent times the child from its own side of the
same monotonic clock.
"""
import sys
import time

import pretzeltab.cli as cli

IMPORTED = time.monotonic()


def main(argv: list[str]) -> int:
    import json
    import os

    sep = argv.index("--")
    report_fd = int(argv[0])
    tracer = None
    if "--trace" in argv[1:sep]:
        import layertrace

        tracer = layertrace.install()
    code = cli.main(argv[sep + 1:])
    sys.stdout.flush()
    report = {"imported": IMPORTED}
    if tracer is not None:
        report["trace"] = tracer.report()
    with os.fdopen(report_fd, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
