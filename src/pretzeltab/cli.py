"""Command-line interface: table, count, list, verify and fit subcommands.

Exit codes: 0 success, 1 argument error, 2 verification mismatch,
3 resource ceiling exceeded (the enumeration ceiling or ``counts.MAX_C``),
4 I/O error (a failed write to stdout or to ``table --out``, also a reader
that closes stdout early), 5 internal error (a failed exactness check,
``ArithmeticError``).

Each command imports only the modules it runs: ``table`` and ``count`` never
load the oracle in ``tcodes`` or the fit.
"""
from __future__ import annotations

import argparse
# Kept at the top: perfbench/child.py imports json right after this module, so
# deferring it into the JSON branches only moves its cost into the timed wall_s.
import json
import os
import sys

from . import counts
from .combinat import DEFAULT_ENUM_CEILING, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

CSV_HEADER = ",".join(counts.CountRow._fields)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # argparse's own print_help drops a failed write; this lets it reach main (exit 4).
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(prog="pretzeltab",
                     description="Tabulate alternating oriented pretzel links by crossing number.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit count rows for a crossing-number range")
    table.add_argument("--min", type=int, default=6, dest="min_c", metavar="N")
    table.add_argument("--max", type=int, default=50, dest="max_c", metavar="N")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", metavar="PATH", help="output file (default: stdout)")

    count = sub.add_parser("count", help="print counts for one crossing number")
    count.add_argument("-c", type=int, required=True, metavar="N")
    count.add_argument("--type", choices=("1", "2", "3", "all"), default="all")

    lst = sub.add_parser("list", help="list canonical class representatives")
    lst.add_argument("-c", type=int, required=True, metavar="N")
    lst.add_argument("--type", choices=("1", "2", "3"), required=True)
    lst.add_argument("--format", choices=("lines", "json"), default="lines")
    lst.add_argument("--ceiling", type=int, default=DEFAULT_ENUM_CEILING, metavar="N",
                     help="exhaustive-enumeration ceiling (default: %(default)s)")

    verify = sub.add_parser("verify", help="check closed-form counts against exhaustive enumeration")
    verify.add_argument("--max", type=int, default=16, dest="max_c", metavar="N")
    verify.add_argument("--ceiling", type=int, default=DEFAULT_ENUM_CEILING, metavar="N",
                        help="exhaustive-enumeration ceiling (default: %(default)s)")

    fit = sub.add_parser("fit", help="least-squares exponential growth fit of the counts")
    fit.add_argument("--min", type=int, default=6, dest="min_c", metavar="N")
    fit.add_argument("--max", type=int, default=50, dest="max_c", metavar="N")

    return parser


def _cmd_table(args) -> int:
    rows = counts.count_rows(args.min_c, args.max_c)
    if args.format == "csv":
        text = "\n".join([CSV_HEADER, *(",".join(map(str, row)) for row in rows)]) + "\n"
    else:
        # c stays a number; the counts are strings, exact in any JSON reader
        text = json.dumps([{field: value if field == "c" else str(value)
                            for field, value in row._asdict().items()} for row in rows],
                          indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"pretzeltab table: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_count(args) -> int:
    picked = counts.columns(args.c)
    if args.type != "all":
        picked = picked[int(args.type) - 1:int(args.type)]
    print(" ".join(str(column[args.c]) for column in picked))
    return EXIT_OK


def _cmd_list(args) -> int:
    from . import tcodes

    link_type = int(args.type)
    codes = (str(tcodes.TCode(link_type, delta, strips))
             for delta, strips in tcodes.class_strips(args.c, link_type, ceiling=args.ceiling))
    if args.format == "lines":
        for code in codes:
            print(code)
    else:
        print(json.dumps(list(codes), indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import tcodes

    # first, so that an oversized --max meets the enumeration ceiling, not MAX_C
    enumerated_rows = tcodes.class_counts(args.max_c, ceiling=args.ceiling)
    columns = counts.columns(args.max_c)
    failures = []
    print("   c  type     formula  enumerated  result")
    for c, row in enumerate(enumerated_rows, 1):
        for link_type, enumerated in enumerate(row, 1):
            formula = columns[link_type - 1][c]
            if formula != enumerated:
                failures.append(f"c={c} type {link_type} (formula {formula}, enumerated {enumerated})")
            print(f"{c:4d}  {link_type:4d}  {formula:10d}  {enumerated:10d}  "
                  f"{'PASS' if formula == enumerated else 'FAIL'}")
    checks = 3 * args.max_c
    print(f"verify: {checks - len(failures)}/{checks} checks passed")
    if failures:
        print(f"pretzeltab verify: first failure at {failures[0]}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_fit(args) -> int:
    from .fit import fit_growth

    result = fit_growth(args.min_c, args.max_c)
    print("model: p(c) ~ a * exp(b * c)")
    print(f"range: c = {result.c_min}..{result.c_max} ({result.n_points} points)")
    print(f"a  = {result.a:.6g}")
    print(f"b  = {result.b:.6g}")
    print(f"r2 = {result.r2:.6g}")
    print(f"2a = {2 * result.a:.6g}  (doubled-total prefactor)")
    return EXIT_OK


_COMMANDS = {
    "table": _cmd_table,
    "count": _cmd_count,
    "list": _cmd_list,
    "verify": _cmd_verify,
    "fit": _cmd_fit,
}


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (ValueError, ResourceLimitError) as exc:
        print(f"pretzeltab {args.command}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_USAGE
    except ArithmeticError as exc:
        print(f"pretzeltab {args.command}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        # Only a write to stdout gets here (``table --out`` reports its own);
        # a reader that closed the pipe early asked for no more, so no message.
        if not isinstance(exc, BrokenPipeError):
            print(f"pretzeltab {args.command}: cannot write output: {exc}", file=sys.stderr)
        raise


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:
        # fd 1 was closed at start-up (``>&-``): a read-only stand-in fails each write
        # with EBADF, as fd 1 would (closefd=False: no unclosed-file warning at exit)
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w", closefd=False)
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError:
        # stdout is closed (``| head``) or full.  As the Python docs' note on
        # SIGPIPE advises, point stdout at devnull, so that the interpreter's
        # last flush of the unwritten rest does not fail again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
