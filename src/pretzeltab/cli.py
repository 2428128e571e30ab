"""Command-line interface: table, count, list, verify and fit subcommands.

Exit codes: 0 success, 1 argument error, 2 verification mismatch,
3 resource ceiling exceeded (the enumeration ceiling or ``combinat.MAX_C``),
4 I/O error (a failed write to stdout, to stderr or to ``table --out``, also
a reader that closes stdout early), 5 internal error (a failed exactness check,
``ArithmeticError``).  ``main`` maps every exception to its code; a command
returns the others.

Each command's help line, handler and options are described once, in
``_SPEC``, and ``main`` calls the handler from there.  ``_read_plain`` reads a
plain command line (``table --min 6 --max 80``: exact ``FLAG VALUE`` pairs
with well-formed values) directly from it.  Every other spelling
(``-h``/``--help``, ``--max=8``, ``-c14``, an abbreviated flag, ``--``, a bad
value, a missing or unknown command) goes to the argparse parser that
``_build_parser`` builds from the same table, so every help text and usage
error comes from argparse, which is imported only then.  An
option's dest and metavar are derived, not listed: the dest is the flag
without its dashes, as argparse names it (``--min`` is ``args.min``), and the
metavar is ``N`` for an int and ``PATH`` for a path.

Each command imports only the modules it runs: ``table`` and ``count`` never
load the oracle or the fit, ``verify`` loads the oracle's walk in ``walk`` but
not the codes in ``tcodes``, and ``list`` loads both.

A process that runs ``main`` ends without the interpreter's exit-time garbage
collection (``gc.freeze`` at exit); library calls are not affected.
"""
import atexit
import gc
# Kept at the top: perfbench/child.py imports json right after this module, so
# deferring it into the JSON branches only moves its cost into the timed wall_s.
import json
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import counts
from .combinat import DEFAULT_ENUM_CEILING, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

CSV_HEADER = ",".join(counts.CountRow._fields)


class _Option(NamedTuple):
    flag: str
    kind: type | tuple[str, ...]  # int, str, or the choices of a str
    default: object = None
    required: bool = False
    help: str | None = None


_CEILING_HELP = "exhaustive-enumeration ceiling (default: %(default)s)"

def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line, or None for any other.

    Plain is a known command followed by exact ``FLAG VALUE`` pairs, every
    required flag among them: an int value is one that ``int`` converts, a
    choice is one of the choices word for word, and no value starts with
    ``-``.  A repeated flag keeps its last value.  The result's ``vars`` equal
    those of ``_build_parser().parse_args(argv)``.  Anything else is left to
    argparse: this neither prints, exits nor raises.
    """
    if not argv or argv[0] not in _SPEC or len(argv) % 2 == 0:
        return None
    options = {option.flag: option for option in _SPEC[argv[0]][2]}
    values = {flag: option.default for flag, option in options.items()}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or value.startswith("-"):
            return None
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:  # not a number, or more digits than int() converts
                return None
        elif option.kind is not str and value not in option.kind:
            return None
        values[flag] = value
    # a required option has no default, and no value read is None
    if any(values[flag] is None for flag, option in options.items() if option.required):
        return None
    return SimpleNamespace(command=argv[0], **{flag.lstrip("-"): value
                                               for flag, value in values.items()})


def _build_parser():
    """The argparse parser of every command, built from ``_SPEC``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse's one printer of help, usage and error text drops a failed
        # write; this lets it reach main (exit 4).  main leaves no stream None.
        def _print_message(self, message, file=None):
            if message:
                (file or sys.stderr).write(message)

    parser = _Parser(prog="pretzeltab",
                     description="Tabulate alternating oriented pretzel links by crossing number.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _SPEC.items():
        command_parser = sub.add_parser(command, help=summary)
        for option in options:
            choices = None if option.kind in (int, str) else option.kind
            command_parser.add_argument(
                option.flag, type=int if option.kind is int else None, choices=choices,
                default=option.default, required=option.required,
                metavar={int: "N", str: "PATH"}.get(option.kind), help=option.help)
    return parser


def _cmd_table(args) -> int:
    rows = counts.count_rows(args.min, args.max)
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
    sys.stdout.write(" ".join(str(column[args.c]) for column in picked) + "\n")
    return EXIT_OK


def _cmd_list(args) -> int:
    from . import tcodes

    codes = map(str, tcodes.class_strips(args.c, int(args.type), ceiling=args.ceiling))
    write = sys.stdout.write
    if args.format == "lines":
        for code in codes:
            write(f"{code}\n")
    else:
        write(json.dumps(list(codes), indent=2) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .walk import class_counts

    # first, so that an oversized --max meets the enumeration ceiling, not MAX_C
    enumerated_columns = class_counts(args.max, ceiling=args.ceiling)
    columns = counts.columns(args.max)
    failures = []
    write = sys.stdout.write
    write("   c  type     formula  enumerated  result\n")
    for c in range(1, args.max + 1):
        for link_type in (1, 2, 3):
            formula = columns[link_type - 1][c]
            enumerated = enumerated_columns[link_type - 1][c]
            if formula != enumerated:
                failures.append(f"c={c} type {link_type} (formula {formula}, enumerated {enumerated})")
            write(f"{c:4d}  {link_type:4d}  {formula:10d}  {enumerated:10d}  "
                  f"{'PASS' if formula == enumerated else 'FAIL'}\n")
    checks = 3 * args.max
    write(f"verify: {checks - len(failures)}/{checks} checks passed\n")
    if failures:
        print(f"pretzeltab verify: first failure at {failures[0]}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_fit(args) -> int:
    from .fit import fit_growth

    result = fit_growth(args.min, args.max)
    write = sys.stdout.write
    write("model: p(c) ~ a * exp(b * c)\n")
    write(f"range: c = {result.c_min}..{result.c_max} ({result.n_points} points)\n")
    write(f"a  = {result.a:.6g}\n")
    write(f"b  = {result.b:.6g}\n")
    write(f"r2 = {result.r2:.6g}\n")
    write(f"2a = {2 * result.a:.6g}  (doubled-total prefactor)\n")
    return EXIT_OK


# Each command's help line, handler and options: the one table that _read_plain,
# _build_parser and main read.  Its order is the order of the subcommands in help.
_SPEC = {
    "table": ("emit count rows for a crossing-number range", _cmd_table, (
        _Option("--min", int, 6),
        _Option("--max", int, 50),
        _Option("--format", ("csv", "json"), "csv"),
        _Option("--out", str, help="output file (default: stdout)"),
    )),
    "count": ("print counts for one crossing number", _cmd_count, (
        _Option("-c", int, required=True),
        _Option("--type", ("1", "2", "3", "all"), "all"),
    )),
    "list": ("list canonical class representatives", _cmd_list, (
        _Option("-c", int, required=True),
        _Option("--type", ("1", "2", "3"), required=True),
        _Option("--format", ("lines", "json"), "lines"),
        _Option("--ceiling", int, DEFAULT_ENUM_CEILING, help=_CEILING_HELP),
    )),
    "verify": ("check closed-form counts against exhaustive enumeration", _cmd_verify, (
        _Option("--max", int, 16),
        _Option("--ceiling", int, DEFAULT_ENUM_CEILING, help=_CEILING_HELP),
    )),
    "fit": ("least-squares exponential growth fit of the counts", _cmd_fit, (
        _Option("--min", int, 6),
        _Option("--max", int, 50),
    )),
}


def _run(args) -> int:
    """Run the command with str() free to convert the counts it computed (up
    to 2,737 digits, at ``MAX_C``) whatever the process's int digit limit,
    which is then put back.  The arguments were read under that limit, so an
    over-long number there stays a usage error."""
    handler = _SPEC[args.command][1]
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6: no limit
        return handler(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return handler(args)
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    # At exit, freeze every object still tracked: the interpreter's final
    # collections then skip them, and the OS takes the memory back whole.
    # Stdout is still flushed and the other exit handlers still run.  Not at
    # import, so that a program that only imports this module keeps its
    # exit-time collection; unregistered first, so that repeated calls in one
    # process leave one handler.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    # fd 1 or 2 was closed at start-up (``>&-``): a read-only stand-in fails each
    # write with EBADF, as the fd would (closefd=False: no unclosed-file warning
    # at exit).  Stderr's is line-buffered, as stderr is, so that a print to it
    # fails at once, not at exit.
    if sys.stdout is None:
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w", closefd=False)
    if sys.stderr is None:
        sys.stderr = open(os.open(os.devnull, os.O_RDONLY), "w", buffering=1, closefd=False)
    args = _read_plain(sys.argv[1:] if argv is None else argv)
    try:
        try:
            if args is None:
                args = _build_parser().parse_args(argv)
            code = _run(args)
            sys.stdout.flush()  # here, so that a failed write gets its message
        except SystemExit as exc:  # argparse exits with 0 after help, 2 on a bad argument
            code = EXIT_USAGE if exc.code else EXIT_OK
        except (ValueError, ResourceLimitError) as exc:
            print(f"pretzeltab {args.command}: {exc}", file=sys.stderr)
            code = EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_USAGE
        except ArithmeticError as exc:
            print(f"pretzeltab {args.command}: internal error: {exc}", file=sys.stderr)
            code = EXIT_INTERNAL
        except OSError as exc:
            # One line for a failed write of a command's output or message
            # (``table --out`` reports its own).  None for argparse's text, which
            # leaves args None, nor for a reader that closed the pipe early: it
            # asked for no more.
            if args is not None and not isinstance(exc, BrokenPipeError):
                print(f"pretzeltab {args.command}: cannot write output: {exc}", file=sys.stderr)
            raise
        sys.stdout.flush()
    except OSError:
        # stdout or stderr is closed (``| head``) or full.  As the Python docs'
        # note on SIGPIPE advises, point both at devnull, so that the
        # interpreter's last flush of the unwritten rest does not fail again at
        # exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in sys.stdout, sys.stderr:
            os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
