import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pretzeltab import cli, counts, tcodes, walk
from pretzeltab.cli import (
    CSV_HEADER,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)

from helpers import (
    benchmark_commands,
    ci_commands,
    counts_faults,
    fresh_env,
    readme_examples,
    run_cli,
    run_python,
)
from reference_data import COUNT_TABLE


class TestTable:
    def test_json_matches_csv(self, capsys):
        main(["table", "--min", "6", "--max", "12", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        main(["table", "--min", "6", "--max", "12", "--format", "csv"])
        csv_lines = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(csv_lines)
        for row, line in zip(rows, csv_lines):
            assert set(row) == {"c", "p1", "p2", "p3", "p", "total"}
            assert line == ",".join(
                [str(row["c"]), row["p1"], row["p2"], row["p3"], row["p"], row["total"]]
            )

    def test_json_counts_are_strings(self, capsys):
        main(["table", "--min", "48", "--max", "48", "--format", "json"])
        (row,) = json.loads(capsys.readouterr().out)
        assert row["c"] == 48
        assert row["p3"] == "162274113329"

    def test_row_at_max_c(self, capsys):
        # the longest counts that table prints, 2,737 digits for total
        top = str(counts.MAX_C)
        assert main(["table", "--min", top, "--max", top]) == EXIT_OK
        row = counts.count_row(counts.MAX_C)
        expected = ",".join(str(n) for n in (row.c, row.p1, row.p2, row.p3, row.p, row.total))
        assert capsys.readouterr().out.splitlines() == [CSV_HEADER, expected]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(["table", "--min", "6", "--max", "7", "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_text() == "c,p1,p2,p3,p,total\n6,0,1,1,2,4\n7,0,0,3,3,6\n"


class TestCount:
    def test_single_type(self, capsys):
        assert main(["count", "-c", "14", "--type", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "13\n"
        assert main(["count", "-c", "10", "--type", "3"]) == EXIT_OK
        assert capsys.readouterr().out == "38\n"

    def test_all_types(self, capsys):
        assert main(["count", "-c", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "0 0 0\n"
        assert main(["count", "-c", "10", "--type", "all"]) == EXIT_OK
        assert capsys.readouterr().out == "1 4 38\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="str() converts any number of digits")
    def test_counts_print_whatever_the_digit_limit(self, capsys):
        # p3 has 819 digits at 3000; the process keeps its own limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["count", "-c", "3000"]) == EXIT_OK
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr() == (
            " ".join(str(column[3000]) for column in counts.columns(3000)) + "\n", "")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="str() converts any number of digits")
    def test_a_lowered_digit_limit_changes_no_byte(self, columns_max_c):
        top = str(counts.MAX_C)
        lowered = run_python("-X", "int_max_str_digits=640", "-m", "pretzeltab.cli",
                             "count", "-c", top)
        assert (lowered.returncode, lowered.stderr) == (EXIT_OK, "")
        assert lowered.stdout == " ".join(str(column[-1]) for column in columns_max_c) + "\n"


class TestList:
    def test_lines(self, capsys):
        assert main(["list", "-c", "9", "--type", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "P1(0;3,3,3)\n"
        assert main(["list", "-c", "6", "--type", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "P2(2,2,2)\n"

    def test_json(self, capsys):
        assert main(["list", "-c", "10", "--type", "3", "--format", "json"]) == EXIT_OK
        codes = json.loads(capsys.readouterr().out)
        assert len(codes) == 38 and all(code.startswith("P3(") for code in codes)
        main(["list", "-c", "10", "--type", "3"])
        assert codes == capsys.readouterr().out.splitlines()

    def test_json_of_no_classes(self, capsys):
        assert main(["list", "-c", "5", "--type", "3", "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == "[]\n"

    def test_lines_stream_without_the_whole_list(self, capsys, monkeypatch):
        main(["list", "-c", "12", "--type", "3"])
        expected = capsys.readouterr().out

        def no_list(*args, **kwargs):
            raise AssertionError("list --format lines built the whole list")

        monkeypatch.setattr(tcodes, "enumerate_classes", no_list)
        assert main(["list", "-c", "12", "--type", "3"]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_ceiling_flag(self, capsys):
        assert main(["list", "-c", "23", "--type", "1", "--ceiling", "23"]) == EXIT_OK
        capsys.readouterr()


class TestVerify:
    def test_small_range_passes(self, capsys):
        assert main(["verify", "--max", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "30/30 checks passed" in out

    def test_mismatch_detected(self, capsys, monkeypatch):
        columns = cli.counts.columns

        def one_wrong_type2(max_c):
            p1, p2, p3 = columns(max_c)
            p2[6] = 99
            return p1, p2, p3

        monkeypatch.setattr(cli.counts, "columns", one_wrong_type2)
        assert main(["verify", "--max", "6"]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "99" in captured.out
        assert captured.err == (
            "pretzeltab verify: first failure at c=6 type 2 (formula 99, enumerated 1)\n")

    def test_two_mismatches_name_the_first(self, capsys, monkeypatch):
        columns = cli.counts.columns

        def two_wrong(max_c):
            p1, p2, p3 = columns(max_c)
            p2[6] += 1
            p3[6] += 1
            return p1, p2, p3

        monkeypatch.setattr(cli.counts, "columns", two_wrong)
        assert main(["verify", "--max", "6"]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.out.count("FAIL") == 2
        assert "verify: 16/18 checks passed\n" in captured.out
        assert captured.err == (
            "pretzeltab verify: first failure at c=6 type 2 (formula 2, enumerated 1)\n")

    def test_a_ceiling_over_the_walks_limit_is_not_refused(self, capsys):
        # only the walk's top budget is held to walk.MAX_WALK_C
        assert main(["verify", "--max", "23", "--ceiling", "5000"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("\nverify: 69/69 checks passed\n")

    def test_walks_each_type_once_in_count_mode(self, capsys, monkeypatch):
        # a list-mode walk would be recorded without count=True
        walks = []
        necklaces = walk._necklaces

        def recording(values, top, **options):
            walks.append(options.get("count", False))
            return necklaces(values, top, **options)

        monkeypatch.setattr(walk, "_necklaces", recording)
        assert main(["verify", "--max", "12"]) == EXIT_OK
        assert "36/36 checks passed" in capsys.readouterr().out
        assert walks == [True, True, True]


class TestFit:
    def test_reports_fit(self, capsys):
        assert main(["fit", "--min", "6", "--max", "50"]) == EXIT_OK
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            key, sep, rest = line.partition("=")
            if sep and key.strip() in {"a", "b", "r2", "2a"}:
                values[key.strip()] = float(rest.split()[0])
        assert 0.578 <= values["b"] <= 0.598
        assert values["a"] == pytest.approx(0.0775, rel=0.2)
        assert values["r2"] >= 0.995
        assert values["2a"] == pytest.approx(2 * values["a"], rel=1e-6)
        assert "range: c = 6..50" in out


# Each refusal of the CLI: its arguments, exit code and last line of stderr,
# with nothing on stdout.  A line that ends "..." is argparse's, compared only
# up to the argument's name: its wording after that differs between Pythons.
CLI_REFUSALS = {
    "table --min 9 --max 6": (EXIT_USAGE, "pretzeltab table: need min_c <= max_c, got 9 > 6"),
    "table --min 0 --max 6": (EXIT_USAGE, "pretzeltab table: crossing number must be positive, got 0"),
    "table --max 0": (EXIT_USAGE, "pretzeltab table: crossing number must be positive, got 0"),
    "table --max 10001": (EXIT_RESOURCE, "pretzeltab table: the column route at 10001 crossings "
                          "exceeds the limit of 10000 (combinat.MAX_C)"),
    "table --out missing/t.csv": (EXIT_IO, "pretzeltab table: cannot write missing/t.csv: "
                                  "[Errno 2] No such file or directory: 'missing/t.csv'"),
    "count -c 0": (EXIT_USAGE, "pretzeltab count: crossing number must be positive, got 0"),
    "count -c 10001": (EXIT_RESOURCE, "pretzeltab count: the column route at 10001 crossings "
                       "exceeds the limit of 10000 (combinat.MAX_C)"),
    "count -c 10 --type 9": (EXIT_USAGE, "pretzeltab count: error: argument --type..."),
    "list -c 40 --type 3": (EXIT_RESOURCE, "pretzeltab list: exhaustive enumeration at 40 "
                            "crossings exceeds the limit of 22 (raise it with --ceiling)"),
    "list -c 2001 --type 2 --ceiling 2001": (EXIT_RESOURCE, "pretzeltab list: exhaustive "
                                             "enumeration at 2001 crossings exceeds the limit "
                                             "of 1000 (walk.MAX_WALK_C)"),
    "list -c 5 --type 1 --ceiling 0": (EXIT_USAGE, "pretzeltab list: the enumeration ceiling "
                                       "must be positive, got 0"),
    "list -c 9": (EXIT_USAGE, "pretzeltab list: error: the following arguments are required: "
                  "--type..."),
    "verify --max 40": (EXIT_RESOURCE, "pretzeltab verify: exhaustive enumeration at 40 "
                        "crossings exceeds the limit of 22 (raise it with --ceiling)"),
    "verify --max 3 --ceiling -2": (EXIT_USAGE, "pretzeltab verify: the enumeration ceiling "
                                    "must be positive, got -2"),
    "fit --min 1 --max 5": (EXIT_USAGE, "pretzeltab fit: need at least 3 crossing numbers "
                            "with positive counts, got 0"),
    "fit --max 0": (EXIT_USAGE, "pretzeltab fit: crossing number must be positive, got 0"),
    "fit --max 10001": (EXIT_RESOURCE, "pretzeltab fit: the column route at 10001 crossings "
                        "exceeds the limit of 10000 (combinat.MAX_C)"),
    "tabulate": (EXIT_USAGE, "pretzeltab: error: argument command..."),
    "": (EXIT_USAGE, "pretzeltab: error: the following arguments are required: command..."),
}


class TestRefusals:
    @pytest.mark.parametrize("command", CLI_REFUSALS)
    def test_refuses_with_its_line(self, command, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # where missing/ does not exist
        code, line = CLI_REFUSALS[command]
        assert main(command.split()) == code
        out, err = capsys.readouterr()
        if line.endswith("..."):
            assert (out, err.splitlines()[-1][:len(line) - 3]) == ("", line[:-3])
        else:
            assert (out, err) == ("", line + "\n")


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("command, usage", [
        ("table", "[-h] [--min N] [--max N] [--format {csv,json}] [--out PATH]"),
        ("count", "[-h] -c N [--type {1,2,3,all}]"),
        ("list", "[-h] -c N --type {1,2,3} [--format {lines,json}] [--ceiling N]"),
        ("verify", "[-h] [--max N] [--ceiling N]"),
        ("fit", "[-h] [--min N] [--max N]"),
    ])
    def test_usage_names_each_value(self, command, usage, monkeypatch):
        # wide enough that no usage line wraps
        monkeypatch.setenv("COLUMNS", "200")
        subparsers = cli._build_parser()._subparsers._group_actions[0]
        assert subparsers.choices[command].format_usage() == f"usage: pretzeltab {command} {usage}\n"


class TestReadme:
    def test_examples_print_what_the_readme_shows(self, capsys):
        examples = readme_examples()
        assert len(examples) == 4
        for command, expected in examples:
            prog, *argv = shlex.split(command)
            assert prog == "pretzeltab"
            assert main(argv) == EXIT_OK, command
            assert capsys.readouterr().out == expected, command


FLAGS = {"table": ["--min", "--max", "--format", "--out"], "count": ["-c", "--type"],
         "list": ["-c", "--type", "--format", "--ceiling"], "verify": ["--max", "--ceiling"],
         "fit": ["--min", "--max"]}
DIGITS = ["0", "7", "14", "007", "0020", "9" * 5000]
WELL_FORMED = {"--min": DIGITS, "--max": DIGITS, "-c": DIGITS, "--ceiling": DIGITS,
               "--format": ["csv", "json", "lines"], "--type": ["1", "2", "3", "all"],
               "--out": ["t.csv", "14"]}
TOKENS = [*FLAGS, "tabulate",  # commands
          *WELL_FORMED, "--mi", "--ma", "--form", "--ty", "--ceil",  # flags
          "--max=8", "--type=2", "-c14", "-h", "--help", "--",
          *DIGITS, "csv", "json", "lines", "all", "3",  # values
          "-3", "+5", " 5", "\u0663", "", "abc"]


@st.composite
def argvs(draw):
    """A plain command line, or one up to two edits away from it: a token
    inserted, replaced or deleted."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4)):
        argv += [flag, draw(st.sampled_from(WELL_FORMED[flag]))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        end = at + draw(st.sampled_from([0, 1]))  # insert or replace
        argv[at:end] = draw(st.lists(st.sampled_from(TOKENS), max_size=1))  # or delete
    return argv


def argparse_outcome(argv):
    """vars of argparse's namespace for argv, or its exit code."""
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


class TestDirectRoute:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(argvs())
    @example(["table", "--max", "9" * 5000])
    @example(["table", "--min", "6", "--min", "7"])
    @example(["list", "-c", "9", "--type", "1"])
    @example(["table", "--out", "-h"])
    def test_reader_agrees_with_argparse_or_declines(self, argv):
        printed = io.StringIO()
        with redirect_stdout(printed), redirect_stderr(printed):
            args = cli._read_plain(argv)
        assert printed.getvalue() == ""
        if args is not None:
            assert vars(args) == argparse_outcome(argv)

    def test_documented_and_benchmarked_commands_are_read_directly(self):
        # and other spellings: a repeated flag keeps its last value, and an
        # int value is whatever int() reads, as with argparse's type=int
        readme = [shlex.split(command)[1:] for command, _ in readme_examples()]
        spellings = [["table", "--min", "6", "--min", "7", "--max", "8"], ["count", "-c", "+14"],
                     ["count", "-c", "\u0661\u0664"],  # Arabic-Indic digits
                     ["count", "-c", "1_4"], ["table", "--out", "", "--max", "8"]]
        for argv in readme + benchmark_commands() + spellings:
            args = cli._read_plain(argv)
            assert args is not None and vars(args) == argparse_outcome(argv), argv

    def test_ci_leaves_only_its_other_spellings_to_argparse(self):
        declined = [argv for argv in ci_commands() if cli._read_plain(argv) is None]
        assert declined == [["--help"], ["table", "--max", "abc"], ["table", "--max=10"],
                            ["count", "-c14", "--ty", "2"], ["table", "--max", "abc"]]


class TestDeclinedSpellings:
    # what argparse prints and returns for each spelling the direct reader leaves to it
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() converts any number of digits")
    def test_overlong_int_is_a_usage_error(self, capsys):
        argv = ["table", "--max", "9" * 5000]
        assert cli._read_plain(argv) is None
        assert argparse_outcome(argv) == 2  # argparse's own status; main maps it to EXIT_USAGE
        expected = capsys.readouterr().err
        assert "argument --max: invalid int value: '999" in expected
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", expected)

    def test_negative_count_reaches_the_command(self, capsys):
        argv = ["count", "-c", "-3"]
        assert cli._read_plain(argv) is None
        assert argparse_outcome(argv)["c"] == -3
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "pretzeltab count: crossing number must be positive, got -3\n")

    def test_equals_spelling_prints_what_the_plain_one_does(self, capsys):
        assert cli._read_plain(["verify", "--max=20"]) is None
        assert main(["verify", "--max=20"]) == EXIT_OK
        joined = capsys.readouterr()
        assert main(["verify", "--max", "20"]) == EXIT_OK
        assert capsys.readouterr() == joined


class TestBrokenPipe:
    @pytest.mark.parametrize("args, lines, unbuffered", [
        # like `| head -1`: -u writes each line as it is printed, so the rest
        # (198 kB) comes after the read end is closed
        (["list", "-c", "20", "--type", "3"], 1, True),
        # closed before the header, which follows the oracle's walks: the 18
        # rows, a few kB written at once after it, could all fit in the pipe
        # before a reader of the header closes it
        (["verify", "--max", "18"], 0, True),
        # like `| true`: the one line stays buffered until main's last flush
        (["count", "-c", "20"], 0, False),
    ])
    def test_closed_stdout_is_io_error(self, args, lines, unbuffered):
        flags = ["-u"] if unbuffered else []
        child = subprocess.Popen([sys.executable, *flags, "-m", "pretzeltab.cli", *args],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
        try:
            read = [child.stdout.readline() for _ in range(lines)]
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert all(line.strip() for line in read)
        assert child.returncode == EXIT_IO and err == b""


# Each cell: a shell redirection, a command line, and what the stream that the
# redirection leaves readable starts with, or None where it stays empty.
FAILED_WRITES = [
    # stdout fails, stderr is readable.  Buffered, the write fails at the flush
    # after the command; under -u, at the first print.  `>&-` starts the child
    # with fd 1 closed, so Python sets sys.stdout to None.
    *[(redirect, command, f"pretzeltab {command.split()[0]}: cannot write output: ")
      for redirect, command in [
          (">/dev/full", "table --min 6 --max 12"), (">/dev/full", "count -c 10"),
          (">/dev/full", "list -c 12 --type 3"), (">/dev/full", "verify --max 10"),
          (">/dev/full", "fit --max 20"), (">&-", "count -c 10"), (">&-", "verify --max 10")]],
    # argparse's own help printer would swallow the failed write and exit 0
    (">/dev/full", "--help", None),
    (">/dev/full", "table -h", None),
    # stderr fails, or both streams do
    *[(redirect, command, output)
      for redirect in ["2>/dev/full", "2>&-", ">/dev/full 2>&1"]
      for command, output in [
          ("count -c 10", "1 4 38\n"),  # output only
          ("verify --max 23", None),  # a refusal
          ("count -c 0", None),  # a usage error that the plain reader reads
          ("table --max abc", None),  # a usage error that argparse reads
          ("--help", "usage: pretzeltab [-h]"),
      ]],
]


class TestFailureMatrix:
    # A write that fails ends the command with EXIT_IO, whichever stream it was
    # for and whoever wrote it: a command, main or argparse.
    @pytest.mark.parametrize("redirect, command, output", FAILED_WRITES)
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_failed_write_is_io_error(self, redirect, command, output, unbuffered):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("needs the /dev/full device")
        child = run_cli(command.split(), redirect, unbuffered)
        if redirect.startswith(">"):  # stdout fails, and every command writes
            assert child.returncode == EXIT_IO
            if "2>" not in redirect:  # one line on stderr, or none for help text
                lines = child.stderr.splitlines()
                assert len(lines) == (output is not None) and all(
                    line.startswith(output) for line in lines), lines
        elif output is None:  # an error, whose text cannot be written
            assert (child.returncode, child.stdout) == (EXIT_IO, "")
        else:  # nothing for stderr
            assert child.returncode == EXIT_OK and child.stdout.startswith(output)


class TestClosedStdout:
    def test_table_to_a_file_needs_no_stdout(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        child = run_cli(["table", "--min", "6", "--max", "8", "--out", str(out)], ">&-")
        assert (child.returncode, child.stderr) == (EXIT_OK, "")
        assert main(["table", "--min", "6", "--max", "8"]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out


class TestExitHandler:
    # runs in a fresh child: this process has long since registered the handler
    PROBE = """
import atexit, gc
from pretzeltab import cli
# exit handlers run last in, first out: the probe runs after main's handler
runs = 0
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, "runs:", runs))
freeze = gc.freeze
def counted():
    global runs
    runs += 1
    freeze()
gc.freeze = counted  # main registers what gc.freeze is when it is called
codes = [cli.main(["count", "-c", "6"]) for _ in range(2)]
print("frozen before exit:", gc.get_freeze_count() > 0, "exit codes:", codes)
"""

    def test_main_freezes_at_exit_with_one_handler(self):
        child = run_python("-c", self.PROBE)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.splitlines() == [
            "0 1 1",
            "0 1 1",
            "frozen before exit: False exit codes: [0, 0]",
            "frozen at exit: True runs: 1",
        ]


class TestInternalError:
    def test_failed_exactness_check_exits_with_one_line(self, capsys, monkeypatch):
        # a wrong totient makes a Burnside sum indivisible: ArithmeticError
        monkeypatch.setattr(counts, "totient", lambda d: d)
        assert main(["count", "-c", "20"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pretzeltab count: internal error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("check", ["cyclic sum", "dihedral sum", "parity average"])
    def test_each_check_names_its_sum(self, check, capsys, monkeypatch):
        monkeypatch.setattr(counts, *counts_faults(counts)[check])
        assert main(["count", "-c", "20"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"pretzeltab count: internal error: {check}: ")
        assert len(captured.err.splitlines()) == 1


class TestOneWritePerLine:
    # Under PYTHONUNBUFFERED=1 each write call on stdout is one write(2), and
    # print makes two: the text and the newline.
    @pytest.mark.parametrize("args, lines", [
        (["verify", "--max", "6"], 1 + 3 * 6 + 1),
        (["list", "-c", "12", "--type", "3"], COUNT_TABLE[12][2]),
        (["count", "-c", "140"], 1),
        (["fit"], 6),
    ], ids=["verify", "list", "count", "fit"])
    def test_each_line_is_one_write(self, args, lines, monkeypatch):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(args) == EXIT_OK
        assert len(writes) == lines
        assert all(text.endswith("\n") and text.count("\n") == 1 for text in writes), writes
