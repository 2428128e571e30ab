import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pretzeltab import cli, counts, tcodes
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

from helpers import fresh_env


class TestTable:
    def test_csv_range(self, capsys):
        assert main(["table", "--min", "6", "--max", "10", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "c,p1,p2,p3,p,total"
        assert lines[1] == "6,0,1,1,2,4"
        assert lines[-1] == "10,1,4,38,43,86"
        assert len(lines) == 6

    def test_csv_single_row(self, capsys):
        assert main(["table", "--min", "6", "--max", "6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "c,p1,p2,p3,p,total\n6,0,1,1,2,4\n"

    def test_csv_row_50(self, capsys):
        assert main(["table", "--min", "50", "--max", "50"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "50,111794,675174,549639730670,549640517638,1099281035276"

    def test_csv_is_byte_stable(self, capsys):
        main(["table", "--max", "20"])
        first = capsys.readouterr().out
        main(["table", "--max", "20"])
        assert capsys.readouterr().out == first

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
        # the longest count that table prints must fit str()'s digit limit
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

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        assert main(["table", "--out", str(target)]) == EXIT_IO
        assert "cannot write" in capsys.readouterr().err

    def test_bad_range_is_usage_error(self, capsys):
        assert main(["table", "--min", "9", "--max", "6"]) == EXIT_USAGE
        assert main(["table", "--min", "0", "--max", "6"]) == EXIT_USAGE
        capsys.readouterr()


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

    def test_bad_arguments(self, capsys):
        assert main(["count", "-c", "0"]) == EXIT_USAGE
        assert main(["count", "-c", "10", "--type", "9"]) == EXIT_USAGE
        capsys.readouterr()

    def test_above_max_c_is_resource_error(self, capsys):
        above = str(counts.MAX_C + 1)
        assert main(["count", "-c", above]) == EXIT_RESOURCE
        assert main(["table", "--max", above]) == EXIT_RESOURCE
        assert main(["fit", "--max", above]) == EXIT_RESOURCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for command, line in zip(("count", "table", "fit"), err):
            assert line.startswith(f"pretzeltab {command}: ") and "MAX_C" in line


class TestList:
    def test_lines(self, capsys):
        assert main(["list", "-c", "9", "--type", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "P1(0;3,3,3)\n"
        assert main(["list", "-c", "6", "--type", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "P2(2,2,2)\n"

    def test_type3_class_count(self, capsys):
        assert main(["list", "-c", "10", "--type", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 38
        assert all(line.startswith("P3(") for line in lines)

    def test_json(self, capsys):
        assert main(["list", "-c", "10", "--type", "3", "--format", "json"]) == EXIT_OK
        codes = json.loads(capsys.readouterr().out)
        assert len(codes) == 38
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

    def test_ceiling_exceeded(self, capsys):
        assert main(["list", "-c", "40", "--type", "3"]) == EXIT_RESOURCE
        assert "--ceiling" in capsys.readouterr().err

    def test_ceiling_flag(self, capsys):
        assert main(["list", "-c", "23", "--type", "1", "--ceiling", "23"]) == EXIT_OK
        capsys.readouterr()

    def test_ceiling_below_one_is_usage_error(self, capsys):
        assert main(["list", "-c", "5", "--type", "1", "--ceiling", "0"]) == EXIT_USAGE
        assert main(["verify", "--max", "3", "--ceiling", "-2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("ceiling must be positive") == 2 and "raise it" not in err

    def test_type_is_required(self, capsys):
        assert main(["list", "-c", "9"]) == EXIT_USAGE
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

    def test_counts_without_building_codes(self, capsys, monkeypatch):
        def no_codes(*args):
            raise AssertionError("verify built a TCode")

        monkeypatch.setattr(tcodes, "TCode", no_codes)
        assert main(["verify", "--max", "12"]) == EXIT_OK
        assert "36/36 checks passed" in capsys.readouterr().out

    def test_max_above_ceiling(self, capsys):
        assert main(["verify", "--max", "40"]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert "--ceiling" in captured.err
        assert captured.out == ""


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

    def test_too_few_points(self, capsys):
        assert main(["fit", "--min", "1", "--max", "5"]) == EXIT_USAGE
        capsys.readouterr()


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["tabulate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()


def readme_examples() -> list[tuple[str, str]]:
    """Each `$ pretzeltab ...` line in README's Examples block and the output under it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    return [(command, "\n".join(out).rstrip("\n") + "\n") for command, out in examples]


class TestReadme:
    def test_examples_print_what_the_readme_shows(self, capsys):
        examples = readme_examples()
        assert len(examples) == 4
        for command, expected in examples:
            prog, *argv = shlex.split(command)
            assert prog == "pretzeltab"
            assert main(argv) == EXIT_OK, command
            assert capsys.readouterr().out == expected, command


class TestBrokenPipe:
    @pytest.mark.parametrize("args, lines, unbuffered", [
        # like `| head -1`: -u writes each line as it is printed, so the rest
        # (198 kB for list, 17 more rows of enumeration for verify) comes
        # after the read end is closed
        (["list", "-c", "20", "--type", "3"], 1, True),
        (["verify", "--max", "18"], 1, True),
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
class TestFullDevice:
    @pytest.mark.parametrize("args", [
        ["table", "--min", "6", "--max", "12"],
        ["count", "-c", "10"],
        ["list", "-c", "12", "--type", "3"],
        ["verify", "--max", "10"],
        ["fit", "--max", "20"],
    ])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_failed_write_is_io_error_with_one_line(self, args, unbuffered):
        # buffered, the write fails at the flush after the command; under -u, at
        # the first print
        child = self.run_on_full_device(args, unbuffered)
        assert child.returncode == EXIT_IO
        lines = child.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pretzeltab {args[0]}: cannot write output: ")

    @pytest.mark.parametrize("args", [["--help"], ["table", "-h"]])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_lost_help_text_is_io_error(self, args, unbuffered):
        # argparse's own help printer would swallow the failed write and exit 0
        child = self.run_on_full_device(args, unbuffered)
        assert child.returncode == EXIT_IO
        assert b"Traceback" not in child.stderr

    @staticmethod
    def run_on_full_device(args, unbuffered):
        flags = ["-u"] if unbuffered else []
        with open("/dev/full", "w") as full:
            return subprocess.run([sys.executable, *flags, "-m", "pretzeltab.cli", *args],
                                  stdout=full, stderr=subprocess.PIPE, env=fresh_env(), timeout=60)


class TestClosedStdout:
    # `>&-` starts the child with fd 1 closed, so Python sets sys.stdout to None
    @pytest.mark.parametrize("args", [["count", "-c", "10"], ["verify", "--max", "10"]])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_lost_output_is_io_error_with_one_line(self, args, unbuffered):
        child = self.run_without_stdout(args, unbuffered)
        assert child.returncode == EXIT_IO
        lines = child.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pretzeltab {args[0]}: cannot write output: ")

    def test_table_to_a_file_needs_no_stdout(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        child = self.run_without_stdout(["table", "--min", "6", "--max", "8", "--out", str(out)])
        assert (child.returncode, child.stderr) == (EXIT_OK, b"")
        assert main(["table", "--min", "6", "--max", "8"]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out

    @staticmethod
    def run_without_stdout(args, unbuffered=False):
        flags = ["-u"] if unbuffered else []
        command = shlex.join([sys.executable, *flags, "-m", "pretzeltab.cli", *args])
        return subprocess.run(["sh", "-c", f"{command} >&-"], stderr=subprocess.PIPE,
                              env=fresh_env(), timeout=60)


class TestExitHandler:
    # runs in a fresh child: this process has long since registered the handler
    PROBE = """
import atexit, gc
from pretzeltab import cli
# exit handlers run last in, first out: the probe runs after main's handler
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
before = atexit._ncallbacks()
codes = [cli.main(["count", "-c", "6"]) for _ in range(2)]
print("frozen before exit:", gc.get_freeze_count() > 0)
print("handlers added:", atexit._ncallbacks() - before, "exit codes:", codes)
"""

    def test_main_freezes_at_exit_with_one_handler(self):
        child = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                               env=fresh_env(), timeout=60)
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout.decode().splitlines() == [
            "0 1 1",
            "0 1 1",
            "frozen before exit: False",
            "handlers added: 1 exit codes: [0, 0]",
            "frozen at exit: True",
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
