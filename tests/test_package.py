"""The package namespace (README's Library section) and what each import loads."""
import ast
import importlib
import json
import re
import shlex

import pytest

import pretzeltab

from helpers import ROOT, benchmark_commands, readme_examples, readme_library, run_python

LIBRARY_NAMES = {
    "columns", "count_row", "point_columns", "type3_params",
    "necklace_count", "bracelet_count", "signed_bracelet_count",
    "TCode", "canonicalize", "enumerate_classes", "fit_growth",
}
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def loaded_after(code: str) -> set[str]:
    """The modules in sys.modules after running code in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


class TestImports:
    def test_cli_loads_neither_dataclasses_nor_oracle_nor_fit(self):
        loaded = loaded_after("import pretzeltab.cli")
        assert "pretzeltab.cli" in loaded
        assert not loaded & {"dataclasses", "pretzeltab.walk", "pretzeltab.tcodes",
                             "pretzeltab.fit"}

    def test_cli_loads_no_future(self):
        # every annotation the package writes is evaluated natively, so no
        # module defers them; a site hook may load __future__ before any import
        assert "__future__" not in loaded_after("import pretzeltab.cli") - loaded_after("")

    def test_package_loads_no_submodule(self):
        loaded = loaded_after("import pretzeltab")
        assert "pretzeltab" in loaded
        assert not {name for name in loaded if name.startswith("pretzeltab.")}

    def test_count_leaves_the_oracle_unloaded(self):
        # Each call loads only the modules it runs: no command loads the
        # per-point counters in necklaces, and each of them loads it alone.
        runs = {
            'cli.main(["count", "-c", "20"])': set(),
            'cli.main(["table", "--min", "6", "--max", "10"])': set(),
            'cli.main(["fit"])': {"pretzeltab.fit"},
            'cli.main(["verify", "--max", "6"])': {"pretzeltab.walk"},
            'cli.main(["list", "-c", "8", "--type", "3"])': {"pretzeltab.walk",
                                                            "pretzeltab.tcodes"},
            "from pretzeltab import point_columns\npoint_columns(10)": {"pretzeltab.necklaces"},
            "from pretzeltab import signed_bracelet_count\nsigned_bracelet_count(4, 2, 2, 2)":
                {"pretzeltab.necklaces"},
        }
        started = loaded_after("")
        for call, extra in runs.items():
            loaded = loaded_after(f"from pretzeltab import cli, counts\n{call}")
            package = {name for name in loaded if name.split(".")[0] == "pretzeltab"}
            assert package == {"pretzeltab", "pretzeltab.cli", "pretzeltab.combinat",
                               "pretzeltab.counts"} | extra, call
            assert "__future__" not in loaded - started, call

    def test_walk_loads_no_counter_and_no_code(self):
        # the oracle's walk stays independent of the counters it checks
        loaded = loaded_after("import pretzeltab.walk")
        assert {name for name in loaded if name.startswith("pretzeltab.")} == {
            "pretzeltab.walk", "pretzeltab.combinat"}

    def test_combinat_defines_only_names_two_modules_import(self):
        # a rule or limit that one module alone imports lives in that module
        package = ROOT / "src" / "pretzeltab"
        tree = ast.parse((package / "combinat.py").read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        importers = {name: set() for name in defined}
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1 \
                        and node.module == "combinat":
                    for alias in node.names:
                        importers.setdefault(alias.name, set()).add(path.stem)
        lonely = sorted(name for name in defined if len(importers[name]) < 2)
        assert defined and not lonely, f"imported by fewer than two modules: {lonely}"

    def test_every_traced_layer_imports(self):
        # perfbench/layertrace.py imports each module of its LAYERS by name in
        # every traced benchmark child; read the tuple without running the file
        tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
        layers = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign) and any(
                          isinstance(target, ast.Name) and target.id == "LAYERS"
                          for target in node.targets))
        for layer in layers:
            importlib.import_module(f"pretzeltab.{layer}")

    def test_argparse_loads_only_for_other_spellings(self):
        plain = benchmark_commands() + [shlex.split(command)[1:] for command, _ in readme_examples()]
        loaded = loaded_after(f"from pretzeltab import cli\nfor argv in {plain!r}:\n    cli.main(argv)")
        assert "argparse" not in loaded
        for argv in (["--help"], ["table", "--max=8"], ["count", "-c14"]):
            assert "argparse" in loaded_after(f"from pretzeltab import cli\ncli.main({argv!r})"), argv


class TestLibrary:
    def test_readme_block_prints_what_its_comments_say(self):
        imports, lines = readme_library()
        namespace = {}
        exec(imports, namespace)
        values = {expression: eval(expression, namespace) for expression, _ in lines}
        # the three columns for c = 0..10, and the same by the per-point route
        assert [column[-1] for column in values["columns(10)"]] == [1, 4, 38]
        assert values.pop("point_columns(10)") == values.pop("columns(10)")
        comments = dict(lines)
        for expression, value in values.items():
            comment = comments[expression]
            if comment.endswith("..."):  # a float's leading digits
                assert repr(value).startswith(comment[:-3]), expression
            else:  # the value's repr, then the end or a space
                assert (comment + " ").startswith(repr(value) + " "), expression
        assert len(values) == 6

    def test_readme_limits_are_the_values_the_code_sets(self):
        table = (ROOT / "README.md").read_text().split("| Limit |", 1)[1].split("\n\n", 1)[0]
        seen = []
        for row in table.splitlines()[2:]:
            limit, value, set_in, _ = (cell.strip() for cell in row.strip("|").split("|"))
            # `combinat`, or `combinat.DEFAULT_ENUM_CEILING` for a limit named in words
            module, name = re.match(r"`(\w+)(?:\.(\w+))?`", set_in).groups()
            # "10,000", "22 by default", "10¹², 100,000 bits"
            numbers = re.findall(r"(\d[\d,]*)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)", value)
            for name, (base, power) in zip(re.findall(r"`(\w+)`", limit) or [name], numbers,
                                           strict=True):
                source = (ROOT / "src" / "pretzeltab" / f"{module}.py").read_text()
                assert re.search(rf"^{name} = ", source, re.M), name
                assert getattr(importlib.import_module(f"pretzeltab.{module}"), name) == int(
                    base.replace(",", "")) ** int(power.translate(SUPERSCRIPTS) or 1), name
                seen.append(name)
        assert seen == ["MAX_C", "POINT_MAX_C", "DEFAULT_ENUM_CEILING", "MAX_GCD", "MAX_ANSWER_BITS"]

    def test_all_is_the_documented_names(self):
        assert set(pretzeltab.__all__) == LIBRARY_NAMES

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pretzeltab, "no_such_name")
        with pytest.raises(AttributeError):
            getattr(pretzeltab, "count_rows")  # importable from pretzeltab.counts only

    def test_records_are_immutable(self):
        # README: named tuples, immutable, hashable and equal to the plain tuple
        from pretzeltab import TCode, count_row, fit_growth

        code = TCode(1, 0, (3, 3, 3))
        row = count_row(10)
        result = fit_growth(6, 12)
        with pytest.raises(AttributeError):
            code.delta = 1
        with pytest.raises(AttributeError):
            row.p1 = 0
        with pytest.raises(AttributeError):
            result.a = 0.0
        assert code == TCode(1, 0, (3, 3, 3)) and hash(code) == hash(TCode(1, 0, (3, 3, 3)))
        for record in (code, row, result):
            assert record == tuple(record) and hash(record) == hash(tuple(record))
