"""What several test modules share: the fresh interpreters that some tests
start, and the command lines that the README, the benchmark and CI run."""
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def fresh_env():
    """os.environ for a child interpreter: PYTHONPATH is src only, so the
    child imports this checkout's pretzeltab, and PYTHONUNBUFFERED is unset,
    so only a -u flag makes its stdout unbuffered."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_python(*argv, timeout=60):
    """Run this interpreter on argv in a child with fresh_env(), output captured as text."""
    return subprocess.run([sys.executable, *argv], env=fresh_env(), capture_output=True,
                          text=True, timeout=timeout)


def run_cli(args, redirect="", unbuffered=False):
    """Run `python [-u] -m pretzeltab.cli args` like run_python, under `sh -c` with
    the shell redirection redirect (`>&-` starts the child with fd 1 closed)."""
    line = shlex.join([sys.executable, *(["-u"] if unbuffered else []), "-m", "pretzeltab.cli", *args])
    return subprocess.run(["sh", "-c", f"{line} {redirect}"], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)


def counts_faults(counts) -> dict[str, tuple[str, object]]:
    """One fault for each exactness check in ``counts.columns``, keyed by the
    sum the check names: the attribute of ``counts`` to replace and its
    replacement.  Each fault leaves the checks before its own exact."""
    dihedral = counts._dihedral
    return {
        # every cyclic divisor sum stops dividing by c
        "cyclic sum": ("totient", lambda d: d),
        # a wrong D(x^2) reaches only the reflection part
        "dihedral sum": ("_D2", [1, 0, 0, 0, -2]),
        # B_-1 one too large at every c: the two parities no longer pair up
        "parity average": ("_dihedral", lambda cyclic, a, a2, n: [
            v + (a is counts._N_MINUS_P) for v in dihedral(cyclic, a, a2, n)]),
    }


def readme_examples() -> list[tuple[str, str]]:
    """Each `$ pretzeltab ...` line in README's Examples block and the output under it."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Examples:\n\n```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    return [(command, "\n".join(out).rstrip("\n") + "\n") for command, out in examples]


def readme_library() -> tuple[str, list[tuple[str, str]]]:
    """README's Library block: its import statement, and each line after it
    as the expression and the comment that follows it."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    imports, lines = block.split("\n\n", 1)
    return imports, [tuple(part.strip() for part in line.split("#", 1))
                     for line in lines.splitlines()]


def benchmark_commands() -> list[list[str]]:
    """The CLI arguments of every command that perfbench/run.py's workloads run."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses looks its module up
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    return [argv for workload in run.WORKLOADS.values() for argv in workload.commands(0)]


def ci_commands() -> list[list[str]]:
    """The CLI arguments of each `pretzeltab` or `-m pretzeltab.cli` call in
    CI's console-script step, up to its first redirection (``2>`` included),
    pipe, `;`, `)` or line end."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("name: Console script", 1)[1]
    return [shlex.split(call) for call in
            re.findall(r"\bpretzeltab(?:\.cli)?\b(.*?)(?:\s\d*>|[;|)]|$)", step, re.M)]
