#!/usr/bin/env python3
"""pretzeltab benchmark: the CLI timed end to end, one fresh interpreter per command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {table,verify,point} --seed N \\
        --seconds S --trace {0,1}

Each operation is one ``python -m pretzeltab.cli ...`` command in a new
child interpreter (``child.py``), so every cache starts empty, as it does for
a CLI user.  Children run one at a time (closed loop, one client).  A run
cycles through the workload's commands until ``--seconds`` have passed.
The parent records each child's wall time, CPU time and peak RSS with
``os.wait4``, checks every output line against reference counts, and kills a
child that overruns its time limit; all of a killed or failing child's
operations count as failed.

With ``--trace 0`` the run reports the end-to-end metrics (medians over its
children).  With ``--trace 1`` it alternates an untraced and a traced child
(see ``layertrace.py``) on the workload's first command and reports the
per-layer metrics.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record of the
run goes to ``perfbench/results/``.  See README.md for why each workload and
metric was chosen.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import itertools
import json
import os
import platform
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
FROZEN = HERE / "frozen.json"
RESULTS = HERE / "results"

POINT_BAND = (139, 140, 141)
# One child may take this long before it is killed; a whole run stops
# starting children after RUN_LIMIT_S and so ends within the 180 s allowed.
CHILD_LIMIT_S = 120.0
RUN_LIMIT_S = 165.0

# The CPU speed of a shared machine drifts by tens of percent over minutes,
# with other tenants' load.  So right before and right after each child the
# parent times reference_loop() on the CPU the child is pinned to, and the
# child's times are reported scaled by REFERENCE_LOOP_S / (the mean loop
# time): seconds on a machine where the loop takes REFERENCE_LOOP_S.  Raw
# seconds are recorded too.
REFERENCE_LOOP_S = 0.25

Reference = dict[int, tuple[int, int, int]]  # c -> (p1, p2, p3)


def reference_loop() -> int:
    """Fixed pure-Python work, about 0.25 s, that measures the machine's
    current speed.  Never change it: every scaled time is relative to it."""
    total = 0
    for n in range(1, 70_000):
        for k in range(1, 40):
            total += (n * k) % 7 if (n ^ k) & 1 else k // 3
    return total


# --------------------------------------------------------------------------
# Reference counts

def load_reference() -> Reference:
    """Counts per crossing number: tests/reference_data.COUNT_TABLE for
    c = 6..50, frozen.json for the rows it does not cover."""
    spec = importlib.util.spec_from_file_location(
        "reference_data", ROOT / "tests" / "reference_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reference = {c: tuple(row[:3]) for c, row in module.COUNT_TABLE.items()}
    frozen = json.loads(FROZEN.read_text())["rows"]
    reference.update({int(c): tuple(row) for c, row in frozen.items()})
    return reference


# --------------------------------------------------------------------------
# Workloads: the commands a run cycles through, what each must print, and
# how its output parses.  Both return {operation key: value}, so a command's
# failed operations are the keys whose parsed value differs from the
# expected one.

CSV_HEADER = "c,p1,p2,p3,p,total"
VERIFY_HEADER = "   c  type     formula  enumerated  result"
VERIFY_ROW = re.compile(r"\s*(\d+)\s+([123])\s+(\d+)\s+(\d+)\s+(PASS|FAIL)")


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _table_expected(argv, reference):
    rows = {}
    for c in range(_flag(argv, "--min"), _flag(argv, "--max") + 1):
        p1, p2, p3 = reference[c]
        p = p1 + p2 + p3
        rows[c] = (p1, p2, p3, p, 2 * p)
    return rows


def _table_parse(argv, stdout):
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6 or not all(f.isdigit() for f in fields):
            return None
        c, *counts = map(int, fields)
        rows[c] = tuple(counts)
    return rows


def _verify_expected(argv, reference):
    return {(c, t): (reference[c][t - 1], reference[c][t - 1], "PASS")
            for c in range(1, _flag(argv, "--max") + 1) for t in (1, 2, 3)}


def _verify_parse(argv, stdout):
    lines = stdout.splitlines()
    checks = 3 * _flag(argv, "--max")
    if lines[:1] != [VERIFY_HEADER] or lines[-1:] != [f"verify: {checks}/{checks} checks passed"]:
        return None
    rows = {}
    for line in lines[1:-1]:
        match = VERIFY_ROW.fullmatch(line)
        if match is None:
            return None
        c, t, formula, enumerated, result = match.groups()
        rows[int(c), int(t)] = (int(formula), int(enumerated), result)
    return rows


def _count_expected(argv, reference):
    c = _flag(argv, "-c")
    return {(c, t): reference[c][t - 1] for t in (1, 2, 3)}


def _count_parse(argv, stdout):
    fields = stdout.split()
    if stdout.count("\n") != 1 or len(fields) != 3 or not all(f.isdigit() for f in fields):
        return None
    c = _flag(argv, "-c")
    return {(c, t): int(v) for t, v in zip((1, 2, 3), fields)}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[list[str]]]  # seed -> the CLI commands a run cycles through
    expected: Callable[[list[str], Reference], dict]
    parse: Callable[[list[str], str], dict | None]


def _point_commands(seed: int) -> list[list[str]]:
    # The seed orders the band: it picks the first command, which is also
    # the one a traced run uses.
    band = list(POINT_BAND)
    random.Random(seed).shuffle(band)
    return [["count", "-c", str(c)] for c in band]


WORKLOADS = {
    "table": Workload("table", lambda seed: [["table", "--min", "6", "--max", "80"]],
                      _table_expected, _table_parse),
    "verify": Workload("verify", lambda seed: [["verify", "--max", "20"]],
                       _verify_expected, _verify_parse),
    "point": Workload("point", _point_commands, _count_expected, _count_parse),
}


# --------------------------------------------------------------------------
# One child

@dataclass
class Sample:
    argv: list[str]
    traced: bool
    exit_code: int
    timed_out: bool
    setup_s: float | None  # None when the child never reported its import
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    loop_s: float  # mean reference_loop() time around the child, same CPU
    attempted: int
    failed: int
    stderr: str
    trace: dict | None = None


def _time_reference_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def _drain(proc: subprocess.Popen, report_fd: int, deadline: float) -> tuple[list[bytes], bool]:
    """Read stdout, stderr and the report pipe to EOF; kill the child at the
    deadline.  Returns their contents, in that order, and whether it was killed."""
    fds = [proc.stdout.fileno(), proc.stderr.fileno(), report_fd]
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # os.kill, not proc.kill: Popen would reap the child first and
                # lose its resource usage.  It is not reaped until os.wait4.
                os.kill(proc.pid, signal.SIGKILL)
                return [b""] * 3, True
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
    return [b"".join(chunks[fd]) for fd in fds], False


def run_child(workload: Workload, argv: list[str], traced: bool,
              limit: float, reference: Reference, cpu: int) -> Sample:
    """Run one CLI command on `cpu` in a fresh interpreter, between two
    timings of the reference loop there, and check its output."""
    expected = workload.expected(argv, reference)
    os.sched_setaffinity(0, {cpu})  # the child inherits it
    loop_before = _time_reference_loop()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    report_fd, report_w = os.pipe()
    cmd = [sys.executable, str(CHILD), str(report_w), *(["--trace"] if traced else []), "--", *argv]
    start = time.monotonic()
    try:
        try:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    pass_fds=(report_w,))
        finally:
            os.close(report_w)
        with proc.stdout, proc.stderr:
            try:
                (stdout, stderr, report), timed_out = _drain(proc, report_fd, start + limit)
            except BaseException:  # interrupted: leave no child behind
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        os.close(report_fd)
    loop_s = (loop_before + _time_reference_loop()) / 2

    report = json.loads(report) if report else {}
    imported = report.get("imported")
    parsed = None
    if proc.returncode == 0 and not timed_out:
        parsed = workload.parse(argv, stdout.decode())
    if parsed is None:
        failed = len(expected)
    else:
        failed = sum(parsed.get(key) != value for key, value in expected.items())
        failed += len(parsed.keys() - expected.keys())  # a line nobody asked for
    return Sample(
        argv=argv, traced=traced, exit_code=proc.returncode, timed_out=timed_out,
        setup_s=None if imported is None else imported - start,
        wall_s=end - (start if imported is None else imported),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        loop_s=loop_s, attempted=len(expected), failed=failed,
        stderr=stderr.decode(errors="replace")[-2000:],
        trace=report.get("trace"),
    )


# --------------------------------------------------------------------------
# A run

def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: Reference) -> list[Sample]:
    """Cycle through the workload's commands until `seconds` have passed.

    A run ends only after a whole cycle, so each command runs equally often
    (the `point` band's commands differ in cost).  With `trace`, the cycle is
    one untraced and one traced child on the first command, so the two
    differ only by the tracing.
    """
    start = time.monotonic()
    commands = workload.commands(seed)
    jobs = [(commands[0], False), (commands[0], True)] if trace else [(c, False) for c in commands]
    samples = []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for i, (argv, traced) in enumerate(itertools.cycle(jobs)):
            remaining = start + RUN_LIMIT_S - time.monotonic()
            if remaining <= 0:
                break
            samples.append(run_child(workload, argv, traced, min(CHILD_LIMIT_S, remaining),
                                     reference, cpus[i % len(cpus)]))
            if (i + 1) % len(jobs) == 0 and time.monotonic() - start >= seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _fn(name: str, key: str) -> Callable[[dict], float]:
    return lambda t: t["functions"].get(name, {}).get(key, 0)


def _got(section: str, name: str) -> Callable[[dict], float]:
    return lambda t: t[section].get(name, 0)


SB = "signed_bracelets.signed_bracelet_count"

# name -> (unit, value from one traced child's report).  A function that a
# later version drops reads 0 rather than breaking the run.
PER_LAYER: dict[str, tuple[str, Callable[[dict], float]]] = {
    "cli.main.self_s": ("s", _fn("cli.main", "self_s")),
    "counts.count_type1.total_s": ("s", _fn("counts.count_type1", "total_s")),
    "counts.count_type2.total_s": ("s", _fn("counts.count_type2", "total_s")),
    "counts.count_type3.self_s": ("s", _fn("counts.count_type3", "self_s")),
    "counts.type3_params.total_s": ("s", _fn("counts.type3_params", "total_s")),
    "counts.type3_points": ("count", _got("items", "counts.type3_params")),
    f"{SB}.calls": ("count", _fn(SB, "calls")),
    f"{SB}.distinct": ("count", _got("distinct", SB)),
    f"{SB}.self_s": ("s", _fn(SB, "self_s")),
    "signed_bracelets.signed_reflection_fixed_count.self_s":
        ("s", _fn("signed_bracelets.signed_reflection_fixed_count", "self_s")),
    "signed_bracelets.reuse_ratio":
        ("ratio", lambda t: _ratio(_got("distinct", SB)(t), _fn(SB, "calls")(t))),
    **{f"necklaces.{f}.{k}": ("count" if k == "calls" else "s", _fn(f"necklaces.{f}", k))
       for f in ("necklace_count", "bracelet_count", "reflection_fixed_count")
       for k in ("calls", "self_s")},
    "combinat.binom.calls": ("count", _fn("combinat.binom", "calls")),
    "combinat.binom.self_s": ("s", _fn("combinat.binom", "self_s")),
    "combinat.divisors.self_s": ("s", _fn("combinat.divisors", "self_s")),
    "combinat.totient.hit_ratio":
        ("ratio", lambda t: _ratio(t["totient_cache"]["hits"],
                                   t["totient_cache"]["hits"] + t["totient_cache"]["misses"])),
    "tcodes.enumerate_classes.self_s": ("s", _fn("tcodes.enumerate_classes", "self_s")),
    "tcodes.classes": ("count", _got("items", "tcodes.enumerate_classes")),
    "tcodes.canonicalize.calls": ("count", _fn("tcodes.canonicalize", "calls")),
    "tcodes.canonicalize.self_s": ("s", _fn("tcodes.canonicalize", "self_s")),
    "tcodes.violation.calls": ("count", _fn("tcodes.violation", "calls")),
    "tcodes.violation.self_s": ("s", _fn("tcodes.violation", "self_s")),
    "tcodes.class_yield":
        ("ratio", lambda t: _ratio(_got("items", "tcodes.enumerate_classes")(t),
                                   _fn("tcodes.canonicalize", "calls")(t))),
}

TIMES = ("setup_s", "wall_s", "cpu_s")


def _summary(values: list[float], unit: str) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "unit": unit}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit}


def raw_times(samples: list[Sample]) -> dict[str, dict]:
    """Unscaled times of the untraced children, and the reference loop's."""
    plain = [s for s in samples if not s.traced]
    return {name: _summary([getattr(s, name) for s in plain if getattr(s, name) is not None], "s")
            for name in (*TIMES, "loop_s")}


def summarise(samples: list[Sample], trace: bool) -> dict[str, dict]:
    """Median, quartiles and sample count of every reported metric."""
    plain = [s for s in samples if not s.traced]
    if not trace:
        out = {name: _summary([getattr(s, name) * REFERENCE_LOOP_S / s.loop_s
                               for s in plain if getattr(s, name) is not None], "s")
               for name in TIMES}
        out["peak_rss_mib"] = _summary([s.peak_rss_mib for s in plain], "MiB")
        return out
    traced = [s for s in samples if s.traced and s.trace is not None]
    out = {name: _summary([get(s.trace) for s in traced], unit)
           for name, (unit, get) in PER_LAYER.items()}
    overhead = (statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
                if traced and plain else 0.0)
    out["trace.overhead_s"] = {**_summary([overhead], "s"), "n": min(len(traced), len(plain))}
    return out


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  reference: Reference) -> dict:
    """Measure one run and return its full record."""
    started = time.monotonic()
    samples = measure(workload, seed, seconds, trace, reference)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    first_trace = next((s.trace for s in samples if s.trace is not None), None)
    return {
        "workload": workload.name,
        "commands": workload.commands(seed),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "runs": len(samples),
        "elapsed_s": time.monotonic() - started,
        "attempted": attempted,
        "failed": failed,
        "error_rate": _ratio(failed, attempted),
        "metrics": summarise(samples, trace),
        "raw_times": raw_times(samples),
        "samples": [{**dataclasses.asdict(s), "trace": None} for s in samples],
        "layer_samples": [{name: get(s.trace) for name, (_, get) in PER_LAYER.items()}
                          for s in samples if s.trace is not None],
        "first_trace": first_trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "pretzeltab" / "cli.py", ROOT / "tests" / "reference_data.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), load_reference())

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for s in record["samples"]:
        if s["failed"]:
            print(f"FAILED {' '.join(s['argv'])}: exit {s['exit_code']}, "
                  f"timed out {s['timed_out']}, {s['failed']}/{s['attempted']} operations; "
                  f"stderr: {s['stderr'].strip()[-300:]}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {record['runs']} commands, "
          f"python {record['python']}, {record['affinity_cores']} cores")
    for label, metrics in (("", record["metrics"]), ("raw ", record["raw_times"])):
        for name, m in metrics.items():
            print(f"  {label + name:<56} {m['median']:<14.10g} {m['unit']:<6} "
                  f"q1 {m['q1']:.10g}  q3 {m['q3']:.10g}  n {m['n']}")
    print(f"  {'error_rate':<56} {record['error_rate']:<14.10g} ratio  "
          f"{record['failed']}/{record['attempted']} operations failed")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
