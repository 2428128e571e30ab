"""Self-test of the benchmark at tiny sizes; takes a few seconds.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "table": [["table", "--min", "6", "--max", "12"]],
    "verify": [["verify", "--max", "8"]],
    "point": [["count", "-c", "20"]],
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], commands=lambda seed: TINY[name])


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = run.load_reference()

    def check_metrics(self, trace: bool, declared: list[dict]):
        for name in TINY:
            with self.subTest(workload=name):
                record = run.run_benchmark(tiny(name), 1, 0, trace, self.reference)
                self.assertGreater(record["attempted"], 0)
                self.assertEqual(record["failed"], 0)
                self.assertEqual({k: m["unit"] for k, m in record["metrics"].items()},
                                 {m["name"]: m["unit"] for m in declared})
        return record

    def test_end_to_end_metrics_by_name_and_unit(self):
        self.check_metrics(False, BENCHMARK["end_to_end"])

    def test_per_layer_metrics_by_name_and_unit(self):
        record = self.check_metrics(True, BENCHMARK["per_layer"])
        # count -c 20: every type 3 point is a distinct signed bracelet.
        self.assertEqual(record["metrics"]["signed_bracelets.reuse_ratio"]["median"], 1.0)
        self.assertEqual(record["metrics"]["counts.type3_points"]["median"],
                         record["metrics"]["signed_bracelets.signed_bracelet_count.calls"]["median"])

    def test_wrong_reference_value_is_an_error(self):
        # c = 5 comes from frozen.json, c = 20 from tests/reference_data.py.
        for name, c in (("verify", 5), ("point", 20)):
            with self.subTest(workload=name):
                reference = dict(self.reference)
                p1, p2, p3 = reference[c]
                reference[c] = (p1, p2, p3 + 1)
                record = run.run_benchmark(tiny(name), 1, 0, False, reference)
                self.assertEqual(record["failed"], 1)
                self.assertGreater(record["error_rate"], 0)

    def test_child_over_its_limit_is_killed_and_fails(self):
        with mock.patch.object(run, "CHILD_LIMIT_S", 0.001):
            record = run.run_benchmark(tiny("table"), 1, 0, False, self.reference)
        self.assertTrue(all(s["timed_out"] for s in record["samples"]))
        self.assertEqual(record["failed"], record["attempted"])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "point",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
