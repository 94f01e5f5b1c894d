"""Checks BENCHMARK.json against its format rules (names, units, counts,
bounds) and the binary's metric catalogs, and the steadiness report's
arithmetic.

Run through `python3 spatebench/run.py --selftest`, which sets
SPATEBENCH_BIN to the built binary (the catalog check is skipped without it).
"""

import importlib.util
import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "spatebench_run", os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        self.assertLessEqual(os.path.getsize(path), 64 * 1024)
        with open(path) as f:
            self.spec = json.load(f)

    def test_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        for arg in spec["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        spec = self.spec
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
            names.append(workload["name"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25, metric["name"])
            names.append(metric["name"])
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            names.append(metric["name"])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    @unittest.skipUnless(os.environ.get("SPATEBENCH_BIN"), "binary not built")
    def test_matches_binary_catalogs(self):
        out = subprocess.run([os.environ["SPATEBENCH_BIN"], "--list-metrics"],
                             capture_output=True, text=True, check=True)
        catalogs = json.loads(out.stdout)
        for key in ("end_to_end", "per_layer"):
            listed = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(listed, catalogs[key], key)


class SpreadTest(unittest.TestCase):
    def test_quartiles_and_relative_spreads(self):
        run = load_run_module()
        s = run.spread([10.0, 12.0, 11.0, 9.0, 13.0])
        self.assertEqual(s["median"], 11.0)
        self.assertEqual((s["q1"], s["q3"]), (9.5, 12.5))
        self.assertAlmostEqual(s["iqr_share"], 3.0 / 11.0)
        self.assertAlmostEqual(s["range_share"], 4.0 / 11.0)
        # The report's quartiles are statistics.quantiles' exclusive ones.
        s = run.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual((s["q1"], s["q3"]), (2.75, 8.25))
        self.assertEqual(s["median"], 5.5)


if __name__ == "__main__":
    unittest.main()
