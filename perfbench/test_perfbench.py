#!/usr/bin/env python3
"""Self-test of the repository benchmark: seeds, determinism and names.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py and runs every workload three times with a
short measuring window: plain and traced at one seed, plain at a second
seed. It checks that
  * the plain and the traced run at one seed print identical exact results
    (virtual makespan, every exact counter, the output digest);
  * the second seed changes the input and output digests;
  * the result line has the contract's keys, reports no failed check, and
    names every metric of BENCHMARK.json with its unit, in order;
  * BENCHMARK.json itself stays within the benchmark contract.
Takes about two minutes, most of it in potrf-real's matrix generator.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (3, 4)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("{} failed ({}):\n{}{}".format(cmd, p.returncode, p.stdout, p.stderr))
    lines = p.stdout.strip().splitlines()
    fields = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in ("exact", "input_digest"):
            fields[" ".join(parts[:-1])] = parts[-1]
    return json.loads(lines[-1]), fields


class SpecTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            name = w["name"]
            cls.runs[name] = {
                "plain": run(name, SEEDS[0], 0),
                "traced": run(name, SEEDS[0], 1),
                "other_seed": run(name, SEEDS[1], 0),
            }

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_names_and_units_match_spec(self):
        for name, r in self.runs.items():
            with self.subTest(workload=name):
                self.check_result(r["plain"][0], SPEC["end_to_end"])
                self.check_result(r["other_seed"][0], SPEC["end_to_end"])
                self.check_result(r["traced"][0], SPEC["per_layer"])

    def test_one_seed_repeats_exactly(self):
        for name, r in self.runs.items():
            with self.subTest(workload=name):
                plain, traced = r["plain"][1], r["traced"][1]
                self.assertIn("exact makespan_s", plain)
                self.assertEqual(plain, traced)
                self.assertEqual(float(plain["exact makespan_s"]),
                                 r["plain"][0]["metrics"]["makespan_s"]["value"])

    def test_second_seed_changes_inputs(self):
        for name, r in self.runs.items():
            with self.subTest(workload=name):
                a, b = r["plain"][1], r["other_seed"][1]
                self.assertNotEqual(a["input_digest"], b["input_digest"])
                self.assertNotEqual(a["exact app.output_digest"], b["exact app.output_digest"])


if __name__ == "__main__":
    unittest.main()
