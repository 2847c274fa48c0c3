#!/usr/bin/env python3
"""Unit tests for the schema-driven baseline gate (ci/check_perf.py).

Stdlib-only; run directly or via `python3 -m unittest` from ci/. Each test
writes a baseline/current JSON pair into a temp dir and drives check_perf's
main() through sys.argv, asserting on the exit status — the same interface
CI uses.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf  # noqa: E402


def run_gate(baseline, current):
    """Run check_perf.main() on two documents; return (exit_code, stdout)."""
    with tempfile.TemporaryDirectory() as td:
        bpath = os.path.join(td, "baseline.json")
        cpath = os.path.join(td, "current.json")
        with open(bpath, "w") as f:
            json.dump(baseline, f)
        with open(cpath, "w") as f:
            json.dump(current, f)
        argv = ["check_perf.py", cpath, bpath]
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out):
                try:
                    code = check_perf.main()
                except SystemExit as e:  # load/config errors exit directly
                    code = e.code if isinstance(e.code, int) else 2
        finally:
            sys.argv = old_argv
        return code, out.getvalue()


def figure_doc(makespan=1.0, messages=100):
    """The figure-bench baseline shape (fig5 / bspmm / serve_jobs)."""
    return {
        "bench": "fig5",
        "bs": 256,
        "schema": {
            "key": ["nodes", "backend"],
            "exact": ["messages"],
            "tolerance": {"makespan": 0.15},
        },
        "points": [
            {"nodes": 4, "backend": "parsec", "makespan": makespan,
             "messages": messages},
        ],
    }


def schema_doc(**point_overrides):
    point = {"phase": "storm", "ranks": 1024, "mode": "both",
             "events": 8388608, "end": 1.5e-5, "events_per_sec": 1.0e6,
             "speedup": 2.9}
    point.update(point_overrides)
    return {
        "bench": "scale_engine",
        "schema": {
            "key": ["phase", "ranks", "mode"],
            "exact": ["events", "end"],
            "tolerance": {"events_per_sec": {"rel": 0.9, "worse": "below"}},
            "floor": {"speedup": 2.0},
        },
        "points": [point],
    }


class FigureBaselines(unittest.TestCase):
    """Exact counts plus a 15% makespan tolerance, keyed by nodes/backend."""

    def test_identical_documents_pass(self):
        code, out = run_gate(figure_doc(), figure_doc())
        self.assertEqual(code, 0, out)

    def test_exact_count_drift_fails(self):
        code, out = run_gate(figure_doc(), figure_doc(messages=101))
        self.assertEqual(code, 1, out)
        self.assertIn("messages", out)

    def test_makespan_within_tolerance_passes(self):
        code, out = run_gate(figure_doc(), figure_doc(makespan=1.10))
        self.assertEqual(code, 0, out)

    def test_makespan_regression_fails(self):
        code, out = run_gate(figure_doc(), figure_doc(makespan=1.20))
        self.assertEqual(code, 1, out)

    def test_makespan_improvement_passes(self):
        code, out = run_gate(figure_doc(), figure_doc(makespan=0.5))
        self.assertEqual(code, 0, out)

    def test_baseline_without_schema_is_rejected(self):
        base = figure_doc()
        del base["schema"]
        code, _ = run_gate(base, figure_doc())
        self.assertEqual(code, 2)

    def test_config_mismatch_is_an_error(self):
        cur = figure_doc()
        cur["bs"] = 128
        code, _ = run_gate(figure_doc(), cur)
        self.assertNotEqual(code, 0)

    def test_missing_point_is_an_error(self):
        base = figure_doc()
        base["points"].append({"nodes": 8, "backend": "parsec",
                               "makespan": 1.0, "messages": 7})
        code, _ = run_gate(base, figure_doc())
        self.assertNotEqual(code, 0)

    def test_extra_current_points_are_noted_not_gated(self):
        cur = figure_doc()
        cur["points"].append({"nodes": 8, "backend": "parsec",
                              "makespan": 99.0, "messages": 1})
        code, out = run_gate(figure_doc(), cur)
        self.assertEqual(code, 0, out)
        self.assertIn("not gated", out)


class SchemaDriven(unittest.TestCase):
    """Baselines declare what is gated; the script follows the declaration."""

    def test_identical_documents_pass(self):
        code, out = run_gate(schema_doc(), schema_doc())
        self.assertEqual(code, 0, out)

    def test_custom_key_fields_identify_points(self):
        base, cur = schema_doc(), schema_doc(ranks=2048)
        code, _ = run_gate(base, cur)
        self.assertNotEqual(code, 0)  # (storm, 1024, both) missing from cur

    def test_exact_float_field_fails_on_any_drift(self):
        code, out = run_gate(schema_doc(), schema_doc(end=1.5000001e-5))
        self.assertEqual(code, 1, out)
        self.assertIn("end", out)

    def test_floor_violation_fails(self):
        code, out = run_gate(schema_doc(), schema_doc(speedup=1.4))
        self.assertEqual(code, 1, out)
        self.assertIn("floor", out)

    def test_floor_met_passes_even_above_baseline(self):
        code, out = run_gate(schema_doc(), schema_doc(speedup=5.0))
        self.assertEqual(code, 0, out)

    def test_floor_ignores_points_without_the_field(self):
        base, cur = schema_doc(), schema_doc()
        for doc in (base, cur):
            del doc["points"][0]["speedup"]
        code, out = run_gate(base, cur)
        self.assertEqual(code, 0, out)

    def test_below_direction_tolerance_guards_throughput(self):
        code, out = run_gate(schema_doc(), schema_doc(events_per_sec=0.05e6))
        self.assertEqual(code, 1, out)
        self.assertIn("events_per_sec", out)

    def test_below_direction_allows_faster_hosts(self):
        code, out = run_gate(schema_doc(), schema_doc(events_per_sec=9.0e6))
        self.assertEqual(code, 0, out)

    def test_makespan_is_not_gated_unless_declared(self):
        # The schema above declares no makespan rule: drift passes.
        base, cur = schema_doc(), schema_doc()
        base["points"][0]["makespan"] = 1.0
        cur["points"][0]["makespan"] = 3.0
        code, out = run_gate(base, cur)
        self.assertEqual(code, 0, out)

    def test_shorthand_tolerance_means_higher_is_worse(self):
        base = schema_doc()
        base["schema"]["tolerance"] = {"end": 0.10}
        base["schema"]["exact"] = ["events"]
        cur = copy.deepcopy(base)
        cur["points"][0]["end"] = base["points"][0]["end"] * 1.2
        code, _ = run_gate(base, cur)
        self.assertEqual(code, 1)
        cur["points"][0]["end"] = base["points"][0]["end"] * 0.5
        code, _ = run_gate(base, cur)
        self.assertEqual(code, 0)

    def test_bad_tolerance_spec_is_a_usage_error(self):
        base = schema_doc()
        base["schema"]["tolerance"] = {"end": {"rel": 0.1, "worse": "sideways"}}
        code, _ = run_gate(base, schema_doc())
        self.assertEqual(code, 2)

    def test_empty_key_is_a_usage_error(self):
        base = schema_doc()
        base["schema"]["key"] = []
        code, _ = run_gate(base, schema_doc())
        self.assertEqual(code, 2)


def relations_doc(greedy=0.4, cpu=1.0):
    """Two-arm ablation document with a greedy-beats-cpu relation."""
    return {
        "bench": "ablation_device",
        "schema": {
            "key": ["workload", "placement"],
            "exact": ["device_tasks"],
            "relations": [
                {"metric": "makespan", "op": "<=", "factor": 0.5,
                 "left": {"workload": "potrf", "placement": "gpu-greedy"},
                 "right": {"workload": "potrf", "placement": "cpu-only"}},
            ],
        },
        "points": [
            {"workload": "potrf", "placement": "cpu-only", "makespan": cpu,
             "device_tasks": 0},
            {"workload": "potrf", "placement": "gpu-greedy", "makespan": greedy,
             "device_tasks": 16},
        ],
    }


class Relations(unittest.TestCase):
    """Cross-point ordering asserts evaluated on the current run."""

    def test_satisfied_relation_passes(self):
        code, out = run_gate(relations_doc(), relations_doc())
        self.assertEqual(code, 0, out)

    def test_violated_relation_fails(self):
        # greedy only 1.25x faster: misses the <= 0.5x factor.
        code, out = run_gate(relations_doc(), relations_doc(greedy=0.8))
        self.assertEqual(code, 1, out)
        self.assertIn("VIOLATED", out)

    def test_relation_reads_the_current_run_not_the_baseline(self):
        # Baseline itself violates the relation; only the current run counts.
        code, out = run_gate(relations_doc(greedy=0.9), relations_doc())
        self.assertEqual(code, 0, out)

    def test_strict_less_than_rejects_equality(self):
        base = relations_doc()
        base["schema"]["relations"][0].update({"op": "<", "factor": 1.0})
        cur = copy.deepcopy(base)
        cur["points"][1]["makespan"] = cur["points"][0]["makespan"]
        code, out = run_gate(base, cur)
        self.assertEqual(code, 1, out)

    def test_missing_relation_point_fails(self):
        base = relations_doc()
        base["schema"]["relations"][0]["left"]["placement"] = "gpu-always"
        code, _ = run_gate(base, relations_doc())
        self.assertEqual(code, 1)

    def test_bad_relation_op_is_a_usage_error(self):
        base = relations_doc()
        base["schema"]["relations"][0]["op"] = ">"
        code, _ = run_gate(base, relations_doc())
        self.assertEqual(code, 2)

    def test_selector_missing_key_field_is_a_usage_error(self):
        base = relations_doc()
        del base["schema"]["relations"][0]["left"]["workload"]
        code, _ = run_gate(base, relations_doc())
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
