#!/usr/bin/env python3
"""Self-test of tools/bench_gate.py's gate rules; needs no bench binaries.

  python3 tests/bench_gate_test.py [SOURCE_DIR]

Every committed BENCH_<suite>.json must pass when gated against itself,
and one mutated copy per gate rule must fail on exactly that rule. The
mutations keep every other rule satisfied (for instance, a cross-K
id_checksum mismatch is planted in the baseline too, so the per-K exact
rule stays quiet), so each test proves its own rule trips.
"""

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
    ROOT = Path(sys.argv.pop(1))
sys.path.insert(0, str(ROOT / "tools"))
import bench_gate  # noqa: E402


def committed(suite):
    return json.loads((ROOT / f"BENCH_{suite}.json").read_text())


def flipped(checksum):
    """A hex checksum string with its last digit changed."""
    return checksum[:-1] + ("1" if checksum[-1] == "0" else "0")


def gate(suite, baseline, current):
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_gate.GATES[suite](baseline, current)


class CommittedBaselinesPass(unittest.TestCase):
    def test_each_baseline_gated_against_itself_passes(self):
        for suite in bench_gate.SUITES:
            with self.subTest(suite=suite):
                doc = committed(suite)
                self.assertEqual(gate(suite, doc, doc), [])


class MutationTest(unittest.TestCase):
    """Base: mutate a copy of one committed baseline, expect one failure."""

    suite = None

    def setUp(self):
        self.base = committed(self.suite)
        self.cur = copy.deepcopy(self.base)

    def assertTrips(self, needle):
        failures = gate(self.suite, self.base, self.cur)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn(needle, failures[0])


class LpGate(MutationTest):
    suite = "lp"

    def test_iteration_regression_over_20_percent_fails(self):
        cfg = self.cur["configs"][0]
        cfg["optimized"]["lp_iterations"] = int(
            cfg["optimized"]["lp_iterations"] * 1.21) + 1
        cfg["baseline"]["lp_iterations"] *= 2  # keep optimized <= cold
        self.assertTrips("+20%")

    def test_optimized_slower_than_cold_fails(self):
        cfg = self.cur["configs"][0]
        cfg["baseline"]["lp_iterations"] = (
            cfg["optimized"]["lp_iterations"] // 2)
        self.assertTrips("cold baseline")

    def test_no_overlapping_config_fails(self):
        for cfg in self.cur["configs"]:
            cfg["name"] += "_renamed"
        self.assertTrips("no overlapping configs")


class SimdGate(MutationTest):
    suite = "simd"

    def test_flipped_checksum_fails(self):
        cfg = self.cur["configs"][0]
        cfg["checksum"] = flipped(cfg["checksum"])
        self.assertTrips("checksum")

    def test_eval_count_change_fails(self):
        self.cur["configs"][-1]["evals"] += 1
        self.assertTrips("evals")


def default_eps_point(cfg, doc):
    return next(p for p in cfg["epsilon_sweep"]
                if p["epsilon"] == doc["default_epsilon"])


class RecallGate(MutationTest):
    suite = "recall"

    def test_recall10_below_floor_fails(self):
        floor_hits = int(0.95 * self.base["queries"] * self.base["recall_k"])
        for doc in (self.base, self.cur):  # identical, so only the floor trips
            default_eps_point(doc["configs"][0], doc)["recall10_hits"] = (
                floor_hits - 1)
        self.assertTrips("below floor")

    def test_exact_match_below_queries_fails(self):
        for doc in (self.base, self.cur):
            doc["configs"][0]["exact_match"] = doc["queries"] - 1
        self.assertTrips("diverged from the exact tier")

    def test_exact_match_differs_from_baseline_fails(self):
        self.base["configs"][0]["exact_match"] = self.base["queries"] + 1
        self.assertTrips("exact_match")

    def test_exact_checksum_change_fails(self):
        cfg = self.cur["configs"][0]
        cfg["exact_checksum"] = flipped(cfg["exact_checksum"])
        self.assertTrips("exact_checksum")

    def test_sweep_hit_count_change_fails(self):
        self.cur["configs"][0]["budget_sweep"][0]["recall1_hits"] += 1
        self.assertTrips("recall1_hits")


def det(doc):
    return next(s for s in doc["scenarios"] if s["label"] == "det")


class ServeGate(MutationTest):
    suite = "serve"

    def test_det_op_count_change_fails(self):
        det(self.cur)["results"]["inserts"] += 1
        self.assertTrips("det: inserts")

    def test_det_checksum_change_fails(self):
        det(self.cur)["results"]["checksum"] += 1
        self.assertTrips("det: checksum")

    def test_det_error_fails(self):
        det(self.cur)["results"]["errors"] = 1
        self.assertTrips("det: errors")

    def test_missing_det_fails(self):
        self.cur["scenarios"] = [s for s in self.cur["scenarios"]
                                 if s["label"] != "det"]
        self.assertTrips("det scenario missing")

    def test_load_errors_fail(self):
        load = next(s for s in self.cur["scenarios"] if s["label"] == "load")
        load["results"]["errors"] = 3
        self.assertTrips("load: errors")

    def test_det_config_change_fails(self):
        det(self.cur)["config"]["shards"] = 2
        self.assertTrips("det: config")

    def test_load_config_change_fails(self):
        load = next(s for s in self.cur["scenarios"] if s["label"] == "load")
        load["config"]["ops"] += 1
        self.assertTrips("load: config")

    def test_quick_run_without_load_passes(self):
        self.cur["scenarios"] = [det(self.cur)]
        self.assertEqual(gate(self.suite, self.base, self.cur), [])

    def test_broken_conservation_fails(self):
        self.cur["server"]["accepted"] += 1
        self.assertTrips("conservation violated")

    def test_malformed_frame_fails(self):
        self.cur["server"]["malformed"] = 1
        self.assertTrips("malformed")


class ShardGate(MutationTest):
    suite = "shard"

    def test_cross_k_id_checksum_mismatch_fails(self):
        for doc in (self.base, self.cur):  # per-K exact stays satisfied
            doc["scenarios"][-1]["results"]["id_checksum"] += 1
        self.assertTrips("cross-K bit-identity")

    def test_per_k_checksum_change_fails(self):
        self.cur["scenarios"][1]["results"]["checksum"] += 1
        self.assertTrips("checksum")

    def test_unknown_label_fails(self):
        self.cur["scenarios"][0]["label"] = "shard3"
        self.assertTrips("not in committed baseline")

    def test_broken_conservation_fails(self):
        self.cur["scenarios"][2]["server"]["completed"] -= 1
        self.assertTrips("conservation violated")

    def test_quick_subset_passes(self):
        self.cur["scenarios"] = [s for s in self.cur["scenarios"]
                                 if s["label"] in ("shard0", "shard4")]
        self.assertEqual(gate(self.suite, self.base, self.cur), [])


class CommandLine(unittest.TestCase):
    def test_update_refuses_quick(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(bench_gate.main(["update", "lp", "--quick"]), 2)

    def test_update_takes_one_suite(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(bench_gate.main(["update", "all"]), 2)


if __name__ == "__main__":
    unittest.main()
