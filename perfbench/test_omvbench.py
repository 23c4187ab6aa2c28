#!/usr/bin/env python3
"""Tests of the benchmark's own bookkeeping, on fixture outputs that hold
a [SHAPE-MISMATCH], a FAILED-cell line and a non-zero exit, so that
shape_ok_frac and the failure count can never silently read 0.

    python3 perfbench/test_omvbench.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import omvbench as ob  # noqa: E402


def fixture(name):
    with open(os.path.join(HERE, "fixtures", name), encoding="utf-8") as f:
        return f.read()


class VerdictTest(unittest.TestCase):
    def test_counts_ok_and_mismatch_lines(self):
        self.assertEqual(ob.count_verdicts(fixture("campaign_stdout.txt")),
                         (3, 1))

    def test_mid_line_marker_is_not_a_verdict(self):
        self.assertEqual(ob.count_verdicts("see [SHAPE-OK] above\n"), (0, 0))

    def test_failed_cell_lines(self):
        lines = ob.failed_cell_lines(fixture("campaign_stdout.txt"))
        self.assertEqual(len(lines), 1)
        self.assertIn("'Dardel/t254'", lines[0])


class PlanTest(unittest.TestCase):
    def test_sums_costs_into_repetitions(self):
        self.assertEqual(ob.plan_totals(fixture("plan.tsv")), (3, 2350.0))

    def test_rejects_malformed_and_empty_plans(self):
        for bad in ("", "table2\t-\tDardel/t4\t0fcc\n",
                    "table2\t-\tDardel/t4\t0fcc\t0\n",
                    "table2\t-\tDardel/t4\t0fcc\tmany\n"):
            with self.assertRaises(ValueError, msg=repr(bad)):
                ob.plan_totals(bad)


class CampaignTest(unittest.TestCase):
    def test_reads_cells_failures_and_seconds(self):
        c = ob.read_campaign(fixture("campaign.json"))
        self.assertEqual(c["cells_computed"], 29)
        self.assertEqual(c["cells_cached"], 2)
        self.assertEqual(c["quarantined"], 1)
        self.assertEqual(c["seconds"], {"fig3": 3.87, "table2": 1.25})


class FailuresTest(unittest.TestCase):
    def inv(self, rc=0, digest="a", quarantined=0):
        return {"rc": rc, "digest": digest, "quarantined": quarantined}

    def test_clean_set(self):
        self.assertEqual(ob.invocation_failures([self.inv()] * 3, 4), (12, 0))

    def test_quarantined_cells_count(self):
        invs = [self.inv(), self.inv(quarantined=1)]
        self.assertEqual(ob.invocation_failures(invs, 4), (8, 1))

    def test_nonzero_exit_fails_every_cell(self):
        invs = [self.inv(), self.inv(rc=4, quarantined=1), self.inv()]
        self.assertEqual(ob.invocation_failures(invs, 4), (12, 4))

    def test_odd_stdout_fails_every_cell(self):
        invs = [self.inv(), self.inv(digest="b"), self.inv()]
        self.assertEqual(ob.invocation_failures(invs, 4), (12, 4))

    def test_from_fixture_outputs(self):
        text = fixture("campaign_stdout.txt")
        camp = ob.read_campaign(fixture("campaign.json"))
        cells, _ = ob.plan_totals(fixture("plan.tsv"))
        inv = {"rc": 4, "digest": ob.digest(text),
               "quarantined": camp["quarantined"]}
        attempted, failed = ob.invocation_failures(
            [inv, dict(inv, rc=0, quarantined=0)], cells)
        self.assertEqual((attempted, failed), (6, 3))
        self.assertGreater(failed / attempted, 0)


class SeedTest(unittest.TestCase):
    def test_seed_zero_is_the_paper_default(self):
        self.assertEqual(ob.held_out_pair(0), ())
        self.assertNotIn("--scenario", ob.omnivar_args("sched-dynamic"))

    def test_other_seeds_pick_two_distinct_held_out_presets(self):
        seen = set()
        for seed in range(1, 40):
            a, b = ob.held_out_pair(seed)
            self.assertNotEqual(a, b)
            self.assertTrue({a, b} <= set(ob.HELD_OUT_POOL))
            self.assertEqual(ob.held_out_pair(seed), (a, b))
            seen.add((a, b))
        self.assertEqual(len(seen), 15)

    def test_worker_count_is_always_explicit(self):
        for w, (_, jobs, _) in ob.WORKLOADS.items():
            args = ob.omnivar_args(w)
            self.assertEqual(args[args.index("--jobs") + 1], str(jobs))


class ContractTest(unittest.TestCase):
    """run.py and trace_run.py report exactly BENCHMARK.json's metrics."""

    def setUp(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path, encoding="utf-8") as f:
            self.bench = json.load(f)

    def test_end_to_end_metrics(self):
        import run
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["end_to_end"]],
            list(run.END_TO_END))

    def test_per_layer_metrics(self):
        import trace_run
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.bench["per_layer"]},
                         trace_run.UNITS)

    def test_workloads(self):
        self.assertEqual({w["name"] for w in self.bench["workloads"]},
                         set(ob.WORKLOADS))


class SpreadTest(unittest.TestCase):
    def test_iqr_share(self):
        self.assertAlmostEqual(ob.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]),
                               (4.5 - 1.5) / 3.0)


if __name__ == "__main__":
    unittest.main()
