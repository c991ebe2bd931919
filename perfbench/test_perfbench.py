#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks that the metric names are well formed and agree across
BENCHMARK.json, perfbench/workloads.json and the program; that every
workload emits every named metric, with its unit, and a non-zero value
wherever its layer runs; that outputs check and digests are pinned;
and that the traced runs reproduce the expected profile. Runs each
workload for one second in both modes (about a minute in all).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "workloads.json")) as f:
    META = json.load(f)
with open(os.path.join(HERE, "digests.json")) as f:
    DIGESTS = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

_runs = {}


def run(workload, trace):
    """Result line of a one-second run, cached across tests."""
    key = (workload, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(META["default_seed"]), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout
        _runs[key] = json.loads(proc.stdout.splitlines()[-1])
    return _runs[key]


class Names(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = WORKLOADS + list(UNITS)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_files_agree(self):
        self.assertEqual(sorted(META["workloads"]), sorted(WORKLOADS))
        self.assertEqual(sorted(META["layer_map"]),
                         sorted(m["name"] for m in BENCH["per_layer"]))
        for entry in META["layer_map"].values():
            self.assertTrue(set(entry["nonzero_on"]) <= set(WORKLOADS))
        self.assertIn("setup_s", [m["name"] for m in BENCH["end_to_end"]])

    def test_default_and_held_out_seeds_are_pinned(self):
        for w in WORKLOADS:
            for seed in (META["default_seed"], META["held_out_seed"]):
                self.assertIn(str(seed), DIGESTS.get(w, {}), (w, seed))


class Emitted(unittest.TestCase):
    def check_run(self, workload, trace, metrics):
        result = run(workload, trace)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(metrics))
        for name, value in result["metrics"].items():
            self.assertEqual(value["unit"], UNITS[name], name)
        return result["metrics"]

    def test_end_to_end(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_run(w, 0, names)
                for name in names:
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_per_layer(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_run(w, 1, names)
                for name, entry in META["layer_map"].items():
                    if w in entry["nonzero_on"]:
                        self.assertGreater(metrics[name]["value"], 0, name)

    def test_expected_profile(self):
        cut = run("sparsecut-expander", 1)["metrics"]
        self.assertEqual(cut["congest.executed_share"]["value"], 0)
        self.assertEqual(cut["congest.messages"]["value"], 0)
        self.assertGreaterEqual(cut["sparsecut.partition_share"]["value"], 0.9)
        dec = run("decompose-expander", 1)["metrics"]
        op_wall = dec["sparsecut.partition_s"]["value"] / dec["sparsecut.partition_share"]["value"]
        ldd_and_partition = dec["sparsecut.partition_s"]["value"] + dec["expander.ldd_graph_s"]["value"]
        self.assertGreaterEqual(ldd_and_partition / op_wall, 0.9)


if __name__ == "__main__":
    unittest.main()
