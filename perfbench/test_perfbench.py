#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark first (see run.py); the slowest test runs one short
pass of the smallest workload.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALLEST = "bursty-tenants"


def bench(*args, env=None):
    return subprocess.run([run.BINARY, *args], capture_output=True, text=True, env=env,
                          timeout=run.RUN_TIMEOUT_S)


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_benchmark_json_names(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in self.spec["end_to_end"]])

    def test_workloads_exist_and_specs_parse(self):
        listed = bench("--list")
        self.assertEqual(listed.returncode, 0, listed.stderr)
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.workload_names())

    def test_bad_spec_is_usage_error(self):
        for spec in ["SCP:warps=x", "NOPE", "SCP:repeat=0", "SCP;"]:
            r = bench("--workload", SMALLEST, "--seed", "1", "--seconds", "1", "--trace",
                      "0", "--spec", spec)
            self.assertEqual(r.returncode, 2, spec)
            self.assertIn("bad workload spec", r.stderr)
            self.assertEqual(r.stdout, "")

    def test_lazydram_env_is_refused(self):
        env = dict(os.environ, LAZYDRAM_SHARD="4")
        r = bench("--workload", SMALLEST, "--seed", "1", "--seconds", "1", "--trace", "0",
                  env=env)
        self.assertEqual(r.returncode, 2)
        self.assertIn("LAZYDRAM_SHARD", r.stderr)
        self.assertEqual(r.stdout, "")

    def test_pinned_digest_repeats(self):
        pinned = run.load_digests()
        seed = str(pinned["held_out_seed"])
        self.assertEqual(run.digest(SMALLEST, seed), pinned["digests"][SMALLEST][seed])

    def test_digest_mismatch_counts_as_failed_run(self):
        r = bench("--workload", SMALLEST, "--seed", "1", "--seconds", "1", "--trace", "0",
                  "--expect-digest", "0")
        self.assertEqual(r.returncode, 0, r.stderr)
        res = result_line(r.stdout)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"))
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", SMALLEST,
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn("correct", r.stdout)


if __name__ == "__main__":
    unittest.main()
