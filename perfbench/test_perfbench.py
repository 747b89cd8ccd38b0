#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

Builds the program like run.py does, then checks that
  * the span self-time arithmetic holds on a synthetic nested span set;
  * two runs with one seed give identical exact counts and sim_digest;
  * another seed changes the digest of web_grid's lossy rows;
  * a too-short run timeout is reported as failed runs and a non-zero exit;
  * without the repository's sources the command fails without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

PROGRAM = None


def program(*args):
    res = subprocess.run([str(PROGRAM), *args], stdout=subprocess.PIPE,
                         text=True, timeout=300)
    result = None
    fields = {}
    for line in res.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                fields[key] = value
    return res.returncode, result, fields


class PerfbenchTest(unittest.TestCase):
    def test_span_self_times(self):
        res = subprocess.run([str(PROGRAM.parent / "perfbench_span_test")],
                             stdout=subprocess.PIPE, text=True)
        self.assertEqual(res.returncode, 0, res.stdout)

    def test_same_seed_same_counts_and_digest(self):
        args = ["--workload", "bulk_bdp", "--seed", "5", "--seconds", "0",
                "--trace", "1"]
        code_a, a, _ = program(*args)
        code_b, b, _ = program(*args)
        self.assertEqual((code_a, code_b), (0, 0))
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(a["sim_digest"], b["sim_digest"])
        counts = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                            if v["unit"] in ("count", "bytes")}
        self.assertEqual(len(counts(a)), 21)
        self.assertEqual(counts(a), counts(b))

    def test_seed_changes_lossy_rows_digest(self):
        digests = []
        for seed in ("1", "2"):
            code, result, fields = program("--workload", "web_grid", "--seed",
                                           seed, "--seconds", "0", "--trace",
                                           "0")
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            digests.append(fields["lossy_rows_digest"])
        self.assertNotEqual(digests[0], digests[1])

    def test_short_timeout_fails(self):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "bulk_bdp",
             "--seed", "1", "--seconds", "0", "--trace", "0",
             "--timeout-ms", "50"],
            stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertNotEqual(res.returncode, 0)
        result = json.loads(res.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("timed out", res.stdout)

    def test_fails_without_sources(self):
        alone = run.build_dir() / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", alone)
        try:
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bulk_bdp",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    PROGRAM = run.build()
    unittest.main()
