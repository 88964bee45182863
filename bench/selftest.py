"""Tests of the benchmark itself (about a minute on two cores).

    python3 bench/selftest.py

Not collected by the repository's pytest run: every case starts the
benchmark as a process, and the calibrate cases take ten seconds each.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Traced counts of one calibrate() at the commit that added the
# benchmark: solver forward evaluations, chain evaluations (cache
# misses) and Kraus channel constructions.  A change that alters how
# often the chain is evaluated moves these on purpose.
CALIBRATE_BASELINE = {
    "calibrate.model_predictions.calls": 244,
    "detection.chain_evals": 2430,
    "qcore.KrausChannel.count": 26730,
}

_runs: dict = {}


def bench(workload: str, trace: int, tag: int = 0, cwd: Path = ROOT
          ) -> subprocess.CompletedProcess:
    """One short benchmark run (cached per workload, trace flag and tag)."""
    key = (workload, trace, tag, cwd)
    if key not in _runs:
        cmd = [sys.executable, str(cwd / "bench" / "run.py"),
               "--workload", workload, "--seed", "20260823",
               "--seconds", "1", "--trace", str(trace)]
        _runs[key] = subprocess.run(cmd, cwd=cwd, capture_output=True,
                                    text=True, timeout=180)
    return _runs[key]


def result(workload: str, trace: int, tag: int = 0) -> dict:
    done = bench(workload, trace, tag)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(res: dict) -> dict:
    return {name: m["value"] for name, m in res["metrics"].items()
            if m["unit"] in ("count", "ratio")}


class SmokeTest(unittest.TestCase):
    """Every named metric is emitted, with its unit, by every workload."""

    def check(self, trace: int, spec_key: str) -> None:
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result(workload, trace)
                self.assertEqual(
                    set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 2)
                self.assertGreaterEqual(res["failed"], 0)
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_end_to_end_times_are_positive(self):
        for workload in WORKLOADS:
            for m in result(workload, 0)["metrics"].values():
                self.assertGreater(m["value"], 0.0)


class TracedCountsTest(unittest.TestCase):

    def test_two_traced_runs_give_identical_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(counts(result(workload, 1, 0)),
                                 counts(result(workload, 1, 1)))

    def test_calibrate_counts_match_baseline(self):
        got = counts(result("calibrate", 1))
        for name, value in CALIBRATE_BASELINE.items():
            self.assertEqual(got[name], value, name)


class NoProgramTest(unittest.TestCase):

    def test_fails_without_printing_a_result(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for workload in WORKLOADS:
                done = bench(workload, 0, cwd=bare)
                self.assertNotEqual(done.returncode, 0)
                self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                bare.parent.rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
