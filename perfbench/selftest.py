#!/usr/bin/env python3
"""Self-tests of the benchmark, at toy sizes (about a minute on two cores).

    python3 perfbench/selftest.py

* every workload emits every metric named in BENCHMARK.json, with its
  unit, in both trace modes;
* a different seed changes the inputs (the output digest) but not the
  metric names;
* each workload runs in its own process, so one workload's peak RSS never
  includes another's;
* a failed output check makes the run exit non-zero with correct=false;
* without the library sources the run exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=600)


def last_json(proc):
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def record(workload, seed, trace):
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


class Metrics(unittest.TestCase):
    def check_names(self, trace, specs):
        for w in WORKLOADS:
            proc = run("--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                       "--toy")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = last_json(proc)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, {m["name"]: m["unit"] for m in specs}, w)
            for name, m in result["metrics"].items():
                self.assertIsInstance(m["value"], (int, float), f"{w} {name}")

    def test_end_to_end_metrics_named_with_units(self):
        self.check_names(0, SPEC["end_to_end"])
        for w in WORKLOADS:
            for name in ("trials_per_s", "setup_s", "peak_rss_mib", "msgs_per_op"):
                value = record(w, 3, 0)["children"][0]["metrics"][name]["value"]
                self.assertGreater(value, 0, f"{w} {name}")

    def test_per_layer_metrics_named_with_units(self):
        self.check_names(1, SPEC["per_layer"])

    def test_seed_changes_inputs_not_names(self):
        for w in WORKLOADS:
            names, digests = [], []
            for seed in (5, 6):
                proc = run("--workload", w, "--seed", str(seed), "--seconds", "0.3", "--toy")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                names.append(sorted(last_json(proc)["metrics"]))
                digests.append(record(w, seed, 0)["children"][0]["digest"])
            self.assertEqual(names[0], names[1], w)
            self.assertNotEqual(digests[0], digests[1], w)


class Isolation(unittest.TestCase):
    def test_each_workload_has_its_own_process(self):
        proc = run("--workload", "all", "--seed", "4", "--seconds", "0.3", "--toy")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        together = {w: record(w, 4, 0)["children"][0] for w in WORKLOADS}
        pids = {c["provenance"]["pid"] for c in together.values()}
        self.assertEqual(len(pids), len(WORKLOADS))
        # The last workload's peak matches a run of it alone: nothing the
        # earlier workloads allocated is counted.
        last = WORKLOADS[-1]
        proc = run("--workload", last, "--seed", "4", "--seconds", "0.3", "--toy")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        alone = record(last, 4, 0)["children"][0]["metrics"]["peak_rss_mib"]["value"]
        shared = together[last]["metrics"]["peak_rss_mib"]["value"]
        self.assertLess(abs(shared - alone), 0.25 * alone, (shared, alone))


class Failures(unittest.TestCase):
    def test_failed_check_exits_nonzero(self):
        for w in WORKLOADS:
            proc = run("--workload", w, "--seed", "2", "--seconds", "0.3", "--toy", "--corrupt")
            self.assertNotEqual(proc.returncode, 0, w)
            result = last_json(proc)
            self.assertFalse(result["correct"], w)
            self.assertGreater(result["failed"], 0, w)

    def test_missing_sources_exit_nonzero_without_result(self):
        scratch = ROOT / ".perfbench" / "bare"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        shutil.copytree(HERE, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(scratch / ".bench_build"))
        try:
            proc = run("--workload", "mc-stored", "--seed", "1", "--seconds", "1", cwd=scratch,
                       env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith("{") for l in proc.stdout.splitlines()))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
