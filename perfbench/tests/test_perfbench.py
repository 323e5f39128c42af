"""Self-test of the repository benchmark.

Run from the repository root (builds epea_perfbench on first use):

    python3 -m unittest discover -s perfbench/tests -v

- Each workload, at self-test size, prints exactly the metrics that
  BENCHMARK.json declares (end-to-end untraced, per-layer traced), with
  their units, and no failed operation.
- A corrupted reference answer makes checked outputs count as failed
  operations, so the output checks are live.
- Without the project sources next to it the benchmark exits non-zero
  and prints no result.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Planned injection runs of the self-test campaigns (2 cases, 1 flip per
# bit): 2 x 162 bit flips, and 2 x 81 severe runs.
TINY_RUNS = {"perm_campaign": 324, "severe_campaign": 162}


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}\nstderr:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # error_rate == 0
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = last_json(run_bench(workload, 0))
                self.check_result(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = last_json(run_bench(workload, 1))
                self.check_result(result, SPEC["per_layer"])
                metrics = result["metrics"]
                self.assertEqual(metrics["obs.dropped_spans"]["value"], 0)
                self.assertLess(metrics["obs.ledger_residual_pct"]["value"], 2.0)
                campaign_time = sum(metrics[f"stage.{s}_s"]["value"] for s in (
                    "golden-build", "batch-kernel", "scalar-run", "checkpoint", "merge",
                    "orchestration"))
                if workload == "serve_mixed":
                    self.assertEqual(campaign_time, 0)
                    self.assertGreater(metrics["serve.handle_us.optimize"]["value"], 0)
                else:
                    self.assertEqual(metrics["fi.runs"]["value"], TINY_RUNS[workload])
                if workload == "perm_campaign":
                    self.assertGreater(metrics["stage.golden-build_s"]["value"], 0)
                    self.assertGreater(metrics["stage.batch-kernel_s"]["value"], 0)
                if workload == "severe_campaign":
                    self.assertGreater(metrics["stage.scalar-run_s"]["value"], 0)
                    self.assertEqual(metrics["stage.batch-kernel_s"]["value"], 0)
                    self.assertEqual(metrics["fi.lanes_launched"]["value"], 0)


class CheckIsLiveTest(unittest.TestCase):
    def test_corrupted_reference_counts_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = last_json(run_bench(workload, 0, "--corrupt-reference"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_project_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
