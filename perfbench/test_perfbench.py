#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that each workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that every per-layer metric is measured by at least one
workload; that a tampered probe result trips the correctness gate (nonzero
exit, no result line); that requests an overloaded open loop never sent
count as failed; that broken request accounting is refused; and that
the benchmark fails cleanly where the repository sources are absent.
"""
import json
import math
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def invoke(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


class TinyRuns(unittest.TestCase):
    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return out

    def test_every_metric_with_its_unit(self):
        measured = set()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = self.check_result(invoke(workload, 0),
                                        BENCH["end_to_end"])
                # Error rates and the ladder result may read 0 at tiny
                # sizes; timings, memory and the success share may not.
                for name in ("setup_s", "p50_ms", "p99_ms", "ok_frac",
                             "peak_rss_mb"):
                    self.assertGreater(out["metrics"][name]["value"], 0.0,
                                       name)
                self.check_result(invoke(workload, 1), BENCH["per_layer"])
                full = json.loads((run.BUILD / "results" /
                                   f"{workload}_seed3_trace1.json").read_text())
                measured |= set(full["layers"])
        missing = {m["name"] for m in BENCH["per_layer"]} - measured
        self.assertFalse(missing, f"no workload measures {sorted(missing)}")

    def test_tampered_probe_trips_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = invoke(workload, 0, "--tamper-probe")
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout.strip(), "")
                self.assertIn("probe", proc.stderr)

    def test_unsent_requests_count_as_failed(self):
        # Stalled scoring makes the timed open-loop phases run over their
        # backlog and stop sending. The requests they never sent count as
        # failed, with +inf latency.
        # gateway_score: its latencies are over such phases, so they fall on
        # them and the run exits nonzero without a result.
        proc = invoke("gateway_score", 0, "--stall-scoring")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertIn("unsent", proc.stderr)
        self.assertIn("is not a finite number", proc.stderr)
        # gateway_churn: its latencies are the enroll client's, so the run
        # reports, and the lost scoring requests show as failed.
        proc = invoke("gateway_churn", 0, "--stall-scoring")
        out = self.check_result(proc, BENCH["end_to_end"])
        self.assertIn("unsent", proc.stderr)
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["metrics"]["ok_frac"]["value"], 1.0)

    def test_broken_accounting_is_refused(self):
        good = {"phases": [{"name": "p", "sent": 3, "ok": 2, "shed": 1,
                            "failed": 0}]}
        self.assertEqual(run.check_accounting(good), (3, 1))
        bad = {"phases": [{"name": "p", "sent": 3, "ok": 2, "shed": 0,
                           "failed": 0}]}
        with self.assertRaises(RuntimeError):
            run.check_accounting(bad)

    def test_fails_without_the_repository(self):
        bare = run.BUILD / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = invoke(WORKLOADS[0], 0, cwd=bare,
                          script=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
