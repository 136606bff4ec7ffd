#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Pins the metric names, runs the smoke mode (every workload, both trace
modes, one second each; it builds the benchmark first if needed), and
checks that the benchmark refuses to run without the repository next to it.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

PINNED_WORKLOADS = ["offline_mixed", "serve_steady", "serve_saturate"]
PINNED_END_TO_END = [
    "setup_s", "throughput_per_s", "latency_p50_us", "peak_rss_mib", "requests_attempted",
]
PINNED_PER_LAYER = [
    "numeric.convert_ns_per_elem", "numeric.convert_per_inference",
    "numeric.quantize_ns_per_feature",
    "emac.matmul_mmac_per_s", "emac.matmul_bytes_per_call", "emac.dot_ns_per_mac",
    "runtime.model.tile_us", "runtime.model.row_us", "runtime.model.chain_self_us",
    "runtime.session.call_us.b1", "runtime.session.call_us.b16",
    "runtime.session.call_us.b512", "runtime.worker_pool.run_empty_us",
    "serve.batcher.wait_p50_us", "serve.batcher.wait_p99_us", "serve.batcher.rows_per_batch",
    "serve.protocol.encode_ns", "serve.protocol.extract_ns", "serve.protocol.bytes_per_frame",
    "codec.payload_encode_ns", "codec.payload_decode_ns", "codec.payload_ratio",
    "codec.artifact_load_ms",
    "serve.transport.echo_rtt_us", "serve.server.residual_us", "gen.lag_p99_us",
    "budget.rtt_p50_us", "budget.layer_sum_us",
    "traffic.steady_batch1_row_share", "traffic.saturate_full_tile_row_share",
    "latency_p99_us", "trace.overhead_pct",
]


class PerfbenchTest(unittest.TestCase):
    def test_metric_names_are_pinned(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            contract = json.load(f)
        self.assertEqual([w["name"] for w in contract["workloads"]], PINNED_WORKLOADS)
        self.assertEqual([m["name"] for m in contract["end_to_end"]], PINNED_END_TO_END)
        self.assertEqual([m["name"] for m in contract["per_layer"]], PINNED_PER_LAYER)

    def test_smoke_runs_every_workload(self):
        proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(json.loads(proc.stdout.splitlines()[-1]), {"smoke": "pass"})

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_the_repository(self):
        alone = ROOT / ".bench_build" / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(ROOT / "perfbench", alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve_steady",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=alone,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=180)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
