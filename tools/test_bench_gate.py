#!/usr/bin/env python3
"""Unit tests for bench_gate.py on crafted result and BENCH files.

    python3 -m unittest -v tools/test_bench_gate.py
"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_gate  # noqa: E402


def traced(hash_, allocs, draws, forward_ns):
    return {
        "fingerprint": {"simd_arm": "avx2", "hash": hash_},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {
                       "crossbar.allocs_per_sample.mlp.fc1":
                           {"value": allocs, "unit": "count"},
                       "aqfp.bernoulli_draws_per_image.serve":
                           {"value": draws, "unit": "count"},
                       "crossbar.forward_ns_per_sample.mlp.fc1":
                           {"value": forward_ns, "unit": "ns"},
                   }},
    }


BENCH = {"traced": traced("aaaa", 2.25, 25600, 40000.0)}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.bench = self.dir / "BENCH_16.json"
        self.bench.write_text(json.dumps(BENCH))

    def tearDown(self):
        self.tmp.cleanup()

    def run_gate(self, result):
        path = self.dir / "result.json"
        path.write_text(json.dumps(result))
        out = io.StringIO()
        with redirect_stdout(out):
            status = bench_gate.main([str(path), "--bench",
                                      str(self.bench)])
        return status, out.getvalue()

    def test_equal_counts_pass_and_wall_times_only_report(self):
        # Ten times slower on the BENCH host itself: still report-only.
        status, out = self.run_gate(traced("aaaa", 2.25, 25600, 4e5))
        self.assertEqual(status, 0, out)
        self.assertIn("report crossbar.forward_ns_per_sample.mlp.fc1", out)

    def test_changed_count_fails_on_any_host(self):
        status, out = self.run_gate(traced("bbbb", 2.5, 25600, 40000.0))
        self.assertEqual(status, 1, out)
        self.assertIn("crossbar.allocs_per_sample.mlp.fc1", out)
        status, out = self.run_gate(traced("aaaa", 2.25, 25601, 40000.0))
        self.assertEqual(status, 1, out)

    def test_missing_count_fails(self):
        result = traced("bbbb", 2.25, 25600, 40000.0)
        del result["result"]["metrics"][
            "aqfp.bernoulli_draws_per_image.serve"]
        status, out = self.run_gate(result)
        self.assertEqual(status, 1, out)
        self.assertIn("missing", out)

    def test_newest_bench_is_by_number(self):
        (self.dir / "BENCH_9.json").write_text("{}")
        self.assertEqual(bench_gate.newest_bench(self.dir).name,
                         "BENCH_16.json")

    def test_unreadable_input_is_status_2(self):
        self.bench.write_text(json.dumps(BENCH)[:-3])
        status, _ = self.run_gate(traced("aaaa", 2.25, 25600, 1.0))
        self.assertEqual(status, 2)


if __name__ == "__main__":
    unittest.main()
