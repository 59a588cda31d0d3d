#!/usr/bin/env python3
"""Tests of `run.py diff`, the comparison of two suite results, against
the bounds BENCHMARK.json sets (ctest mps_e2e_diff_test)."""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = run.load_benchmark()


def results(metrics, workload="gcn-powerlaw-f32", host="h1"):
    """A suite result with one valid untraced record per value index."""
    n = len(next(iter(metrics.values())))
    return {"records": [
        {"workload": workload, "traced": False, "valid": True,
         "comparable": True, "host": {"cpu_model": host},
         "metrics": {name: {"value": values[i], "unit": "ms", "samples": 1}
                     for name, values in metrics.items()}}
        for i in range(n)]}


def bound(name):
    return next(m["bound"] for m in BENCH["end_to_end"] + run.EXTRA_METRICS
                if m["name"] == name)


class DiffTest(unittest.TestCase):
    def verdicts(self, old, new):
        return {name: verdict for _, name, verdict, *_ in
                run.diff_results(old, new, BENCH)}

    def diff_exit_code(self, old, new):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, res in (("old", old), ("new", new)):
                paths.append(Path(d) / f"{name}.json")
                paths[-1].write_text(json.dumps(res))
            return subprocess.run(
                [sys.executable, str(HERE / "run.py"), "diff", *map(str, paths)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    def test_identical_records_pass(self):
        rec = results({"latency_p50_ms": [100, 101, 99, 100, 102],
                       "throughput_per_s": [10, 10.1, 9.9, 10, 10.2]})
        self.assertEqual(set(self.verdicts(rec, rec).values()), {"same"})

    def test_twenty_percent_p50_regression_is_flagged(self):
        # Flagged past the bound, or inside it when every run is worse and
        # the medians part by more than either side's spread.
        old = results({"latency_p50_ms": [100, 101, 99, 100, 102]})
        new = results({"latency_p50_ms": [120, 121.2, 118.8, 120, 122.4]})
        self.assertEqual(self.verdicts(old, new)["latency_p50_ms"],
                         "regression")
        self.assertEqual(self.verdicts(new, old)["latency_p50_ms"],
                         "improved")

    def test_regression_past_the_bound_is_flagged_despite_overlap(self):
        # One new run reads better than the worst old one.
        m = 100 * (1 + 2 * bound("latency_p50_ms"))
        old = results({"latency_p50_ms": [100, 96, 104, 98, 102]})
        new = results({"latency_p50_ms": [m, 103, m + 1, m - 1, m + 0.5]})
        self.assertEqual(self.verdicts(old, new)["latency_p50_ms"],
                         "regression")

    def test_separated_change_below_the_floor_is_the_same(self):
        old = results({"peak_rss_mb": [500.0, 500.1, 500.2, 500.1, 500.0]})
        new = results({"peak_rss_mb": [v * (1 + run.RESOLVED_FLOOR / 2)
                                       for v in (500.0, 500.1, 500.2,
                                                 500.1, 500.0)]})
        self.assertEqual(self.verdicts(old, new)["peak_rss_mb"], "same")

    def test_higher_is_better_metrics_regress_downwards(self):
        old = results({"throughput_per_s": [10, 10.1, 9.9, 10, 10.2]})
        new = results({"throughput_per_s": [7, 7.1, 6.9, 7, 7.2]})
        self.assertEqual(self.verdicts(old, new)["throughput_per_s"],
                         "regression")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # Quartile spread 40% of the median, beyond any allowed bound.
        old = results({"latency_p50_ms": [100, 70, 130, 90, 110]})
        new = results({"latency_p50_ms": [125, 95, 155, 115, 135]})
        self.assertEqual(self.verdicts(old, new)["latency_p50_ms"],
                         "unresolved")

    def test_separated_runs_resolve_despite_spread(self):
        old = results({"latency_p50_ms": [100, 80, 120, 90, 110]})
        new = results({"latency_p50_ms": [150, 160, 170, 155, 165]})
        self.assertEqual(self.verdicts(old, new)["latency_p50_ms"],
                         "regression")

    def test_invalid_records_are_left_out(self):
        old = results({"latency_p50_ms": [100, 101, 99, 100, 102]})
        new = results({"latency_p50_ms": [100, 101, 99, 100, 500, 900]})
        for r in new["records"][4:]:
            r["valid"] = False
        self.assertEqual(self.verdicts(old, new)["latency_p50_ms"], "same")

    def test_exit_codes(self):
        old = results({"latency_p50_ms": [100, 101, 99, 100, 102]})
        new = results({"latency_p50_ms": [140, 141.4, 138.6, 140, 142.8]})
        self.assertEqual(self.diff_exit_code(old, old), 0)
        self.assertEqual(self.diff_exit_code(old, new), 1)
        # Another host fingerprint, or MPS_* knobs set: not comparable.
        other = results({"latency_p50_ms": [100, 101, 99, 100, 102]},
                        host="h2")
        self.assertEqual(self.diff_exit_code(old, other), 2)
        knobs = results({"latency_p50_ms": [100, 101, 99, 100, 102]})
        knobs["records"][0]["comparable"] = False
        self.assertEqual(self.diff_exit_code(old, knobs), 2)


if __name__ == "__main__":
    unittest.main()
