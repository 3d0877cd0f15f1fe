"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s benchmark -p 'test_*.py'

Run from the repository root. The last tests build dlxbench (if not
built yet) and run both workloads at --tiny size, which takes seconds
once the build exists.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
import run  # noqa: E402

BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def fake_report(cycles, tiles=16, busy=8, scans=100, saved=50):
    return {
        "machine": {"tiles": tiles, "engine_threads": 1},
        "stats": {
            "cycles": cycles, "invocations": 7, "pu_busy_cycles": busy,
            "noc": {"messages_delivered": 3, "flit_hops": 9,
                    "delivery_stalls": 1},
            "engine": {"stepped_cycles": cycles, "noc_stepped_cycles": 2,
                       "tile_scans": scans, "router_scans": scans,
                       "active_tile_cycles_saved": saved,
                       "active_router_cycles_saved": saved,
                       "rebalances": 0},
        },
        "energy": {"total_j": 1e-6},
        "status": "completed", "validated": True,
    }


class PercentileMath(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(range(1, 11), 90), 9.1)
        self.assertEqual(metrics.percentile([5], 99), 5.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 0), 1.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 100), 3.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)

    def test_supported_percentile_needs_ten_beyond(self):
        self.assertIsNone(metrics.supported_percentile(19))
        self.assertEqual(metrics.supported_percentile(20), 50.0)
        self.assertEqual(metrics.supported_percentile(99), 50.0)
        self.assertEqual(metrics.supported_percentile(100), 90.0)
        self.assertEqual(metrics.supported_percentile(324), 95.0)
        self.assertEqual(metrics.supported_percentile(1000), 99.0)
        self.assertEqual(metrics.supported_percentile(10000), 99.9)

    def test_quartile_spread(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.quartile_spread(values),
                               (q3 - q1) / median)


class MetricDerivation(unittest.TestCase):
    def test_engine_end_to_end(self):
        points = [{"wall_s": 2.0, "setup_s": 0.5, "run_s": 1.0,
                   "report": fake_report(100)},
                  {"wall_s": 4.0, "setup_s": 0.7, "run_s": 3.0,
                   "report": fake_report(300)}]
        m = metrics.engine_end_to_end(points, 2048)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertAlmostEqual(m["setup_s"], 0.6)
        self.assertEqual(m["tile_cycles_per_s"], 400 * 16 / 4.0)
        self.assertEqual(m["req_per_s"], 2 / 6.0)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["sim_cycles"], 200)

    def test_serve_end_to_end_is_per_pass(self):
        # Two passes of five requests each, at pass walls 2 s and 3 s.
        requests = [{"latency_s": 0.1 * i, "report": fake_report(10)}
                    for i in range(1, 11)]
        m = metrics.serve_end_to_end(requests, [2.0, 3.0],
                                     [0.01, 0.03, 0.02], 1024)
        self.assertEqual(m["wall_s"], 2.5)
        self.assertEqual(m["req_per_s"], 5 / 2.5)
        self.assertEqual(m["setup_s"], 0.02)
        self.assertEqual(m["tile_cycles_per_s"], 50 * 16 / 2.5)
        self.assertEqual(m["sim_cycles"], 50)
        self.assertAlmostEqual(m["req_p50_ms"], 550.0)
        self.assertAlmostEqual(m["sim_energy_uj"], 5.0)

    def test_engine_scenario_times_are_medians_over_rounds(self):
        runs = [{"wall_s": w, "setup_s": w / 10, "run_s": w / 2,
                 "report": fake_report(10)} for w in (3.0, 1.0, 2.0)]
        m = run.median_of(runs)
        self.assertEqual((m["wall_s"], m["setup_s"], m["run_s"]),
                         (2.0, 0.2, 1.0))

    def test_counter_ratios_are_ratios_of_sums(self):
        reports = [fake_report(10, scans=10, saved=0),
                   fake_report(10, scans=10, saved=20)]
        m = metrics.counter_metrics(reports, sum)
        self.assertEqual(m["tile.scans"], 20)
        self.assertAlmostEqual(m["tile.scan_occupancy"], 20 / 40)
        self.assertAlmostEqual(m["tile.pu_utilization"], 16 / 320)

    def test_self_time_subtracts_children(self):
        spans = [{"name": "scenario", "start_ns": 0, "end_ns": 100,
                  "parent": -1},
                 {"name": "sim.run", "start_ns": 10, "end_ns": 70,
                  "parent": 0},
                 {"name": "cli.render", "start_ns": 80, "end_ns": 90,
                  "parent": 0}]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own["scenario"][0], 30e-9)
        self.assertAlmostEqual(own["sim.run"][0], 60e-9)

    def test_normalized_masks_execution_facets(self):
        a = fake_report(10)
        b = json.loads(json.dumps(a))
        b["machine"]["engine_threads"] = 4
        b["stats"]["engine"]["tile_scans"] = 999
        self.assertEqual(metrics.normalized(a), metrics.normalized(b))
        b["stats"]["cycles"] = 11
        self.assertNotEqual(metrics.normalized(a), metrics.normalized(b))


class SpecAndInputs(unittest.TestCase):
    def setUp(self):
        self.spec = metrics.load_spec()

    def test_spec_follows_the_naming_rules(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], metrics.UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"]
                 if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_spec_workloads_are_the_runner_workloads(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual(self.spec["paths"], ["benchmark"])

    def test_inputs_derive_from_the_seed(self):
        wl = run.WORKLOADS["dense-8x8-t1"]
        a = run.engine_points("dense-8x8-t1", wl, 1, 30)
        self.assertEqual(a, run.engine_points("dense-8x8-t1", wl, 1, 30))
        self.assertNotEqual(a, run.engine_points("dense-8x8-t1", wl, 2,
                                                 30))
        self.assertEqual(len(set(a)), len(a))

    def test_serve_stream_cycles_every_kernel(self):
        wl = run.WORKLOADS["serve-mixed"]
        pool, stream = run.serve_stream("serve-mixed", wl, 1, 30)
        self.assertEqual({p["kernel"] for p in pool}, set(run.KERNELS))
        seeds = {p["seed"] for p in pool}
        self.assertEqual(len(seeds), wl["dataset_seeds"])
        # Every dataset seed meets every kernel and every scale.
        for seed in seeds:
            mine = [p for p in pool if p["seed"] == seed]
            self.assertEqual({p["kernel"] for p in mine}, set(run.KERNELS))
            self.assertEqual({p["scale"] for p in mine}, set(wl["scales"]))
        self.assertEqual(len(stream) % len(pool), 0)
        self.assertEqual(stream, run.serve_stream("serve-mixed", wl, 1,
                                                  30)[1])

    def test_host_guard_refuses_oversubscription(self):
        with mock.patch.object(run, "usable_cpus", return_value=1):
            with self.assertRaises(SystemExit) as exit_:
                run.main(["--workload", "serve-mixed"])
        self.assertEqual(exit_.exception.code, 2)


class EndToEnd(unittest.TestCase):
    """Runs the real command at --tiny size."""

    def run_bench(self, workload, trace, cwd=None):
        return subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=900,
            cwd=cwd or run.ROOT)

    def test_all_workloads_tiny(self):
        spec = metrics.load_spec()
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {
                        "correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    section = spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in section})
                    for m in section:
                        self.assertEqual(result["metrics"][m["name"]]
                                         ["unit"], m["unit"])

    def test_refuses_without_the_simulator_sources(self):
        bare = os.path.abspath(os.path.join(BUILD_DIR, "selftest-bare"))
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(metrics.SPEC_PATH, bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload",
             "dense-8x8-t1", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
