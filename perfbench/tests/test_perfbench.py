#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Covers metric-name validation, the self-time arithmetic of spans
(perfbench_spans_test), a planted digest mismatch that must surface as
failed ops, smoke-size runs of every workload, and the refusal to run in a
directory without the simulator's sources.  Builds into $CARGO_TARGET_DIR
(default .bench_build) like run.py; scratch files go under .bench_out/.
"""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"

spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def smoke(workload, *extra, cwd=ROOT):
    """Runs run.py at smoke size; returns (exit code, last stdout line, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0",
         "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        spec = run.load_spec()
        self.assertTrue(any(m["name"] == "setup_s" for m in spec["end_to_end"]))

    def test_bad_names_and_units_are_refused(self):
        for bad in ({"name": ".hidden", "unit": "s"}, {"name": "a b", "unit": "s"},
                    {"name": "x" * 65, "unit": "s"}, {"name": "ok", "unit": "sec onds"}):
            with self.assertRaises(run.BenchError, msg=str(bad)):
                run.validate_metric_specs([bad])
        with self.assertRaises(run.BenchError):
            run.validate_metric_specs([{"name": "a", "unit": "s"}, {"name": "a", "unit": "s"}])

    def test_emitted_metrics_must_be_declared_with_their_unit(self):
        specs = [{"name": "wall_s", "unit": "s"}, {"name": "peak_rss_mb", "unit": "MB"}]
        out = run.check_metrics({"wall_s": (1.5, "s")}, specs)
        self.assertEqual(out, {"wall_s": {"value": 1.5, "unit": "s"},
                               "peak_rss_mb": {"value": 0, "unit": "MB"}})
        with self.assertRaises(run.BenchError):
            run.check_metrics({"latency_ms": (1.0, "ms")}, specs)
        with self.assertRaises(run.BenchError):
            run.check_metrics({"wall_s": (1.0, "ms")}, specs)


class Spans(unittest.TestCase):
    def test_self_time_arithmetic(self):
        binary = run.build()
        subprocess.run(["cmake", "--build", str(binary.parent), "--target",
                        "perfbench_spans_test"], check=True, stdout=subprocess.DEVNULL)
        proc = subprocess.run([str(binary.parent / "perfbench_spans_test")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class Smoke(unittest.TestCase):
    def test_every_workload_passes_at_smoke_size(self):
        names = {m["name"] for m in run.load_spec()["end_to_end"]}
        for workload in run.WORKLOADS:
            code, last, err = smoke(workload)
            self.assertEqual(code, 0, err)
            result = json.loads(last)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], err)
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(set(result["metrics"]), names)
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_per_layer_metrics(self):
        code, last, err = smoke("explore-oracle", "--trace", "1")
        self.assertEqual(code, 0, err)
        metrics = json.loads(last)["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in run.load_spec()["per_layer"]})
        self.assertGreater(metrics["explore.states"]["value"], 0)
        self.assertGreater(metrics["self_s.explore"]["value"], 0)

    def test_planted_digest_mismatch_counts_as_failed(self):
        pinned = json.loads(run.PINNED.read_text())
        entry = pinned["cluster-loop@smoke"]["1"]
        name = sorted(entry)[0]
        entry[name] = "0" * 16
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        planted = out / "planted-pinned.json"
        planted.write_text(json.dumps(pinned))
        argv = ["run.py", "--workload", "cluster-loop", "--seed", "1", "--seconds", "0", "--smoke"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "PINNED", planted), mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run.main()
        err = stderr.getvalue()
        self.assertEqual(code, 0, err)
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn(name, err)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_simulator_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cluster-loop", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
