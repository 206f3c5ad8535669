#!/usr/bin/env python3
"""Benchmark runner: builds perfbench, repeats reps of one workload, checks
every simulated output and prints the metrics.

    python3 perfbench/run.py --workload profile-scaled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload cluster-loop --seed 1 --seconds 5 --trace 0 --smoke

Each rep is a fresh process (src/main.cpp): set-up, then the timed op.
Before each rep a fixed-work host probe runs in a process of its own.  Reps
repeat until --seconds have passed (at least three; with --trace 1 untraced
and traced reps alternate, at least two of each).

Correctness: every rep's own checks, plus each output digest compared with
pinned.json (committed for the default seed, and for every seed where the
output does not depend on it) or, where nothing is pinned, with the first
rep's digest.  Traced reps are held to the same digests as untraced ones.
An op is one such comparison or check; `failed` counts those that fail.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (the end_to_end set of BENCHMARK.json with --trace 0, the per_layer
set with --trace 1).  Metric names and units are validated against
BENCHMARK.json before printing.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
WORKLOADS = ("profile-scaled", "cluster-loop", "explore-oracle")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A run may take 180 s: no rep starts after HARD_STOP_S, and a rep (normally
# under 15 s) is killed after REP_TIMEOUT_S.
HARD_STOP_S = 110
REP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    for group in ("end_to_end", "per_layer"):
        validate_metric_specs(spec[group])
    return spec


def validate_metric_specs(metrics):
    """Names and units must follow the BENCHMARK.json rules."""
    seen = set()
    for m in metrics:
        if not NAME_RE.match(m["name"]) or m["name"] in seen:
            raise BenchError(f"bad or duplicate metric name {m['name']!r}")
        if not UNIT_RE.match(m["unit"]):
            raise BenchError(f"bad unit {m['unit']!r} for {m['name']}")
        seen.add(m["name"])


def check_metrics(values, specs):
    """`values` maps name -> (value, unit); every name must be declared with
    that unit.  Returns the declared set, undeclared-by-this-workload
    metrics reported as 0 (the workload does none of that work)."""
    declared = {m["name"]: m["unit"] for m in specs}
    for name, (_, unit) in values.items():
        if name not in declared:
            raise BenchError(f"metric {name!r} is not declared in BENCHMARK.json")
        if declared[name] != unit:
            raise BenchError(f"metric {name} has unit {unit}, BENCHMARK.json says {declared[name]}")
    return {name: {"value": values.get(name, (0, unit))[0], "unit": unit}
            for name, unit in declared.items()}


def build():
    """Configures once and builds perfbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"simulator sources not found under {ROOT}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    return out / "perfbench"


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{' '.join(cmd[:2])} failed")


def run_child(cmd):
    """Runs one child process to its end; returns its last stdout line, or
    None when it failed."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{cmd[1]} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{cmd[1]} failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return None
    return lines[-1]


def run_rep(binary, workload, seed, traced, smoke, trace_out):
    """The host probe, then one rep, each in a fresh process.  Returns the
    rep's JSON record with the probe's time added, or None when either
    failed."""
    calib = run_child([str(binary), "calib"])
    cmd = [str(binary), "rep", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--trace-out", str(trace_out)]
    if smoke:
        cmd.append("--smoke")
    last = run_child(cmd)
    if calib is None or last is None:
        return None
    try:
        rec = json.loads(last)
    except json.JSONDecodeError:
        log("rep printed no result")
        return None
    rec["calib_ms"] = float(calib)
    return rec


def pinned_key(workload, smoke):
    return workload + ("@smoke" if smoke else "")


class Verdicts:
    """Counts ops: rep checks and digest comparisons."""

    def __init__(self, pinned, key, seed):
        self.attempted = 0
        self.failed = 0
        entry = pinned.get(key, {})
        self.pinned_fixed = entry.get("any", {})
        self.pinned_seed = entry.get(str(seed), {})
        self.first = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")

    def rep_failed(self):
        self.op(False, "rep did not complete")

    def rep(self, rec):
        for name, ok in rec["checks"].items():
            self.op(ok, f"check {name}")
        for group, pins in (("fixed_digests", self.pinned_fixed),
                            ("seed_digests", self.pinned_seed)):
            for name, digest in rec[group].items():
                ref = pins.get(name)
                if ref is not None:
                    self.op(digest == ref, f"{name} digest {digest} != pinned {ref}")
                elif name in self.first:
                    self.op(digest == self.first[name],
                            f"{name} digest {digest} differs from the first rep's {self.first[name]}")
                else:
                    self.first[name] = digest


def measure(binary, args, pinned):
    """Runs reps for `args.seconds`; returns the verdicts, the untraced and
    traced rep records, and the span file of the last traced rep."""
    verdicts = Verdicts(pinned, pinned_key(args.workload, args.smoke), args.seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    reps = {False: [], True: []}
    want_traced = args.trace == 1
    min_each = 2 if want_traced else 3
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = all(len(reps[t]) >= min_each for t in ((False, True) if want_traced else (False,)))
        if (enough and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
            break
        traced = want_traced and n % 2 == 1
        n += 1
        rec = run_rep(binary, args.workload, args.seed, traced, args.smoke, trace_out)
        if rec is None:
            verdicts.rep_failed()
            if n >= 2 * min_each and not reps[False] and not reps[True]:
                break  # nothing works; stop early
            continue
        verdicts.rep(rec)
        if traced and reps[True]:
            for name, m in rec["layers"].items():
                if m["exact"]:
                    ref = reps[True][0]["layers"][name]["value"]
                    verdicts.op(m["value"] == ref, f"count {name} {m['value']} != first rep's {ref}")
        reps[traced].append(rec)
    return verdicts, reps[False], reps[True], trace_out


def med(values):
    return statistics.median(values)


def end_to_end(reps):
    return {
        "setup_s": (med(r["setup_s"] for r in reps), "s"),
        "wall_s": (med(r["wall_s"] for r in reps), "s"),
        "throughput_per_s": (med(r["units"] / r["wall_s"] for r in reps), "1/s"),
        "peak_rss_mb": (med(r["rss_mb"] for r in reps), "MB"),
    }


def per_layer(untraced, traced):
    names = sorted({n for r in traced for n in r["layers"]})
    out = {}
    for n in names:
        unit = traced[0]["layers"][n]["unit"]
        out[n] = (med(r["layers"][n]["value"] for r in traced), unit)
    out["host.calib_ms"] = (med(r["calib_ms"] for r in untraced + traced), "ms")
    out["bench.trace_overhead_frac"] = (
        med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in untraced) - 1, "ratio")
    return out


def run_workload(binary, args, spec, pinned):
    verdicts, untraced, traced, trace_out = measure(binary, args, pinned)
    if not untraced or (args.trace == 1 and not traced):
        raise BenchError(f"{args.workload}: no rep completed")
    if args.trace == 0:
        metrics = check_metrics(end_to_end(untraced), spec["end_to_end"])
    else:
        metrics = check_metrics(per_layer(untraced, traced), spec["per_layer"])
    log("wall_s per rep: " + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}"
                                      for r in untraced + traced))
    print(f"== {args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced reps")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    frac = verdicts.failed / verdicts.attempted if verdicts.attempted else 0.0
    print(f"  {'fail_frac':44s} {frac:>16.6g} ({verdicts.failed} of {verdicts.attempted} ops)")
    if traced:
        print(f"  spans of the last traced rep: {trace_out.relative_to(ROOT)}")
    sys.stdout.flush()
    return verdicts, metrics, untraced + traced


def write_pinned(pinned, args, reps):
    entry = pinned.setdefault(pinned_key(args.workload, args.smoke), {})
    for r in reps:
        for key, digests in (("any", r["fixed_digests"]), (str(args.seed), r["seed_digests"])):
            if digests:
                entry.setdefault(key, {}).update(digests)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    log(f"wrote pinned digests for {args.workload} seed {args.seed} to {PINNED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes that run in seconds")
    ap.add_argument("--write-pinned", action="store_true",
                    help="record this run's digests in pinned.json instead of failing on them")
    args = ap.parse_args()
    try:
        spec = load_spec()
        pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
        binary = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for w in names:
            wargs = argparse.Namespace(**{**vars(args), "workload": w})
            verdicts, m, reps = run_workload(
                binary, wargs, spec, {} if args.write_pinned else pinned)
            attempted += verdicts.attempted
            failed += verdicts.failed
            metrics.update(m if len(names) == 1 else {f"{w}/{k}": v for k, v in m.items()})
            if args.write_pinned and verdicts.failed == 0:
                write_pinned(pinned, wargs, reps)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
