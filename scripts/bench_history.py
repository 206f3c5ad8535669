#!/usr/bin/env python3
"""Track key bench metrics across commits and flag regressions.

Reads the same JSON artifacts the dashboard consumes (CLUSTER_*.json,
SERVER_*.json, CALIB_*.json, OPTIMALITY_*.json, REPLAY_*.json), distills
each into a small
set of named metrics, appends one {"commit", "metrics"} record to a
committed JSONL history, and renders a trend table comparing the newest
record against the best value the history has ever seen.

Regression rule: a metric that is more than 10% worse than its best-ever
value is flagged.  Only *deterministic* metrics gate the exit code
(prediction errors, slowdowns, hit rates, anchor-run reductions — values
that are bit-stable for a given commit); wall-clock metrics (speedups,
latencies) vary with the host, so they warn unless --strict promotes
them.

Usage:
    bench_history.py --commit SHA [--history BENCH_HISTORY.jsonl]
                     [--out BENCH_TREND.md] [--strict] [--no-append]
                     [artifact.json ...]

With no artifact files, globs the standard patterns in the current
directory.  Missing artifacts/metrics are fine — the record carries
whatever exists.  Exits non-zero when a gated metric regressed.
"""

import argparse
import glob
import json
import sys

PATTERNS = ["CALIB_*.json", "CLUSTER_*.json", "OPTIMALITY_*.json",
            "REPLAY_*.json", "SERVER_*.json"]

# Metric catalogue: name -> (extractor, direction, gated).
#   extractor  takes the parsed artifact dict, returns a number or None
#   direction  "lower" = smaller is better, "higher" = bigger is better
#   gated      True  = deterministic for a commit; regressions fail the run
#              False = wall-clock-dependent; regressions warn (or fail
#                      under --strict)


def _dig(doc, *keys):
    for k in keys:
        if not isinstance(doc, dict) or k not in doc:
            return None
        doc = doc[k]
    return doc if isinstance(doc, (int, float)) else None


def _policy(doc, name, field):
    for p in doc.get("policies") or []:
        if isinstance(p, dict) and p.get("policy") == name:
            v = p.get(field)
            return v if isinstance(v, (int, float)) else None
    return None


def _policy_attr(doc, name, field):
    """Reads the per-policy wait-attribution block dps_cluster emits."""
    for p in doc.get("policies") or []:
        if isinstance(p, dict) and p.get("policy") == name:
            attr = p.get("attribution")
            if isinstance(attr, dict):
                v = attr.get(field)
                return v if isinstance(v, (int, float)) else None
    return None


def _largest_grid_point(doc, field):
    """Reads `field` of cluster_scale's largest grid point (jobs, then nodes)."""
    points = [g for g in doc.get("grid") or [] if isinstance(g, dict)]
    if not points:
        return None
    v = max(points, key=lambda g: (g.get("job_count", 0), g.get("nodes", 0))).get(field)
    return v if isinstance(v, (int, float)) else None


def _optimality(doc, field):
    opt = doc.get("optimality")
    if not isinstance(opt, dict):
        return None
    v = opt.get(field)
    return v if isinstance(v, (int, float)) else None


def _optimality_policy(doc, name, field):
    opt = doc.get("optimality")
    if not isinstance(opt, dict):
        return None
    for p in opt.get("policies") or []:
        if isinstance(p, dict) and p.get("policy") == name:
            v = p.get(field)
            return v if isinstance(v, (int, float)) else None
    return None


METRICS = {
    # dps_cluster --smoke report (deterministic seeded workload)
    "cluster.equipartition_mean_slowdown":
        (lambda d: _policy(d, "equipartition", "mean_slowdown"), "lower", True),
    "cluster.equipartition_utilization":
        (lambda d: _policy(d, "equipartition", "utilization"), "higher", True),
    # wait attribution (deterministic): the share of queue wait behind the
    # dominant reason — a concentration shift means scheduling behaviour
    # changed, which should be a reviewed decision, not drift
    "cluster.equipartition_dominant_wait_share":
        (lambda d: _policy_attr(d, "equipartition", "dominant_share"), "lower", True),
    "cluster.fcfs_total_wait_sec":
        (lambda d: _policy_attr(d, "fcfs-rigid", "total_wait_sec"), "lower", True),
    # in-engine replay validation (deterministic prediction error)
    "replay.mean_abs_makespan_error":
        (lambda d: _dig(d, "replay", "makespan_error", "mean_abs"), "lower", True),
    # cluster_scale bench
    "scale.events_per_sec":
        (lambda d: _largest_grid_point(d, "events_per_sec"), "higher", False),
    "scale.interp_run_reduction":
        (lambda d: _dig(d, "interpolation", "run_reduction"), "higher", True),
    "scale.interp_mean_abs_error":
        (lambda d: _dig(d, "interpolation", "mean_abs_makespan_error"), "lower", True),
    # profile-service load bench
    "server.cache_hit_rate":
        (lambda d: _dig(d, "load", "cache", "hit_rate"), "higher", True),
    "server.steady_speedup":
        (lambda d: _dig(d, "load", "speedup"), "higher", False),
    "server.steady_p99_ms":
        (lambda d: _dig(d, "load", "steady", "p99_ms"), "lower", False),
    # calibration search (seeded, deterministic score)
    "calibrate.best_score":
        (lambda d: _dig(d, "best", "score"), "lower", True),
    # policy-optimality oracle (deterministic: seeded workloads + exhaustive
    # search): how close the shipped policies get to the proven optimum.
    # A scheduler change that walks a policy away from optimal fails here.
    "optimality.best_policy_makespan_pct":
        (lambda d: _optimality(d, "best_policy_makespan_pct"), "higher", True),
    "optimality.best_policy_slowdown_pct":
        (lambda d: _optimality(d, "best_policy_slowdown_pct"), "higher", True),
    "optimality.fcfs_rigid_makespan_pct":
        (lambda d: _optimality_policy(d, "fcfs-rigid", "makespan_pct_of_optimal"),
         "higher", True),
    "optimality.efficiency_shrink_makespan_pct":
        (lambda d: _optimality_policy(d, "efficiency-shrink",
                                      "makespan_pct_of_optimal"),
         "higher", True),
}

WORSE_THAN_BEST = 0.10  # >10% worse than best-ever flags the metric


def extract(paths):
    """One flat {metric: value} dict over every readable artifact."""
    metrics = {}
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"skipping {path}: {e}", file=sys.stderr)
            continue
        for name, (extractor, _, _) in METRICS.items():
            v = extractor(doc)
            if v is not None and name not in metrics:
                metrics[name] = v
    return metrics


def load_history(path):
    records = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{path}:{lineno}: bad record: {e}", file=sys.stderr)
                    continue
                if isinstance(rec, dict) and isinstance(rec.get("metrics"), dict):
                    records.append(rec)
    except OSError:
        pass  # first run: no history yet
    return records


def is_worse(value, best, direction):
    """More than WORSE_THAN_BEST relatively worse than the best value."""
    if best == 0:
        return False
    if direction == "lower":
        return value > best * (1 + WORSE_THAN_BEST)
    return value < best * (1 - WORSE_THAN_BEST)


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        if v != 0 and (abs(v) >= 1e5 or abs(v) < 1e-3):
            return f"{v:.3e}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="artifact JSON files (default: glob standard patterns)")
    ap.add_argument("--commit", required=True, help="commit id for the new record")
    ap.add_argument("--history", default="BENCH_HISTORY.jsonl",
                    help="JSONL history path (default: %(default)s)")
    ap.add_argument("--out", default="BENCH_TREND.md",
                    help="markdown trend output (default: %(default)s)")
    ap.add_argument("--strict", action="store_true",
                    help="wall-clock metrics gate the exit code too")
    ap.add_argument("--no-append", action="store_true",
                    help="compare against history without writing the new record")
    args = ap.parse_args()

    paths = args.files or sorted(p for pat in PATTERNS for p in glob.glob(pat))
    current = extract(paths)
    if not current:
        print("no metrics extracted; nothing to record", file=sys.stderr)
        return 0

    history = load_history(args.history)
    record = {"commit": args.commit, "metrics": current}
    if not args.no_append:
        with open(args.history, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    history.append(record)

    prev = history[-2]["metrics"] if len(history) >= 2 else {}
    lines = [f"# Bench trend ({len(history)} records)", "",
             "| metric | best | previous | latest | vs best | status |",
             "|---|---|---|---|---|---|"]
    gated_failures = []
    warnings = []
    for name, (_, direction, gated) in METRICS.items():
        value = current.get(name)
        if value is None:
            continue
        seen = [r["metrics"][name] for r in history
                if isinstance(r["metrics"].get(name), (int, float))]
        best = min(seen) if direction == "lower" else max(seen)
        delta = (value / best - 1) * 100 if best else 0.0
        worse = is_worse(value, best, direction)
        if worse and (gated or args.strict):
            status = "**FAIL**"
            gated_failures.append(name)
        elif worse:
            status = "warn"
            warnings.append(name)
        else:
            status = "ok"
        lines.append(f"| {name} | {fmt(best)} | {fmt(prev.get(name))} "
                     f"| {fmt(value)} | {delta:+.1f}% | {status} |")
    lines.append("")
    lines.append(f"Flag rule: >{WORSE_THAN_BEST:.0%} worse than best-ever; "
                 "wall-clock metrics warn only"
                 + (" (promoted to gates by --strict)." if not args.strict else "."))
    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as f:
        f.write(text)
    print(text)
    print(f"wrote {args.out}; history at {args.history} "
          f"({'appended' if not args.no_append else 'not appended'})")

    for name in warnings:
        print(f"warning: {name} regressed >10% vs best (wall-clock; not gating)",
              file=sys.stderr)
    if gated_failures:
        print("regression vs best-ever in: " + ", ".join(gated_failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
