#!/usr/bin/env python3
"""Aggregate the bench/tool JSON artifacts into one markdown dashboard.

Every bench and smoke step emits a JSON artifact (BENCH_*.json,
CALIB_*.json, CLUSTER_*.json, EXPLORE_*.json, OPTIMALITY_*.json,
REPLAY_*.json, SERVER_*.json).  This script
renders them into a single human-readable summary — check verdicts first,
then the headline numbers of each artifact kind — so a PR's bench
trajectory is one artifact download away instead of five JSON files.

Usage:
    bench_dashboard.py [--out SUMMARY.md] [--strict] [file.json ...]

With no files, globs the default artifact patterns in the current
directory.  Unknown or partially-shaped files degrade to their check
verdicts (or are listed as unrecognized) instead of failing the run;
missing or unreadable files are a warned skip (stderr, no section) so a
fresh checkout renders cleanly.  Exits non-zero when an artifact records
a failed [CHECK] — and, under --strict (CI), when any referenced
artifact was missing or unreadable.
"""

import argparse
import glob
import json
import os
import sys

PATTERNS = ["BENCH_*.json", "CALIB_*.json", "CLUSTER_*.json",
            "EXPLORE_*.json", "OPTIMALITY_*.json",
            "REPLAY_*.json", "SERVER_*.json"]


def fmt(v, digits=3):
    """Compact numeric formatting for tables."""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, int):
        return f"{v:,}"
    if isinstance(v, float):
        if v != 0 and (abs(v) >= 1e5 or abs(v) < 1e-3):
            return f"{v:.2e}"
        return f"{v:.{digits}f}".rstrip("0").rstrip(".")
    return str(v)


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return out


def checks_of(doc):
    if not isinstance(doc, dict):
        return []
    return [c for c in doc.get("checks", [])
            if isinstance(c, dict) and "claim" in c]


def section_checks(doc):
    checks = checks_of(doc)
    if not checks:
        return []
    failed = [c for c in checks if not c.get("pass")]
    lines = [f"**Checks: {len(checks) - len(failed)}/{len(checks)} passed**"]
    for c in failed:
        lines.append(f"- :x: FAILED: {c['claim']}")
    return lines


def section_campaign(doc):
    camp = doc.get("campaign") or {}
    agg = camp.get("aggregate") or {}
    obs = camp.get("observations")
    lines = []
    if isinstance(obs, list):
        lines.append(f"{len(obs)} observations")
    if isinstance(agg, dict) and agg:
        rows = [(k, fmt(v)) for k, v in sorted(agg.items())
                if isinstance(v, (int, float, bool))]
        if rows:
            lines += table(["aggregate", "value"], rows)
    return lines


def section_calibration(doc):
    warm = (doc.get("warm_start") or {}).get("score")
    best = (doc.get("best") or {}).get("score")
    lines = [f"{fmt(doc['evaluations'])} evaluations" if "evaluations" in doc else ""]
    if warm is not None and best is not None:
        gain = (1 - best / warm) * 100 if warm else 0.0
        lines.append(f"warm start {fmt(warm)} -> best {fmt(best)} "
                     f"({fmt(gain, 1)}% better)")
    return [ln for ln in lines if ln]


def section_cluster_scale(doc):
    lines = []
    grid = doc.get("grid") or []
    if grid:
        rows = [(fmt(g.get("job_count")), fmt(g.get("nodes")),
                 fmt(g.get("wall_sec"), 2), fmt(g.get("events")),
                 fmt(g.get("events_per_sec"), 0), fmt(g.get("jobs_per_sec"), 0),
                 fmt(g.get("utilization"), 2)) for g in grid]
        lines += table(["jobs", "nodes", "wall [s]", "events", "events/s",
                        "jobs/s", "util"], rows)
    interp = doc.get("interpolation") or {}
    if interp:
        lines.append(
            f"Interpolated profiles: {fmt(interp.get('engine_runs'))} engine runs for "
            f"{fmt(interp.get('alloc_points'))} allocation points "
            f"(**{fmt(interp.get('run_reduction'), 1)}x** fewer), replay-validated "
            f"|makespan error| mean {fmt(100 * interp.get('mean_abs_makespan_error', 0), 2)}% / "
            f"max {fmt(100 * interp.get('max_abs_makespan_error', 0), 2)}% "
            f"over {fmt(interp.get('replayed'))} jobs")
    return lines


def section_cluster_tool(doc):
    lines = []
    pols = doc.get("policies") or []
    rows = [(p.get("policy"), fmt(p.get("makespan_sec"), 1),
             fmt(p.get("utilization"), 2), fmt(p.get("mean_slowdown"), 2),
             fmt(p.get("mean_wait_sec"), 1), fmt(p.get("reallocations")))
            for p in pols if isinstance(p, dict)]
    if rows:
        lines += table(["policy", "makespan [s]", "util", "mean slowdown",
                        "mean wait [s]", "reallocs"], rows)
    rep = doc.get("replay") or {}
    if rep:
        mk = rep.get("makespan_error") or {}
        by = rep.get("bytes_error") or {}
        lines.append("")
        lines.append(
            f"Replay ({rep.get('policy')}): {fmt(rep.get('replayed'))} replayed, "
            f"{fmt(rep.get('unsupported'))} unsupported; |makespan error| "
            f"mean {fmt(100 * mk.get('mean_abs', 0), 2)}% / "
            f"max {fmt(100 * mk.get('max_abs', 0), 2)}%; |bytes error| "
            f"mean {fmt(100 * by.get('mean_abs', 0), 2)}%")
    return lines


def section_server(doc):
    load = doc.get("load") or {}
    if not load:
        return []
    lines = []
    rows = []
    for phase in ("cold", "steady"):
        p = load.get(phase) or {}
        if p:
            rows.append((phase, fmt(p.get("qps"), 0), fmt(p.get("p50_ms"), 2),
                         fmt(p.get("p99_ms"), 2)))
    if rows:
        lines += table(["phase", "qps", "p50 [ms]", "p99 [ms]"], rows)
    cache = load.get("cache") or {}
    lines.append("")
    lines.append(f"steady/cold speedup **{fmt(load.get('speedup'), 1)}x**, "
                 f"cache hit rate {fmt(cache.get('hit_rate'), 3)}, "
                 f"{fmt(cache.get('engine_runs'))} engine runs")
    return lines


def section_optimality(doc):
    """Shared by the policy_optimality bench and dps_explore --optimality."""
    opt = doc.get("optimality") or {}
    lines = []
    pols = opt.get("policies") or []
    rows = [(p.get("policy"), fmt(p.get("backfill", False)),
             fmt(p.get("makespan_pct_of_optimal"), 1),
             fmt(p.get("slowdown_pct_of_optimal"), 1))
            for p in pols if isinstance(p, dict)]
    if rows:
        lines += table(["policy", "backfill", "makespan % of opt",
                        "slowdown % of opt"], rows)
    best_mk = opt.get("best_policy_makespan_pct")
    best_sl = opt.get("best_policy_slowdown_pct")
    if best_mk is not None:
        lines.append("")
        lines.append(f"best policy: **{fmt(best_mk, 1)}%** of optimal makespan, "
                     f"**{fmt(best_sl, 1)}%** of optimal mean slowdown")
    mk = opt.get("makespan_search") or {}
    if mk:
        lines.append(f"oracle: {fmt(mk.get('states_explored'))} states, "
                     f"{fmt(mk.get('branches_pruned'))} pruned, "
                     f"complete: {fmt(mk.get('complete'))}")
    return lines


def section_verify(doc):
    ver = doc.get("verify") or {}
    if not ver:
        return []
    lines = []
    space = (ver.get("space") or {}).get("report") or {}
    if space:
        lines.append(f"space walk: {fmt(space.get('checks_total'))} invariant checks, "
                     f"{fmt(space.get('violations'))} violations, "
                     f"pass: {fmt(space.get('pass'))}")
    pols = ver.get("policies") or []
    if pols:
        failed = [p for p in pols
                  if not ((p.get("report") or {}).get("pass"))]
        lines.append(f"policy audits: {len(pols) - len(failed)}/{len(pols)} "
                     "policy x backfill configurations pass")
        for p in failed:
            lines.append(f"- :x: {p.get('policy')} "
                         f"(backfill: {fmt(p.get('backfill', False))})")
    mut = ver.get("mutant") or {}
    if mut:
        lines.append(f"head-hold mutant: {fmt(mut.get('violations'))} violations, "
                     f"starvation caught: {fmt(mut.get('starvation_violation'))}, "
                     f"replay confirmed: {fmt(mut.get('replay_confirmed'))}")
    return lines


def render(path, doc):
    name = path.split("/")[-1]
    lines = [f"## {name}", ""]
    if not isinstance(doc, dict):
        return lines + ["(unrecognized shape; no summary extracted)", ""]
    lines += section_checks(doc)
    body = []
    if "optimality" in doc or "verify" in doc:
        body = section_optimality(doc)
        verify = section_verify(doc)
        if body and verify:
            body.append("")
        body += verify
    elif "grid" in doc or "interpolation" in doc:
        body = section_cluster_scale(doc)
    elif "policies" in doc:
        body = section_cluster_tool(doc)
    elif "load" in doc:
        body = section_server(doc)
    elif "campaign" in doc:
        body = section_campaign(doc)
    elif "best" in doc and "warm_start" in doc:
        body = section_calibration(doc)
    if body and lines[-1] != "":
        lines.append("")
    lines += body
    if len(lines) == 2:
        lines.append("(unrecognized shape; no summary extracted)")
    lines.append("")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="artifact JSON files "
                    "(default: glob the standard patterns in cwd)")
    ap.add_argument("--out", default="BENCH_DASHBOARD.md",
                    help="markdown output path (default: %(default)s)")
    ap.add_argument("--strict", action="store_true",
                    help="missing or unreadable artifacts fail the run (CI)")
    args = ap.parse_args()

    paths = args.files or sorted(p for pat in PATTERNS for p in glob.glob(pat))
    out = ["# Bench dashboard", ""]
    total = passed = 0
    parsed = skipped = 0
    for path in paths:
        if not os.path.exists(path):
            print(f"warning: missing artifact {path}: skipped", file=sys.stderr)
            skipped += 1
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: unreadable artifact {path}: {e}: skipped",
                  file=sys.stderr)
            skipped += 1
            continue
        parsed += 1
        checks = checks_of(doc)
        total += len(checks)
        passed += sum(1 for c in checks if c.get("pass"))
        out += render(path, doc)

    out.insert(2, f"{parsed} artifacts; {passed}/{total} checks passed" +
               (" :warning:" if passed < total else "") +
               (f"; {skipped} skipped" if skipped else "") + "\n")
    text = "\n".join(out)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out} ({parsed} artifacts, {passed}/{total} checks"
          + (f", {skipped} skipped" if skipped else "") + ")")
    if passed < total:
        print("failed checks present", file=sys.stderr)
        return 1
    if args.strict and skipped:
        print(f"--strict: {skipped} artifacts missing/unreadable", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
