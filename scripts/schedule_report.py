#!/usr/bin/env python3
"""Render a dps_cluster flight record into a markdown schedule report.

Reads the JSON file `dps_cluster --record PATH` wrote (one flight record
per policy: decision audit log, per-job wait attribution, simulated-time
timeseries) and renders:

  * a wait-reason table per policy — total seconds and share of queue
    wait attributed to each reason, plus migration stalls,
  * the top-N most-delayed jobs across policies with their per-reason
    breakdown and dominant cause,
  * timeseries sparklines (utilization and queue depth over simulated
    time) per policy.

Usage:
    schedule_report.py RECORD.json [--out SCHEDULE_REPORT.md] [--top 10]

Prints to stdout when --out is omitted.  Exits non-zero on a malformed
record (missing per-job buckets, buckets not summing to the recorded
total — the invariant the cluster loop guarantees exactly).
"""

import argparse
import json
import sys

REASONS = ["head_of_line", "insufficient_free", "policy_held", "depth_cutoff", "shadow_time"]
LABELS = {
    "head_of_line": "head-of-line blocked",
    "insufficient_free": "insufficient free nodes",
    "policy_held": "held by policy",
    "depth_cutoff": "backfill-depth cutoff",
    "shadow_time": "shadow-time violation",
}
SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(values, width=60):
    """Downsamples to `width` buckets and maps each to a block glyph."""
    if not values:
        return "(no samples)"
    if len(values) > width:
        step = len(values) / width
        values = [values[int(k * step)] for k in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARKS[0] * len(values)
    return "".join(SPARKS[int((v - lo) / (hi - lo) * (len(SPARKS) - 1))] for v in values)


def check_job(policy, job):
    """The exact-sum invariant: buckets telescope to the recorded total."""
    wait = job["wait_ns"]
    total = sum(wait[r] for r in REASONS)
    if total != wait["total"]:
        raise SystemExit(
            f"invariant violation: {policy} job {job['id']} buckets sum to "
            f"{total} ns but total is {wait['total']} ns"
        )


def reason_table(policies):
    lines = [
        "| policy | " + " | ".join(LABELS[r] for r in REASONS)
        + " | total wait | migration stalls | dominant |",
        "|---" * (len(REASONS) + 4) + "|",
    ]
    for pol in policies:
        sums = {r: 0 for r in REASONS}
        total = 0
        stalls = 0
        for job in pol["jobs"]:
            check_job(pol["policy"], job)
            for r in REASONS:
                sums[r] += job["wait_ns"][r]
            total += job["wait_ns"]["total"]
            stalls += job["migration_delay_ns"]
        cells = []
        for r in REASONS:
            sec = sums[r] * 1e-9
            share = sums[r] / total * 100 if total else 0
            cells.append(f"{sec:.2f}s ({share:.0f}%)")
        dominant = max(REASONS, key=lambda r: sums[r]) if total else None
        lines.append(
            f"| {pol['policy']} | " + " | ".join(cells)
            + f" | {total * 1e-9:.2f}s | {stalls * 1e-9:.2f}s | "
            + (LABELS[dominant] if dominant else "none") + " |"
        )
    return lines


def delayed_jobs(policies, top):
    rows = []
    for pol in policies:
        for job in pol["jobs"]:
            rows.append((job["wait_ns"]["total"], pol["policy"], job))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]["id"]))
    lines = [
        "| policy | job | class | wait | dominant reason | share | breakdown |",
        "|---|---|---|---|---|---|---|",
    ]
    for total, policy, job in rows[:top]:
        if total <= 0:
            continue
        parts = [
            f"{LABELS[r]} {job['wait_ns'][r] * 1e-9:.2f}s"
            for r in REASONS
            if job["wait_ns"][r] > 0
        ]
        lines.append(
            f"| {policy} | {job['id']} | {job['class']} | {total * 1e-9:.2f}s "
            f"| {LABELS[job['dominant']]} | {job['dominant_share'] * 100:.0f}% "
            f"| {'; '.join(parts)} |"
        )
    return lines


def timeseries_section(policies):
    lines = []
    for pol in policies:
        ts = pol["timeseries"]
        if not ts["points"]:
            lines.append(f"- **{pol['policy']}**: no timeseries (cadence 0)")
            continue
        span = f"0s .. {ts['t_sec'][-1]:.0f}s" if ts["t_sec"] else "-"
        lines.append(f"**{pol['policy']}** ({ts['points']} samples, {span}, "
                     f"cadence {ts['cadence_sec']:.0f}s)")
        lines.append("")
        lines.append(f"    utilization  {sparkline(ts['utilization'])}")
        lines.append(f"    queue depth  {sparkline(ts['queue_depth'])}")
        lines.append(f"    free nodes   {sparkline(ts['free_nodes'])}")
        lines.append("")
    return lines


def render(doc, top):
    policies = doc["policies"]
    out = [
        "# Schedule report",
        "",
        f"{doc['nodes']} nodes, seed {doc['seed']}, primary policy "
        f"`{doc['primary']}`, {len(policies)} policies, "
        f"{sum(len(p['jobs']) for p in policies)} job rows.",
        "",
        "## Wait-reason attribution per policy",
        "",
        *reason_table(policies),
        "",
        f"## Top-{top} most-delayed jobs",
        "",
        *delayed_jobs(policies, top),
        "",
        "## Cluster timeseries (simulated time)",
        "",
        *timeseries_section(policies),
    ]
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("record", help="JSON file written by dps_cluster --record")
    ap.add_argument("--out", help="write the markdown report here (default: stdout)")
    ap.add_argument("--top", type=int, default=10, help="most-delayed jobs to list")
    args = ap.parse_args()

    try:
        with open(args.record) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read record {args.record}: {e}", file=sys.stderr)
        return 2

    report = render(doc, args.top)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
        print(f"wrote {args.out}")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
