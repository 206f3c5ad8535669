// Cluster event-loop scaling curve + interpolated-profile validation.
//
// Two claims, measured and [CHECK]-asserted:
//
//   1. Event-loop throughput.  A (job-count x nodes) grid of saturated
//      EASY-backfill runs reports wall time, events/sec and jobs/sec for
//      simulateCluster, the one cluster loop.  Saturation matters: an idle
//      cluster never exercises the queue and the backfill scan.  Every
//      point is also checked at a scale the unit tests do not reach: its
//      own decisions, re-executed by replayTrace (decisionTrace, linear in
//      the job count), must reproduce its schedule exactly, and the obs
//      registry must restate its event, reallocation and backfill counts.
//      Points of at most kAuditMaxJobs jobs run once more under
//      verifyPolicy: the flight record must pass all seven invariants, and
//      the recorded run's metrics must equal the timed run's.
//
//   2. Interpolated profile tables.  The scaled mix (dense malleability
//      levels) is profiled from anchor engine runs only; the anchor-run
//      reduction must be >= 4x, anchor entries must be served back from the
//      profile cache bit-for-bit, and the synthesized entries are validated
//      end-to-end by the replay harness: jobs pinned to *non-anchor*
//      allocations run a full engine simulation (static replay) and the
//      aggregate |makespan error| of the interpolated prediction must stay
//      under 5%.
//
// Both interpolation figures are deterministic, so besides the bounds above
// they are [CHECK]ed at their exact values.
//
// JSON artifact (CLUSTER_scale.json): the grid (each point with its replay
// and audit verdicts and wall times) and the interpolation error block.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "sched/cluster.hpp"
#include "sched/explore.hpp"
#include "sched/replay.hpp"
#include "support/json.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;

namespace {

/// Pins every job to a predetermined allocation: admission asks for exactly
/// allocFor[id] and phase boundaries keep it, so each job's history is
/// constant — the static-replay shape that isolates pure profile error.
class PinnedAlloc final : public sched::Policy {
public:
  explicit PinnedAlloc(std::vector<std::int32_t> byJob) : byJob_(std::move(byJob)) {}
  std::string name() const override { return "pinned"; }
  std::int32_t admit(const sched::QueuedJobView& job, const sched::ClassProfile&,
                     const sched::ClusterView&, sched::DecisionContext& ctx) override {
    ctx.rule = "pinned";
    return byJob_.at(static_cast<std::size_t>(job.id));
  }
  std::int32_t reallocate(const sched::RunningJobView& job, const sched::ClassProfile&,
                          const sched::ClusterView&, sched::DecisionContext& ctx) override {
    ctx.rule = "pinned";
    return job.nodes;
  }

private:
  std::vector<std::int32_t> byJob_;
};

/// The largest grid point audited: a 20000-job flight record holds ~4M
/// decisions and peaks near 0.6 GB.
constexpr std::int32_t kAuditMaxJobs = 20000;

/// The run's schedule, job by job, against its replay.
bool sameSchedule(const sched::ClusterMetrics& m, const sched::TraceReplay& r) {
  if (r.makespanSec != m.makespanSec || r.meanSlowdown != m.meanSlowdown ||
      r.jobs.size() != m.jobs.size())
    return false;
  for (std::size_t j = 0; j < m.jobs.size(); ++j) {
    const sched::JobOutcome& want = m.jobs[j];
    const sched::JobOutcome& got = r.jobs[j];
    if (got.startSec != want.startSec || got.finishSec != want.finishSec ||
        got.allocs != want.allocs || got.reallocations != want.reallocations ||
        got.migratedBytes != want.migratedBytes || got.wait.totalNs != want.wait.totalNs ||
        got.wait.migrationDelayNs != want.wait.migrationDelayNs)
      return false;
  }
  return true;
}

struct GridPoint {
  std::int32_t jobCount;
  std::int32_t nodes;
  double rate; // chosen to keep the machine saturated (queue + backfill hot)
};

/// One grid point's measurements and verdicts, as the JSON "grid" reports
/// them.
struct GridRow {
  GridPoint g;
  std::int32_t backfillDepth = 0;
  double wallSec = 0, evPerSec = 0, jobsPerSec = 0;
  std::int64_t events = 0;
  double makespanSec = 0, utilization = 0, meanSlowdown = 0;
  bool replayIdentical = false;
  double replayWallSec = 0;
  bool audited = false, auditPass = false;
  std::uint64_t auditChecks = 0;
  double auditWallSec = 0;
  obs::WaitAttribution waitAttr;

  void writeJson(JsonWriter& w) const {
    w.beginObject()
        .field("job_count", g.jobCount)
        .field("nodes", g.nodes)
        .field("rate", g.rate)
        .field("backfill_depth", backfillDepth)
        .field("wall_sec", wallSec)
        .field("events", events)
        .field("events_per_sec", evPerSec)
        .field("jobs_per_sec", jobsPerSec)
        .field("makespan_sec", makespanSec)
        .field("utilization", utilization)
        .field("mean_slowdown", meanSlowdown)
        .field("replay_identical", replayIdentical)
        .field("replay_wall_sec", replayWallSec);
    if (audited)
      w.field("audit_pass", auditPass)
          .field("audit_checks", auditChecks)
          .field("audit_wall_sec", auditWallSec);
    w.key("wait_attr");
    sched::writeAttributionJson(w, waitAttr);
    w.endObject();
  }
};

} // namespace

int run(Cli& cli) {
  const bench::BenchArgs args(cli, /*withSmoke=*/true);

  // ---------------------------------------------------------------- grid --
  // Saturated EASY-backfill runs under fcfs-rigid (the policy whose blocked
  // head triggers backfill passes constantly).
  const std::vector<GridPoint> grid =
      args.smoke ? std::vector<GridPoint>{{2000, 64, 8.0}, {20000, 256, 30.0}}
                 : std::vector<GridPoint>{{2000, 64, 8.0},
                                          {10000, 64, 8.0},
                                          {50000, 256, 30.0},
                                          {100000, 1024, 120.0},
                                          {100000, 4096, 480.0}};

  std::int32_t maxNodes = 0;
  for (const GridPoint& g : grid) maxNodes = std::max(maxNodes, g.nodes);

  const sched::ProfileSettings settings;
  svc::ProfileCache cache;
  // The default mix tops out at 8 workers, so one small profile table
  // serves every grid point (same class set at any cluster size).
  const auto classes = sched::Workload::defaultMix(maxNodes);
  const auto profiles = svc::buildProfileTable(classes, maxNodes, settings, args.jobs, cache);

  Table t("event-loop scaling (fcfs-rigid + EASY backfill, saturated arrivals)");
  t.header({"jobs", "nodes", "rate [1/s]", "wall [s]", "events", "events/s", "jobs/s",
            "mean slowdown"});
  std::vector<GridRow> rows;
  // Every grid point records into one registry under its own prefix.
  obs::Registry registry;
  for (const GridPoint& g : grid) {
    sched::WorkloadConfig wcfg;
    wcfg.seed = 1;
    wcfg.jobCount = g.jobCount;
    wcfg.arrivalRatePerSec = g.rate;
    wcfg.classes = classes;
    const auto workload = sched::Workload::generate(wcfg, g.nodes);

    auto ccfg = sched::ClusterConfig::fromProfile(settings.platform, g.nodes);
    ccfg.easyBackfill = true;
    // SLURM-style bounded backfill (bf_max_job_test analogue).  Unlimited
    // depth makes every blocked-head pass O(queue), and no production
    // scheduler runs EASY unbounded at this queue depth anyway.
    ccfg.backfillDepth = 100;
    ccfg.metrics = &registry;
    ccfg.metricsPrefix =
        "grid." + std::to_string(g.jobCount) + "x" + std::to_string(g.nodes) + ".";
    sched::FcfsRigid policy;
    const obs::WallClock loopClock;
    const auto m = sched::simulateCluster(ccfg, workload, profiles, policy);
    const double wall = loopClock.elapsedSec();
    const double evPerSec = wall > 0 ? static_cast<double>(m.events) / wall : 0;
    const double jobsPerSec = wall > 0 ? static_cast<double>(g.jobCount) / wall : 0;
    t.row({std::to_string(g.jobCount), std::to_string(g.nodes), Table::num(g.rate, 1),
           Table::num(wall, 2), std::to_string(m.events), Table::num(evPerSec, 0),
           Table::num(jobsPerSec, 0), Table::num(m.meanSlowdown, 2)});
    const std::string tag =
        std::to_string(g.jobCount) + " jobs / " + std::to_string(g.nodes) + " nodes: ";
    check(m.utilization > 0.5, tag + "grid point is actually saturated (utilization > 50%)");
    check(wall > 0 && evPerSec > 0, tag + "wall time and events/s are positive");

    // The Machine re-executes the point's decisions: every job's start,
    // finish, per-phase allocations, migrations and wait ticks, plus the
    // makespan and mean slowdown, must come back bit-identical.
    const obs::WallClock replayClock;
    // A trace the Machine rejects throws, failing the bench with its reason.
    const bool replayIdentical = sameSchedule(
        m, sched::replayTrace(ccfg, workload, profiles,
                              sched::decisionTrace(ccfg, workload, profiles, m)));
    const double replayWall = replayClock.elapsedSec();
    std::printf("%sreplay of its own decisions: %.2fs\n", tag.c_str(), replayWall);
    check(replayIdentical, tag + "loop equals the Machine replay of its own decisions");
    // The observability layer restates the run's own counts.
    const auto snap = registry.snapshot();
    const std::string& prefix = ccfg.metricsPrefix;
    check(
        snap.counter(prefix + "events_processed") == static_cast<std::uint64_t>(m.events) &&
            snap.counter(prefix + "reallocations") == static_cast<std::uint64_t>(m.reallocations) &&
            snap.counter(prefix + "backfill_fires") == static_cast<std::uint64_t>(m.backfillFires),
        tag + "registry events_processed, reallocations and backfill_fires equal the metrics' "
              "own counts");

    // The same run again with a flight recorder, audited against the seven
    // invariants under the workload-derived starvation bound.
    const bool audited = g.jobCount <= kAuditMaxJobs;
    sched::VerifyReport audit;
    double auditWall = 0;
    if (audited) {
      sched::PolicyVerifyOptions vopts;
      vopts.cluster = ccfg;
      sched::FcfsRigid again;
      const obs::WallClock auditClock;
      const auto res = sched::verifyPolicy(vopts, workload, profiles, again);
      auditWall = auditClock.elapsedSec();
      std::printf("%sflight-recorded run and audit: %.2fs\n", tag.c_str(), auditWall);
      audit = res.report;
      check(audit.pass(), tag + "the flight record passes all seven invariants (" +
                              std::to_string(audit.totalChecks()) + " checks)");
      check(res.metrics.jsonString() == m.jsonString(),
            tag + "the audited run's metrics equal the timed run's");
    }
    rows.push_back(GridRow{.g = g, .backfillDepth = ccfg.backfillDepth, .wallSec = wall,
                           .evPerSec = evPerSec, .jobsPerSec = jobsPerSec, .events = m.events,
                           .makespanSec = m.makespanSec, .utilization = m.utilization,
                           .meanSlowdown = m.meanSlowdown, .replayIdentical = replayIdentical,
                           .replayWallSec = replayWall, .audited = audited,
                           .auditPass = audit.pass(), .auditChecks = audit.totalChecks(),
                           .auditWallSec = auditWall, .waitAttr = m.attribution});
  }
  t.print(std::cout);

  // ----------------------------------------------- interpolated profiles --
  // Dense-malleability scaled mix at 48 nodes: anchors only on the engine.
  const std::int32_t interpNodes = 48;
  const auto scaled = sched::Workload::scaledMix(interpNodes);
  svc::ProfileCache interpCache;
  sched::ProfileBuildOptions popts; // interpolate = true, auto anchors
  const obs::WallClock interpClock;
  const auto interp =
      svc::buildProfileTable(scaled, interpNodes, settings, args.jobs, interpCache, popts);
  const double interpWall = interpClock.elapsedSec();
  const auto& binfo = interp.buildInfo();
  std::printf("\ninterpolated scaled-mix table: %zu engine runs for %zu allocation points "
              "(%.1fx reduction, %.1fs)\n",
              binfo.engineRunPoints, binfo.profiledAllocs, binfo.runReduction(), interpWall);
  check(binfo.runReduction() >= 4.0,
        "anchor engine runs reduced >= 4x vs exhaustive profiling (got " +
            Table::num(binfo.runReduction(), 1) + "x)");
  // The exact value: 19 anchor runs for 96 allocation points.  A change to
  // the anchor choice or the scaled mix updates it here, in the same change.
  check(binfo.engineRunPoints == 19 && binfo.profiledAllocs == 96 &&
            binfo.runReduction() == 5.052631578947368,
        "anchor run reduction pinned at 96 points / 19 engine runs");

  // Anchor entries must be the engine profiles bit-for-bit: re-acquiring
  // every anchor through the same cache must hit (no new engine runs) and
  // return exactly the table's stored profile.
  const auto runsBefore = interpCache.stats().engineRuns;
  bool anchorsExact = true;
  for (std::size_t c = 0; c < interp.classCount(); ++c) {
    const auto& cp = interp.of(c);
    const auto full = sched::feasibleAllocations(scaled[c], interpNodes);
    const auto anchors = sched::InterpolatedProfile::pickAnchors(
        full, sched::InterpolatedProfile::autoAnchorCount(full.size()));
    const auto again = svc::acquireProfile(settings, scaled[c], anchors, args.jobs, interpCache);
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      const auto& fresh = again.at(anchors[a]);
      const auto& stored = cp.at(anchors[a]);
      anchorsExact = anchorsExact && fresh.totalSec == stored.totalSec &&
                     fresh.phaseSec == stored.phaseSec && fresh.phaseEff == stored.phaseEff;
    }
  }
  check(anchorsExact, "interpolated table reproduces anchor engine profiles bit-for-bit");
  check(interpCache.stats().engineRuns == runsBefore,
        "re-acquiring anchors is pure cache hits (no new engine runs)");

  // Replay validation of the synthesized entries: pin each job of a small
  // workload to a NON-anchor allocation of its class, simulate, then replay
  // the constant histories on the real engine (static mode).  The
  // prediction error is pure interpolation error.
  sched::WorkloadConfig wcfg;
  wcfg.seed = 7;
  wcfg.jobCount = 12;
  wcfg.arrivalRatePerSec = 0.01; // light load: every pinned job gets its nodes
  wcfg.classes = scaled;
  const auto interpWorkload = sched::Workload::generate(wcfg, interpNodes);
  std::vector<std::int32_t> pinned(interpWorkload.jobs.size(), 0);
  std::vector<std::size_t> perClassPick(scaled.size(), 0);
  for (const auto& job : interpWorkload.jobs) {
    const auto full = sched::feasibleAllocations(scaled[job.klass], interpNodes);
    const auto anchors = sched::InterpolatedProfile::pickAnchors(
        full, sched::InterpolatedProfile::autoAnchorCount(full.size()));
    std::vector<std::int32_t> nonAnchors;
    for (std::int32_t a : full)
      if (!std::binary_search(anchors.begin(), anchors.end(), a)) nonAnchors.push_back(a);
    DPS_CHECK(!nonAnchors.empty(), "scaled-mix class with no non-anchor allocations");
    pinned[static_cast<std::size_t>(job.id)] =
        nonAnchors[perClassPick[job.klass]++ % nonAnchors.size()];
  }
  PinnedAlloc pinPolicy(pinned);
  auto interpCcfg = sched::ClusterConfig::fromProfile(settings.platform, interpNodes);
  const auto pinMetrics = sched::simulateCluster(interpCcfg, interpWorkload, interp, pinPolicy);

  std::printf("replaying %zu non-anchor pinned jobs in-engine (--jobs %u)...\n",
              pinMetrics.jobs.size(), args.jobs);
  sched::ReplaySettings rs;
  rs.engine = settings;
  rs.jobs = args.jobs;
  rs.runner = svc::cachedRunner(interpCache);
  const auto report = sched::replaySchedule(pinMetrics, interpWorkload, interp, rs);
  std::printf("interpolation error vs engine: mean %+.2f%%, |mean| %.2f%%, |max| %.2f%% over "
              "%d replayed jobs\n",
              report.meanMakespanError * 100.0, report.meanAbsMakespanError * 100.0,
              report.maxAbsMakespanError * 100.0, report.replayed);
  check(report.replayed == static_cast<std::int32_t>(pinMetrics.jobs.size()),
        "every pinned job replays (constant histories are static-mode)");
  check(report.meanAbsMakespanError < 0.05,
        "interpolated profiles within 5% aggregate makespan error (replay-validated, "
        "got " +
            Table::num(report.meanAbsMakespanError * 100.0, 2) + "%)");
  check(report.meanAbsMakespanError == 0.029695185817426056,
        "interpolation |makespan error| pinned at its exact value (2.97%)");

  return bench::finish("cluster_scale", args, nullptr, [&](JsonWriter& w) {
    w.key("grid").beginArray();
    for (const GridRow& row : rows) row.writeJson(w);
    w.endArray();
    w.key("interpolation")
        .beginObject()
        .field("nodes", interpNodes)
        .field("engine_runs", static_cast<std::uint64_t>(binfo.engineRunPoints))
        .field("alloc_points", static_cast<std::uint64_t>(binfo.profiledAllocs))
        .field("run_reduction", binfo.runReduction())
        .field("build_wall_sec", interpWall)
        .field("replayed", report.replayed)
        .field("mean_makespan_error", report.meanMakespanError)
        .field("mean_abs_makespan_error", report.meanAbsMakespanError)
        .field("max_abs_makespan_error", report.maxAbsMakespanError)
        .endObject();
    w.key("metrics");
    registry.snapshot().writeJson(w);
  });
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
