// dps_cluster — multi-job malleable scheduling on a shared simulated machine
// (the paper's §9 outlook at cluster scale).
//
// A seeded Poisson stream of heterogeneous LU and Jacobi jobs arrives at a
// cluster of --nodes nodes.  Each (job class, feasible allocation) pair is
// profiled once on the DPS discrete-event engine — fanned out over --jobs
// concurrent simulations — and the cluster event loop then plays the job
// stream through every scheduling policy, reporting makespan, utilization
// and per-job slowdown.  The run is bit-identical across repetitions and
// across --jobs values.
//
// With --replay the primary policy's allocation histories are additionally
// replayed through the *full* per-application simulation (the mall::
// controller migrating real column state at iteration boundaries) and the
// profile-table predictions are scored against it — closing the prediction
// loop the way the paper validates PDEXEC against direct execution.
//
// Profile tables are interpolated by default: only anchor allocations run
// on the engine, the rest are synthesized (sched::InterpolatedProfile), and
// --exact-profiles restores the exhaustive build.  Large runs: --mix scaled
// for the dense-malleability workload, --progress for wall-clock/ETA lines,
// --timeline-max to down-sample the JSON utilization timeline.
//
// Observability (--metrics / --trace): every policy's event loop records
// cluster.<policy>.* counters/gauges/histograms into one obs::Registry and
// emits per-job queued/run spans (simulated time, one pid lane per policy)
// into one Chrome trace-event file.  Both are read-only taps — the cluster
// results are bit-identical with and without them.
//
//   $ dps_cluster --nodes 8 --policy equipartition --seed 1
//   $ dps_cluster --nodes 8 --policy grow-eager --backfill --replay
//   $ dps_cluster --nodes 4096 --job-count 100000 --mix scaled --progress
//   $ dps_cluster --smoke --trace trace.json --metrics metrics.json
//
// The flight recorder (--record / --explain): every policy's loop feeds an
// obs::Recorder with its full decision audit log (admit/hold verdicts with
// typed wait reasons, backfill passes and candidates, realloc grants with
// the policy's rationale), per-job wait intervals, and a simulated-time
// timeseries sampled every --record-cadence seconds.  --record writes all
// recorders to one JSON file (render with scripts/schedule_report.py);
// --explain JOB_ID prints the causal narrative of one job under the
// primary policy.  Recording is read-only: results stay bit-identical.
//
//   $ dps_cluster --smoke --record record.json --explain 3
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/clock.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sched/cluster.hpp"
#include "sched/replay.hpp"
#include "support/cli.hpp"
#include "svc/profile_cache.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace dps;

namespace {

/// Compresses an allocation history like {8,8,4,4,4} into "8x2 4x3".
std::string describeAllocs(const std::vector<std::int32_t>& allocs) {
  std::ostringstream os;
  std::size_t i = 0;
  while (i < allocs.size()) {
    std::size_t j = i;
    while (j < allocs.size() && allocs[j] == allocs[i]) ++j;
    if (i) os << " ";
    os << allocs[i] << "x" << (j - i);
    i = j;
  }
  return os.str();
}

} // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::int64_t nodes = 0, seed = 0, jobCount = 0, jobs = 0;
  std::int64_t anchors = 0, timelineMax = 0, backfillDepth = 0, explainJob = 0;
  double arrivalRate = 0, threshold = 0, recordCadence = 0;
  std::string policyName, jsonPath, mixName, metricsPath, tracePath, recordPath;
  bool smoke = false, backfill = false, replay = false;
  bool exactProfiles = false, progress = false;
  sched::Workload workload;
  try {
    nodes = cli.integer("nodes", 8, "cluster size in nodes");
    policyName =
        cli.str("policy", "equipartition",
                "primary policy: fcfs-rigid | equipartition | efficiency-shrink | grow-eager");
    seed = cli.integer("seed", 1, "workload seed (arrivals + class mix)");
    arrivalRate = cli.real("arrival-rate", 0.15, "Poisson arrival rate [jobs/s]");
    jobCount = cli.integer("job-count", 12, "number of arriving jobs");
    threshold = cli.real("threshold", 0.5, "efficiency-shrink release threshold");
    jobs = cli.integer("jobs", 0, "concurrent profile simulations (0 = hardware concurrency)");
    jsonPath = cli.str("json", "", "write the full report to this JSON file");
    metricsPath = cli.str("metrics", "",
                          "write the obs registry snapshot (cluster.<policy>.*, svc.cache.*, "
                          "engine.*, mall.*) to this JSON file");
    tracePath = cli.str("trace", "",
                        "write a Chrome trace-event JSON (Perfetto-loadable) of every policy's "
                        "event loop, in simulated time, to this file");
    recordPath = cli.str("record", "",
                         "write every policy's flight record (decision audit log, wait "
                         "intervals, timeseries) to this JSON file");
    recordCadence = cli.real("record-cadence", 10.0,
                             "simulated-time sampling cadence [s] for the recorder timeseries "
                             "(0 disables the timeseries)");
    explainJob = cli.integer("explain", -1,
                             "print the causal narrative (arrival, waits with reasons, "
                             "reallocs, finish) of this job id under the primary policy");
    mixName = cli.str("mix", "default",
                      "job mix: default | scaled (dense malleability levels for large machines)");
    anchors = cli.integer("anchors", 0,
                          "anchor engine runs per class for interpolated profiles (0 = auto)");
    timelineMax = cli.integer("timeline-max", 0,
                              "down-sample each policy's JSON utilization timeline to at most "
                              "this many points (0 = full resolution)");
    backfillDepth = cli.integer("backfill-depth", 0,
                                "max queued jobs one backfill pass examines (0 = unlimited)");
    exactProfiles = cli.flag("exact-profiles",
                             "run every (class x allocation) point on the engine instead of "
                             "interpolating between anchors (today's exhaustive behavior)");
    progress = cli.flag("progress", "wall-clock/ETA progress on stderr for profile builds "
                                    "and event loops");
    backfill = cli.flag("backfill", "EASY backfill on the admission scan (all policies)");
    replay = cli.flag("replay", "replay the primary policy's allocation histories in-engine "
                                "and report prediction errors");
    smoke = cli.flag("smoke", "reduced CI workload (6 jobs)");
    if (cli.helpRequested()) {
      std::printf("%s", cli.helpText().c_str());
      return 0;
    }
    cli.finish();
    if (nodes < 2 || nodes > 4096) throw ConfigError("--nodes must be in [2, 4096]");
    if (jobCount < 1 || jobCount > 100000) throw ConfigError("--job-count must be in [1, 100000]");
    if (jobs < 0 || jobs > 4096) throw ConfigError("--jobs must be in [0, 4096]");
    if (arrivalRate <= 0) throw ConfigError("--arrival-rate must be positive");
    if (threshold <= 0 || threshold >= 1) throw ConfigError("--threshold must be in (0, 1)");
    if (mixName != "default" && mixName != "scaled")
      throw ConfigError("--mix must be default or scaled");
    if (anchors < 0 || anchors > 4096) throw ConfigError("--anchors must be in [0, 4096]");
    if (timelineMax < 0) throw ConfigError("--timeline-max must be >= 0");
    if (backfillDepth < 0) throw ConfigError("--backfill-depth must be >= 0");
    if (recordCadence < 0) throw ConfigError("--record-cadence must be >= 0");
    sched::makePolicy(policyName); // validates the name

    sched::WorkloadConfig wcfg;
    wcfg.seed = static_cast<std::uint64_t>(seed);
    wcfg.jobCount = smoke ? 6 : static_cast<std::int32_t>(jobCount);
    wcfg.arrivalRatePerSec = arrivalRate;
    if (mixName == "scaled")
      wcfg.classes = sched::Workload::scaledMix(static_cast<std::int32_t>(nodes));
    workload = sched::Workload::generate(wcfg, static_cast<std::int32_t>(nodes));
    // -1 (the default) disables --explain; anything else must name a job
    // of this workload, checked before any profile build or simulation.
    if (explainJob != -1 && std::none_of(workload.jobs.begin(), workload.jobs.end(),
                                         [&](const sched::Job& j) { return j.id == explainJob; })) {
      std::string msg = "--explain must name a job id of this workload (0..";
      msg += std::to_string(workload.jobs.size() - 1);
      msg += "), got ";
      msg += std::to_string(explainJob);
      throw ConfigError(msg);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), cli.helpText().c_str());
    return 2;
  }

  std::printf("workload: %s\n", workload.describe().c_str());

  const sched::ProfileSettings settings;
  std::size_t allocPoints = 0;
  for (const auto& k : workload.cfg.classes)
    allocPoints += sched::feasibleAllocations(k, static_cast<std::int32_t>(nodes)).size();
  std::printf("profiling %zu (class x allocation) points %s on the DPS engine (--jobs %lld)...\n",
              allocPoints, exactProfiles ? "exhaustively" : "via anchor interpolation",
              static_cast<long long>(jobs));

  // Observability surfaces for the whole run: one registry (per-policy
  // cluster.<policy>.* prefixes plus the svc.cache.* / engine.* / mall.*
  // metrics the profile build records) and one trace sink (per-policy pid
  // lanes in simulated time).  Both stay detached — and cost nothing —
  // unless their flag asked for a file.
  obs::Registry registry;
  obs::TraceSink trace;
  obs::Registry* const metrics = metricsPath.empty() ? nullptr : &registry;
  obs::TraceSink* const traceSink = tracePath.empty() ? nullptr : &trace;
  // One flight recorder per policy (they are single-run objects), created
  // only when --record or --explain asked for one.
  const bool recording = !recordPath.empty() || explainJob >= 0;
  std::vector<std::unique_ptr<obs::Recorder>> recorders;

  sched::ProfileBuildOptions popts;
  popts.interpolate = !exactProfiles;
  popts.anchors = static_cast<std::int32_t>(anchors);
  const obs::WallClock buildClock;
  std::mutex progressMu;
  obs::ProgressMeter buildMeter(buildClock, 0.5);
  if (progress) {
    popts.onRunDone = [&](std::size_t done, std::size_t planned) {
      std::lock_guard<std::mutex> lock(progressMu);
      if (done != planned && !buildMeter.due()) return;
      const double elapsed = buildMeter.elapsedSec();
      const double eta = obs::ProgressMeter::etaSec(elapsed, static_cast<double>(done),
                                                    static_cast<double>(planned));
      std::fprintf(stderr, "profile build: %zu/%zu engine runs, %.1fs elapsed, ETA %.1fs\n",
                   done, planned, elapsed, eta);
    };
  }
  // One cache serves the profile build and (with --replay) the replay pass:
  // static histories replay the exact spec the profile build simulated, so
  // those runs are hits instead of fresh engine executions.
  svc::ProfileCache cache;
  cache.attachRegistry(metrics);
  const auto profiles =
      svc::buildProfileTable(workload.cfg.classes, static_cast<std::int32_t>(nodes), settings,
                             static_cast<unsigned>(jobs), cache, popts);
  const auto& binfo = profiles.buildInfo();
  std::printf("profile table: %zu engine runs for %zu allocation points (%.1fx reduction, "
              "%.1fs)\n",
              binfo.engineRunPoints, binfo.profiledAllocs, binfo.runReduction(),
              buildClock.elapsedSec());

  Table prof("job profiles (per-phase model from PDEXEC runs)");
  prof.header({"class", "allocs", "phases", "best [s]", "state [MB]"});
  for (std::size_t c = 0; c < profiles.classCount(); ++c) {
    const auto& cp = profiles.of(c);
    std::ostringstream al;
    for (std::size_t i = 0; i < cp.allocs.size(); ++i) al << (i ? "," : "") << cp.allocs[i];
    prof.row({cp.name, al.str(), std::to_string(cp.phases()), Table::num(cp.bestSec(), 2),
              Table::num(cp.stateBytes / 1e6, 1)});
  }
  prof.print(std::cout);

  auto ccfg =
      sched::ClusterConfig::fromProfile(settings.platform, static_cast<std::int32_t>(nodes));
  ccfg.easyBackfill = backfill;
  ccfg.backfillDepth = static_cast<std::int32_t>(backfillDepth);
  std::vector<sched::ClusterMetrics> results;
  const auto policyList = sched::policyNames();
  for (std::size_t pi = 0; pi < policyList.size(); ++pi) {
    const std::string& name = policyList[pi];
    auto policy = name == "efficiency-shrink"
                      ? std::make_unique<sched::EfficiencyShrink>(threshold)
                      : sched::makePolicy(name);
    // Each policy records under its own metric prefix and trace pid lane,
    // so one registry / one trace file carries the whole comparison.
    ccfg.metrics = metrics;
    ccfg.metricsPrefix = "cluster." + name + ".";
    ccfg.trace = traceSink;
    ccfg.tracePid = static_cast<std::int32_t>(pi);
    if (recording) {
      recorders.push_back(std::make_unique<obs::Recorder>(recordCadence));
      ccfg.recorder = recorders.back().get();
    }
    if (traceSink != nullptr)
      trace.processName(static_cast<std::int32_t>(pi), "policy: " + name);
    const obs::WallClock loopClock;
    if (progress) {
      // Roughly one line per ~2% of jobs, with a floor so small runs stay
      // quiet and huge runs aren't spammed per event.
      ccfg.progressEvery = std::max<std::int64_t>(5000, workload.jobs.size());
      ccfg.onProgress = [&, name](const sched::ClusterProgress& p) {
        const double elapsed = loopClock.elapsedSec();
        const double eta = obs::ProgressMeter::etaSec(elapsed, p.finishedJobs, p.totalJobs);
        std::fprintf(stderr,
                     "%s: %d/%d jobs done (%d running, %d queued), %lld events, sim "
                     "t=%.0fs, %.1fs elapsed, ETA %.1fs\n",
                     name.c_str(), p.finishedJobs, p.totalJobs, p.runningJobs, p.queuedJobs,
                     static_cast<long long>(p.events), p.simNowSec, elapsed, eta);
      };
    }
    results.push_back(sched::simulateCluster(ccfg, workload, profiles, *policy));
    if (progress)
      std::fprintf(stderr, "%s: done in %.1fs (%lld events)\n", name.c_str(),
                   loopClock.elapsedSec(), static_cast<long long>(results.back().events));
  }

  // Ranked comparison: best mean slowdown first.
  std::vector<std::size_t> order(results.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (results[a].meanSlowdown != results[b].meanSlowdown)
      return results[a].meanSlowdown < results[b].meanSlowdown;
    return a < b;
  });
  Table cmp("policy comparison (" + std::to_string(workload.jobs.size()) + " jobs, " +
            std::to_string(nodes) + " nodes, seed " + std::to_string(seed) + ")");
  cmp.header({"rank", "policy", "mean slowdown", "max slowdown", "mean wait [s]", "makespan [s]",
              "utilization", "reallocs"});
  for (std::size_t r = 0; r < order.size(); ++r) {
    const auto& m = results[order[r]];
    cmp.row({std::to_string(r + 1), m.policy, Table::num(m.meanSlowdown, 2),
             Table::num(m.maxSlowdown, 2), Table::num(m.meanWaitSec, 1),
             Table::num(m.makespanSec, 1), Table::pct(m.utilization, 1),
             std::to_string(m.reallocations)});
  }
  cmp.print(std::cout);

  // Per-job detail for the primary policy.
  const sched::ClusterMetrics* primary = nullptr;
  for (const auto& m : results)
    if (m.policy == policyName) primary = &m;
  DPS_CHECK(primary != nullptr, "primary policy missing from the result set");
  Table detail("per-job outcomes under " + policyName);
  detail.header({"job", "class", "arrival [s]", "wait [s]", "finish [s]", "slowdown", "allocs"});
  for (const auto& j : primary->jobs)
    detail.row({std::to_string(j.id), j.klass, Table::num(j.arrivalSec, 1),
                Table::num(j.waitSec(), 1), Table::num(j.finishSec, 1),
                Table::num(j.slowdown(), 2), describeAllocs(j.allocs)});
  detail.print(std::cout);

  // In-engine replay of the primary policy's allocation histories: the
  // cluster loop's profile-table predictions scored against the full
  // per-application simulation they abstract.
  sched::ReplayReport replayReport;
  if (replay) {
    std::printf("replaying %zu allocation histories in-engine (--jobs %lld)...\n",
                primary->jobs.size(), static_cast<long long>(jobs));
    sched::ReplaySettings rs;
    rs.engine = settings;
    rs.jobs = static_cast<unsigned>(jobs);
    rs.runner = svc::cachedRunner(cache);
    replayReport = sched::replaySchedule(*primary, workload, profiles, rs);
    Table rt("prediction vs in-engine replay under " + policyName);
    rt.header({"job", "class", "mode", "plan", "predicted [s]", "replayed [s]", "error",
               "bytes err"});
    for (const auto& j : replayReport.jobs) {
      const bool replayed = j.mode != sched::ReplayMode::Unsupported;
      rt.row({std::to_string(j.id), j.klass, sched::replayModeName(j.mode), j.plan,
              Table::num(j.predictedSec, 2), replayed ? Table::num(j.replayedSec, 2) : "-",
              replayed ? Table::pct(j.makespanError(), 1) : "-",
              replayed ? Table::pct(j.bytesError(), 1) : "-"});
    }
    rt.print(std::cout);
    std::printf("replayed %d of %zu jobs (%d unsupported): signed makespan error mean %+.2f%%, "
                "|mean| %.2f%%, |max| %.2f%%; migrated-bytes error over %d migrating jobs: "
                "mean %+.2f%%, |max| %.2f%%\n",
                replayReport.replayed, replayReport.jobs.size(), replayReport.unsupported,
                replayReport.meanMakespanError * 100.0, replayReport.meanAbsMakespanError * 100.0,
                replayReport.maxAbsMakespanError * 100.0, replayReport.bytesJobs,
                replayReport.meanBytesError * 100.0, replayReport.maxAbsBytesError * 100.0);
    const auto cs = cache.stats();
    std::printf("profile cache: %llu lookups, %llu engine runs, hit rate %.0f%%\n",
                static_cast<unsigned long long>(cs.lookups()),
                static_cast<unsigned long long>(cs.engineRuns), cs.hitRate() * 100.0);
  }

  if (explainJob >= 0) {
    std::size_t primaryIdx = 0;
    for (std::size_t pi = 0; pi < policyList.size(); ++pi)
      if (policyList[pi] == policyName) primaryIdx = pi;
    std::printf("\n%s",
                recorders[primaryIdx]->explain(static_cast<std::int32_t>(explainJob)).c_str());
  }

  if (!recordPath.empty()) {
    std::ofstream os(recordPath);
    if (!os) {
      std::fprintf(stderr, "cannot write record to %s\n", recordPath.c_str());
      return 1;
    }
    JsonWriter w(os);
    w.beginObject()
        .field("nodes", nodes)
        .field("seed", seed)
        .field("primary", policyName)
        .field("cadence_sec", recordCadence);
    w.key("policies").beginArray();
    for (const auto& r : recorders) w.raw(r->jsonString());
    w.endArray().endObject();
    DPS_CHECK(w.closed(), "unbalanced record JSON");
    os << "\n";
    std::printf("wrote %s (%zu decisions under %s)\n", recordPath.c_str(),
                recorders.empty() ? 0 : recorders.front()->decisionCount(),
                policyList.empty() ? "?" : policyList.front().c_str());
  }

  if (!jsonPath.empty()) {
    std::ofstream os(jsonPath);
    if (!os) {
      std::fprintf(stderr, "cannot write JSON to %s\n", jsonPath.c_str());
      return 1;
    }
    JsonWriter w(os);
    w.beginObject()
        .field("nodes", nodes)
        .field("seed", seed)
        .field("job_count", workload.jobs.size())
        .field("arrival_rate", arrivalRate)
        .field("primary", policyName)
        .field("mix", mixName)
        .field("exact_profiles", exactProfiles)
        .field("profile_engine_runs", static_cast<std::uint64_t>(binfo.engineRunPoints))
        .field("profile_allocs", static_cast<std::uint64_t>(binfo.profiledAllocs))
        .field("workload", workload.describe());
    w.key("policies").beginArray();
    for (const auto& m : results) w.raw(m.jsonString(static_cast<std::int32_t>(timelineMax)));
    w.endArray();
    if (replay) w.key("replay").raw(replayReport.jsonString());
    w.endObject();
    DPS_CHECK(w.closed(), "unbalanced cluster JSON");
    os << "\n";
    std::printf("wrote %s\n", jsonPath.c_str());
  }

  if (!metricsPath.empty()) {
    std::ofstream os(metricsPath);
    if (!os) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metricsPath.c_str());
      return 1;
    }
    os << registry.jsonString() << "\n";
    std::printf("wrote %s\n", metricsPath.c_str());
  }
  if (!tracePath.empty()) {
    if (!trace.writeFile(tracePath)) {
      std::fprintf(stderr, "cannot write trace to %s\n", tracePath.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu trace events)\n", tracePath.c_str(), trace.eventCount());
  }
  return 0;
}
